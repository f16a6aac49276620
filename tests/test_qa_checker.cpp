// QA checker tests: reference extraction, bad-URL / missing / redundant
// detection, traversal replay checks, and automated bug-report filing.
#include <gtest/gtest.h>

#include "docmodel/qa_checker.hpp"
#include "workload/patterns.hpp"

namespace wdoc::docmodel {
namespace {

TEST(ExtractReferences, FindsHrefAndSrc) {
  auto refs = extract_references(
      "<a href=\"page1.html\">one</a> <img src='logo.gif'> "
      "<a href = \"page2.html\">spaced</a>");
  EXPECT_EQ(refs, (std::vector<std::string>{"page1.html", "page2.html", "logo.gif"}));
}

TEST(ExtractReferences, IgnoresMalformedAttributes) {
  EXPECT_TRUE(extract_references("<a href>broken</a>").empty());
  EXPECT_TRUE(extract_references("href=unquoted").empty());
  EXPECT_TRUE(extract_references("src=\"unterminated").empty());
  EXPECT_TRUE(extract_references("").empty());
}

TEST(ExtractReferences, HandlesMixedQuotes) {
  auto refs = extract_references("<a href='a.html'></a><a href=\"b.html\"></a>");
  EXPECT_EQ(refs.size(), 2u);
}

class QaFixture : public ::testing::Test {
 protected:
  QaFixture() : db_(storage::Database::in_memory()), repo_(*db_, blobs_), qa_(repo_) {
    install_schemas(*db_).expect("schemas");
    ScriptInfo script;
    script.name = "s1";
    script.author = "shih";
    repo_.create_script(script).expect("script");
    ImplementationInfo impl;
    impl.starting_url = kUrl;
    impl.script_name = "s1";
    repo_.create_implementation(impl).expect("impl");
  }

  void add_page(const std::string& name, const std::string& body) {
    HtmlFileInfo f;
    f.path = std::string(kUrl) + "/" + name;
    f.starting_url = kUrl;
    f.content.assign(body.begin(), body.end());
    repo_.add_html_file(f).expect("page");
  }

  // Test record `name` as stored: its starting URL and its traversal
  // messages, decoded.
  std::pair<std::string, Result<TraversalLog>> stored_record(const std::string& name) {
    const storage::Table* t = db_->catalog().table(kTestRecordTable);
    auto rid = t->find_unique("name", storage::Value(name));
    if (!rid) return {"", Error{Errc::not_found, name}};
    const auto& row = *t->get(*rid);
    const auto& schema = t->schema();
    const storage::Value& messages = row[*schema.column_index("traversal_messages")];
    return {row[*schema.column_index("starting_url")].as_text(),
            messages.is_null() ? Result<TraversalLog>(TraversalLog{})
                               : TraversalLog::decode(messages.as_blob())};
  }

  static constexpr const char* kUrl = "http://mmu.edu/CS1";
  std::unique_ptr<storage::Database> db_;
  blob::BlobStore blobs_;
  Repository repo_;
  QaChecker qa_;
};

TEST_F(QaFixture, CleanImplementationHasNoFindings) {
  add_page("index.html", "<a href=\"page1.html\">next</a>");
  add_page("page1.html", "<a href=\"index.html\">back</a>");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  EXPECT_TRUE(findings.value().clean()) << findings.value().bad_urls.size();
  EXPECT_EQ(findings.value().pages_checked, 2u);
  EXPECT_EQ(findings.value().links_checked, 2u);
}

TEST_F(QaFixture, DetectsBadUrls) {
  add_page("index.html", "<a href=\"ghost.html\">404</a>");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  ASSERT_EQ(findings.value().bad_urls.size(), 1u);
  EXPECT_EQ(findings.value().bad_urls[0], std::string(kUrl) + "/ghost.html");
}

TEST_F(QaFixture, ExternalLinksAreNotOurProblem) {
  add_page("index.html",
           "<a href=\"http://other.host/x.html\">ext</a>"
           "<a href=\"mailto:shih@cs.tku.edu.tw\">mail</a>");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  EXPECT_TRUE(findings.value().bad_urls.empty());
}

TEST_F(QaFixture, DetectsMissingResource) {
  add_page("index.html",
           "<img src=\"res:00000000000000000000000000000000\">");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  ASSERT_EQ(findings.value().missing_objects.size(), 1u);
}

TEST_F(QaFixture, ReferencedResourceIsFine) {
  Bytes clip{1, 2, 3};
  Digest128 d = digest128(std::span<const std::uint8_t>(clip));
  repo_.attach_resource("implementation", kUrl, clip, blob::MediaType::image)
      .expect("resource");
  add_page("index.html", "<img src=\"res:" + d.to_hex() + "\">");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  EXPECT_TRUE(findings.value().missing_objects.empty());
  EXPECT_TRUE(findings.value().redundant_objects.empty());
}

TEST_F(QaFixture, DetectsRedundantPage) {
  add_page("index.html", "<a href=\"page1.html\">next</a>");
  add_page("page1.html", "fin");
  add_page("orphan.html", "nobody links here");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  ASSERT_EQ(findings.value().redundant_objects.size(), 1u);
  EXPECT_NE(findings.value().redundant_objects[0].find("orphan"), std::string::npos);
}

TEST_F(QaFixture, EmptyImplementationIsInconsistent) {
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  ASSERT_EQ(findings.value().inconsistencies.size(), 1u);
}

TEST_F(QaFixture, DuplicateReferenceFlagged) {
  add_page("index.html",
           "<a href=\"page1.html\">a</a><a href=\"page1.html\">again</a>");
  add_page("page1.html", "fin");
  auto findings = qa_.check(kUrl);
  ASSERT_TRUE(findings.is_ok());
  ASSERT_EQ(findings.value().inconsistencies.size(), 1u);
  EXPECT_NE(findings.value().inconsistencies[0].find("duplicate"), std::string::npos);
}

TEST_F(QaFixture, UnknownImplementationReported) {
  EXPECT_EQ(qa_.check("http://ghost/").code(), Errc::not_found);
}

TEST_F(QaFixture, TraversalReplayFindsUnreachablePages) {
  add_page("index.html", "ok");
  TraversalLog log;
  log.add({TraversalEventKind::navigate, 0, std::string(kUrl) + "/index.html", 0, 0});
  log.add({TraversalEventKind::navigate, 10, std::string(kUrl) + "/void.html", 0, 0});
  log.add({TraversalEventKind::navigate, 20, "http://other.host/", 0, 0});
  auto findings = qa_.check_traversal(kUrl, log);
  ASSERT_TRUE(findings.is_ok());
  ASSERT_EQ(findings.value().bad_urls.size(), 1u);
  EXPECT_EQ(findings.value().bad_urls[0], std::string(kUrl) + "/void.html");
}

TEST_F(QaFixture, FileReportStoresTestRecordAndBug) {
  add_page("index.html", "<a href=\"ghost.html\">404</a>");
  auto log = workload::random_traversal(kUrl, 1, 5, 3);
  auto findings = qa_.file_report(kUrl, "qa-1", "huang", 5000, &log);
  ASSERT_TRUE(findings.is_ok());
  EXPECT_FALSE(findings.value().clean());

  auto [url, messages] = stored_record("qa-1");
  EXPECT_EQ(url, kUrl);
  ASSERT_TRUE(messages.is_ok()) << messages.message();
  EXPECT_EQ(messages.value(), log);

  auto bug = repo_.get_bug_report("qa-1-findings");
  ASSERT_TRUE(bug.is_ok());
  EXPECT_EQ(bug.value().qa_engineer, "huang");
  EXPECT_NE(bug.value().bad_urls.find("ghost.html"), std::string::npos);
  EXPECT_NE(bug.value().test_procedure.find("traversal replay"), std::string::npos);
}

TEST_F(QaFixture, CleanReportFilesNoBug) {
  add_page("index.html", "fin");
  auto findings = qa_.file_report(kUrl, "qa-clean", "huang", 5000);
  ASSERT_TRUE(findings.is_ok());
  EXPECT_TRUE(findings.value().clean());
  EXPECT_EQ(stored_record("qa-clean").first, kUrl);
  EXPECT_EQ(repo_.bug_reports_of("qa-clean").value().size(), 0u);
}

}  // namespace
}  // namespace wdoc::docmodel
