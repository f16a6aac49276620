// Document-model tests: the paper-faithful schemas, repository CRUD with
// cascade semantics across the hierarchy, annotation draw-ops and traversal
// logs.
#include <gtest/gtest.h>

#include "docmodel/repository.hpp"
#include "docmodel/traversal.hpp"

namespace wdoc::docmodel {
namespace {

class RepoFixture : public ::testing::Test {
 protected:
  RepoFixture() : db_(storage::Database::in_memory()), blobs_(), repo_(*db_, blobs_) {
    install_schemas(*db_).expect("install schemas");
  }

  ScriptInfo make_script(const std::string& name) {
    ScriptInfo s;
    s.name = name;
    s.keywords = "multimedia, database";
    s.author = "shih";
    s.version = "1.0";
    s.created_at = 1000;
    s.description = "intro course";
    s.expected_completion = 2000;
    s.pct_complete = 40.0;
    return s;
  }

  ImplementationInfo make_impl(const std::string& url, const std::string& script) {
    ImplementationInfo i;
    i.starting_url = url;
    i.script_name = script;
    i.author = "shih";
    i.created_at = 1100;
    i.try_number = 1;
    return i;
  }

  std::unique_ptr<storage::Database> db_;
  blob::BlobStore blobs_;
  Repository repo_;
};

TEST_F(RepoFixture, SchemasInstallAllTables) {
  for (const char* name :
       {kDatabaseTable, kScriptTable, kDbScriptTable, kImplementationTable,
        kTestRecordTable, kBugReportTable, kAnnotationTable, kHtmlFileTable,
        kProgramFileTable, kAnnotationFileTable, kResourceTable}) {
    EXPECT_TRUE(db_->catalog().has_table(name)) << name;
  }
}

TEST_F(RepoFixture, ScriptRoundTrip) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  auto got = repo_.get_script("s1");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().name, "s1");
  EXPECT_EQ(got.value().author, "shih");
  EXPECT_DOUBLE_EQ(got.value().pct_complete, 40.0);
  EXPECT_FALSE(got.value().verbal_description_digest.has_value());
  EXPECT_EQ(repo_.get_script("ghost").code(), Errc::not_found);
}

TEST_F(RepoFixture, DuplicateScriptNameRejected) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  EXPECT_EQ(repo_.create_script(make_script("s1")).code(), Errc::constraint_violation);
}

TEST_F(RepoFixture, ProgressUpdateValidated) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.set_script_progress("s1", 80.0).is_ok());
  EXPECT_DOUBLE_EQ(repo_.get_script("s1").value().pct_complete, 80.0);
  EXPECT_EQ(repo_.set_script_progress("s1", 150.0).code(), Errc::invalid_argument);
  EXPECT_EQ(repo_.set_script_progress("ghost", 10.0).code(), Errc::not_found);
}

TEST_F(RepoFixture, ImplementationRequiresScript) {
  EXPECT_EQ(repo_.create_implementation(make_impl("http://x/1", "ghost")).code(),
            Errc::constraint_violation);
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());
  auto got = repo_.get_implementation("http://x/1");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().script_name, "s1");
}

TEST_F(RepoFixture, MultipleTriesPerScriptOrdered) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  for (int t = 3; t >= 1; --t) {
    auto impl = make_impl("http://x/" + std::to_string(t), "s1");
    impl.try_number = t;
    ASSERT_TRUE(repo_.create_implementation(impl).is_ok());
  }
  auto impls = repo_.implementations_of("s1");
  ASSERT_TRUE(impls.is_ok());
  ASSERT_EQ(impls.value().size(), 3u);
  EXPECT_EQ(impls.value()[0].try_number, 1);
  EXPECT_EQ(impls.value()[2].try_number, 3);
}

TEST_F(RepoFixture, FilesBelongToImplementations) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());
  HtmlFileInfo page;
  page.path = "http://x/1/index.html";
  page.starting_url = "http://x/1";
  std::string body = "<html>hello</html>";
  page.content.assign(body.begin(), body.end());
  ASSERT_TRUE(repo_.add_html_file(page).is_ok());

  ProgramFileInfo prog;
  prog.path = "http://x/1/applet.class";
  prog.starting_url = "http://x/1";
  prog.language = "java";
  prog.content = {0xca, 0xfe, 0xba, 0xbe};
  ASSERT_TRUE(repo_.add_program_file(prog).is_ok());

  auto htmls = repo_.html_files_of("http://x/1");
  ASSERT_TRUE(htmls.is_ok());
  ASSERT_EQ(htmls.value().size(), 1u);
  EXPECT_EQ(htmls.value()[0].content.size(), body.size());
  auto progs = repo_.program_files_of("http://x/1");
  ASSERT_EQ(progs.value().size(), 1u);
  EXPECT_EQ(progs.value()[0].language, "java");

  // File under an unknown implementation is an FK violation.
  page.path = "http://ghost/index.html";
  page.starting_url = "http://ghost";
  EXPECT_EQ(repo_.add_html_file(page).code(), Errc::constraint_violation);
}

TEST_F(RepoFixture, ResourcesGoThroughBlobStore) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());
  Bytes clip{1, 2, 3, 4, 5};
  auto id = repo_.attach_resource("implementation", "http://x/1", clip,
                                  blob::MediaType::audio, 30000);
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(blobs_.blob_count(), 1u);

  auto resources = repo_.resources_of("implementation", "http://x/1");
  ASSERT_TRUE(resources.is_ok());
  ASSERT_EQ(resources.value().size(), 1u);
  EXPECT_EQ(resources.value()[0].size, 5u);
  EXPECT_EQ(resources.value()[0].media_type, blob::MediaType::audio);
  EXPECT_EQ(resources.value()[0].playout_ms, 30000);

  // Same bytes attached to another owner share the blob.
  ASSERT_TRUE(repo_.create_script(make_script("s2")).is_ok());
  ASSERT_TRUE(
      repo_.attach_resource("script", "s2", clip, blob::MediaType::audio).is_ok());
  EXPECT_EQ(blobs_.blob_count(), 1u);
  EXPECT_EQ(blobs_.info(id.value())->refs, 2u);
}

TEST_F(RepoFixture, SyntheticResourcesForSimulation) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());
  Digest128 d = digest128("big video");
  ASSERT_TRUE(repo_
                  .attach_synthetic_resource("implementation", "http://x/1", d,
                                             10u << 20, blob::MediaType::video)
                  .is_ok());
  auto resources = repo_.resources_of("implementation", "http://x/1");
  ASSERT_TRUE(resources.is_ok());
  ASSERT_EQ(resources.value().size(), 1u);
  EXPECT_EQ(resources.value()[0].size, 10u << 20);
  EXPECT_EQ(resources.value()[0].digest_hex, d.to_hex());
}

TEST_F(RepoFixture, TestRecordAndBugReportChain) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());

  TestRecordInfo tr;
  tr.name = "t1";
  tr.global_scope = true;
  tr.script_name = "s1";
  tr.starting_url = "http://x/1";
  tr.created_at = 1200;
  ASSERT_TRUE(repo_.create_test_record(tr).is_ok());

  BugReportInfo bug;
  bug.name = "b1";
  bug.qa_engineer = "huang";
  bug.test_procedure = "replay";
  bug.bug_description = "broken link";
  bug.bad_urls = "http://x/1/missing.html";
  bug.test_record_name = "t1";
  bug.created_at = 1300;
  ASSERT_TRUE(repo_.create_bug_report(bug).is_ok());

  EXPECT_EQ(repo_.test_records_of_script("s1").value(),
            std::vector<std::string>{"t1"});
  EXPECT_EQ(repo_.bug_reports_of("t1").value(), std::vector<std::string>{"b1"});
  auto fetched = repo_.get_bug_report("b1");
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value().qa_engineer, "huang");
  EXPECT_EQ(fetched.value().bad_urls, "http://x/1/missing.html");
}

TEST_F(RepoFixture, AnnotationsStoreDrawOps) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());

  AnnotationDoc doc;
  DrawOp line;
  line.kind = DrawOpKind::line;
  line.a = {10, 20};
  line.b = {100, 200};
  doc.add(line);
  DrawOp text;
  text.kind = DrawOpKind::text;
  text.a = {50, 60};
  text.text = "see chapter 3";
  doc.add(text);

  AnnotationInfo info;
  info.name = "ann1";
  info.author = "ma";
  info.version = "1.0";
  info.created_at = 1400;
  info.script_name = "s1";
  info.starting_url = "http://x/1";
  ASSERT_TRUE(repo_.create_annotation(info, doc).is_ok());

  // The annotation file row holds the encoded draw-ops.
  auto rows = db_->query(kAnnotationFileTable)
                  .where_eq("annotation_name", storage::Value("ann1"))
                  .select({"ops"})
                  .run();
  ASSERT_TRUE(rows.is_ok());
  ASSERT_EQ(rows.value().size(), 1u);
  auto loaded = AnnotationDoc::decode(rows.value()[0].values[0].as_blob());
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value(), doc);
  EXPECT_EQ(repo_.annotations_of("http://x/1").value(),
            std::vector<std::string>{"ann1"});
}

TEST_F(RepoFixture, DifferentInstructorsAnnotateSameImplementation) {
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_implementation(make_impl("http://x/1", "s1")).is_ok());
  for (const char* author : {"shih", "ma", "huang"}) {
    AnnotationInfo info;
    info.name = std::string("ann-") + author;
    info.author = author;
    info.script_name = "s1";
    info.starting_url = "http://x/1";
    ASSERT_TRUE(repo_.create_annotation(info, AnnotationDoc{}).is_ok());
  }
  EXPECT_EQ(repo_.annotations_of("http://x/1").value().size(), 3u);
}

TEST_F(RepoFixture, DatabaseLayerMembership) {
  DatabaseInfo db;
  db.name = "course-db";
  db.keywords = "virtual university";
  db.author = "mmu";
  db.version = "1";
  db.created_at = 10;
  ASSERT_TRUE(repo_.create_database(db).is_ok());
  ASSERT_TRUE(repo_.create_script(make_script("s1")).is_ok());
  ASSERT_TRUE(repo_.create_script(make_script("s2")).is_ok());
  ASSERT_TRUE(repo_.add_script_to_database("course-db", "s1").is_ok());
  ASSERT_TRUE(repo_.add_script_to_database("course-db", "s2").is_ok());
  EXPECT_EQ(repo_.add_script_to_database("course-db", "s1").code(),
            Errc::already_exists);
  auto scripts = repo_.scripts_of_database("course-db");
  ASSERT_TRUE(scripts.is_ok());
  EXPECT_EQ(scripts.value().size(), 2u);
  EXPECT_EQ(repo_.list_databases(), std::vector<std::string>{"course-db"});
}

TEST(AnnotationOps, EncodeDecodeAllKinds) {
  AnnotationDoc doc;
  DrawOp freehand;
  freehand.kind = DrawOpKind::freehand;
  freehand.points = {{1, 2}, {3, 4}, {5, 6}};
  freehand.color = 0x11223344;
  freehand.stroke_width = 3;
  doc.add(freehand);
  DrawOp ellipse;
  ellipse.kind = DrawOpKind::ellipse;
  ellipse.a = {-10, -20};
  ellipse.b = {30, 40};
  doc.add(ellipse);
  auto decoded = AnnotationDoc::decode(doc.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), doc);
}

TEST(AnnotationOps, DecodeRejectsGarbage) {
  EXPECT_FALSE(AnnotationDoc::decode(Bytes{1, 2, 3}).is_ok());
  Writer w;
  w.str("WDANN1");
  w.u32(1);
  w.u8(250);  // invalid kind
  EXPECT_EQ(AnnotationDoc::decode(w.take()).code(), Errc::corrupt);
}

TEST(AnnotationOps, LegacyUntimedFormatStillDecodes) {
  // Hand-build a WDANN1 (v1) payload: one line op without a timestamp.
  Writer w;
  w.str("WDANN1");
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(DrawOpKind::line));
  w.u32(5);   // a.x
  w.u32(6);   // a.y
  w.u32(7);   // b.x
  w.u32(8);   // b.y
  w.u32(0xff00ff00);
  w.u16(2);
  w.str("");
  w.u32(0);  // no freehand points
  auto decoded = AnnotationDoc::decode(w.take());
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().op_count(), 1u);
  EXPECT_EQ(decoded.value().ops()[0].a, (Point{5, 6}));
  EXPECT_EQ(decoded.value().ops()[0].at_ms, 0);
}

TEST(Traversal, EncodeDecodeRoundTrip) {
  TraversalLog log;
  log.add({TraversalEventKind::navigate, 0, "http://x/1", 0, 0});
  log.add({TraversalEventKind::click, 1500, "", 10, 20});
  log.add({TraversalEventKind::play_media, 3000, "clip-1", 0, 0});
  log.add({TraversalEventKind::close, 9000, "", 0, 0});
  auto decoded = TraversalLog::decode(log.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), log);
}

TEST(Traversal, DecodeRejectsBadKind) {
  Writer w;
  w.str("WDTRV1");
  w.u32(1);
  w.u8(99);
  EXPECT_EQ(TraversalLog::decode(w.take()).code(), Errc::corrupt);
}

}  // namespace
}  // namespace wdoc::docmodel
