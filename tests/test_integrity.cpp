// Referential-integrity diagram tests: link management, BFS alert
// propagation (the paper's script -> implementation -> files chain),
// multiplicity checks, and building the diagram from a repository.
#include <gtest/gtest.h>

#include "integrity/build.hpp"
#include "integrity/diagram.hpp"

namespace wdoc::integrity {
namespace {

SciRef script(const std::string& n) { return {SciKind::script, n}; }
SciRef impl(const std::string& n) { return {SciKind::implementation, n}; }
SciRef html(const std::string& n) { return {SciKind::html_file, n}; }
SciRef resource(const std::string& n) { return {SciKind::resource, n}; }

LinkLabel plus(const char* label) {
  return LinkLabel{label, Multiplicity::one_or_more, {}};
}
LinkLabel star(const char* label) {
  return LinkLabel{label, Multiplicity::zero_or_more, {}};
}

TEST(Diagram, ObjectsAndLinks) {
  IntegrityDiagram d;
  d.add_object(script("s"));
  d.add_object(impl("i"));
  EXPECT_TRUE(d.has_object(script("s")));
  EXPECT_FALSE(d.has_object(script("ghost")));
  ASSERT_TRUE(d.add_link(script("s"), impl("i"), plus("implements")).is_ok());
  EXPECT_TRUE(d.has_link(script("s"), impl("i")));
  EXPECT_FALSE(d.has_link(impl("i"), script("s")));
  EXPECT_EQ(d.link_count(), 1u);
  EXPECT_EQ(d.add_link(script("s"), impl("i"), plus("implements")).code(),
            Errc::already_exists);
  EXPECT_EQ(d.add_link(script("s"), impl("ghost"), plus("x")).code(), Errc::not_found);
}

TEST(Diagram, PaperChainPropagation) {
  // "if a script SCI is updated, its corresponding implementations should be
  // updated, which further triggers the changes of one or more HTML
  // programs, zero or more multimedia resources, and some control programs."
  IntegrityDiagram d;
  d.add_object(script("s"));
  d.add_object(impl("i1"));
  d.add_object(impl("i2"));
  d.add_object(html("h1"));
  d.add_object(html("h2"));
  d.add_object(resource("r1"));
  ASSERT_TRUE(d.add_link(script("s"), impl("i1"), plus("implements")).is_ok());
  ASSERT_TRUE(d.add_link(script("s"), impl("i2"), plus("implements")).is_ok());
  ASSERT_TRUE(d.add_link(impl("i1"), html("h1"), plus("html")).is_ok());
  ASSERT_TRUE(d.add_link(impl("i1"), resource("r1"), star("uses")).is_ok());
  ASSERT_TRUE(d.add_link(impl("i2"), html("h2"), plus("html")).is_ok());

  auto alerts = d.on_update(script("s"));
  ASSERT_EQ(alerts.size(), 5u);
  // Direct dependents first (BFS).
  EXPECT_EQ(alerts[0].depth, 1u);
  EXPECT_EQ(alerts[1].depth, 1u);
  EXPECT_EQ(alerts[0].target.kind, SciKind::implementation);
  EXPECT_EQ(alerts[4].depth, 2u);
  for (const Alert& a : alerts) {
    EXPECT_FALSE(a.message.empty());
  }
}

TEST(Diagram, UpdateOfLeafAlertsNothing) {
  IntegrityDiagram d;
  d.add_object(script("s"));
  d.add_object(html("h"));
  ASSERT_TRUE(d.add_link(script("s"), html("h"), plus("html")).is_ok());
  EXPECT_TRUE(d.on_update(html("h")).empty());
}

TEST(Diagram, DiamondAlertsOnce) {
  IntegrityDiagram d;
  d.add_object(script("s"));
  d.add_object(impl("i1"));
  d.add_object(impl("i2"));
  d.add_object(resource("shared"));
  ASSERT_TRUE(d.add_link(script("s"), impl("i1"), plus("implements")).is_ok());
  ASSERT_TRUE(d.add_link(script("s"), impl("i2"), plus("implements")).is_ok());
  ASSERT_TRUE(d.add_link(impl("i1"), resource("shared"), star("uses")).is_ok());
  ASSERT_TRUE(d.add_link(impl("i2"), resource("shared"), star("uses")).is_ok());
  auto alerts = d.on_update(script("s"));
  std::size_t shared_alerts = 0;
  for (const Alert& a : alerts) {
    if (a.target == resource("shared")) ++shared_alerts;
  }
  EXPECT_EQ(shared_alerts, 1u);
}

TEST(Diagram, CycleTerminates) {
  IntegrityDiagram d;
  d.add_object(script("a"));
  d.add_object(script("b"));
  ASSERT_TRUE(d.add_link(script("a"), script("b"), star("ref")).is_ok());
  ASSERT_TRUE(d.add_link(script("b"), script("a"), star("ref")).is_ok());
  auto alerts = d.on_update(script("a"));
  EXPECT_EQ(alerts.size(), 1u);  // b alerted once; a itself not re-alerted
}

TEST(Diagram, CustomAlertMessagePreferred) {
  IntegrityDiagram d;
  d.add_object(script("s"));
  d.add_object(impl("i"));
  LinkLabel label{"implements", Multiplicity::one_or_more, {"re-run the build"}};
  ASSERT_TRUE(d.add_link(script("s"), impl("i"), label).is_ok());
  auto alerts = d.on_update(script("s"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].message, "re-run the build");
}

TEST(Diagram, MultiplicityViolationDetected) {
  IntegrityDiagram d;
  d.add_object(script("s"));
  d.add_object(impl("i"));
  ASSERT_TRUE(d.add_link(script("s"), impl("i"), plus("implements")).is_ok());
  // Live target: no violation.
  EXPECT_TRUE(d.check_multiplicities(nullptr).empty());
  auto count = [](std::size_t n) {
    return [n](const SciRef&, const std::string&) { return n; };
  };
  EXPECT_TRUE(d.check_multiplicities(count(1)).empty());
  // The counter finds no implementation left: '+' violated.
  auto violations = d.check_multiplicities(count(0));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("implements"), std::string::npos);
}

TEST(BuildDiagram, MirrorsRepositoryStructure) {
  auto db = storage::Database::in_memory();
  blob::BlobStore blobs;
  docmodel::Repository repo(*db, blobs);
  docmodel::install_schemas(*db).expect("schemas");

  docmodel::ScriptInfo s;
  s.name = "s1";
  s.author = "shih";
  repo.create_script(s).expect("script");
  docmodel::ImplementationInfo i;
  i.starting_url = "http://x/1";
  i.script_name = "s1";
  repo.create_implementation(i).expect("impl");
  docmodel::HtmlFileInfo h;
  h.path = "http://x/1/index.html";
  h.starting_url = "http://x/1";
  repo.add_html_file(h).expect("html");
  repo.attach_resource("implementation", "http://x/1", Bytes{1, 2},
                       blob::MediaType::image)
      .expect("resource");
  docmodel::TestRecordInfo tr;
  tr.name = "t1";
  tr.script_name = "s1";
  tr.starting_url = "http://x/1";
  repo.create_test_record(tr).expect("test record");
  docmodel::BugReportInfo bug;
  bug.name = "b1";
  bug.test_record_name = "t1";
  repo.create_bug_report(bug).expect("bug");

  auto diagram = build_diagram(repo);
  ASSERT_TRUE(diagram.is_ok());
  const IntegrityDiagram& d = diagram.value();
  EXPECT_TRUE(d.has_object(script("s1")));
  EXPECT_TRUE(d.has_object(impl("http://x/1")));
  EXPECT_TRUE(d.has_object(html("http://x/1/index.html")));
  EXPECT_TRUE(d.has_object({SciKind::test_record, "t1"}));
  EXPECT_TRUE(d.has_object({SciKind::bug_report, "b1"}));

  // Script update reaches the whole implementation subtree + test chain.
  auto alerts = d.on_update(script("s1"));
  EXPECT_GE(alerts.size(), 5u);
}

TEST(BuildDiagram, EmptyRepositoryGivesEmptyDiagram) {
  auto db = storage::Database::in_memory();
  blob::BlobStore blobs;
  docmodel::Repository repo(*db, blobs);
  docmodel::install_schemas(*db).expect("schemas");
  auto diagram = build_diagram(repo);
  ASSERT_TRUE(diagram.is_ok());
  EXPECT_EQ(diagram.value().object_count(), 0u);
  EXPECT_EQ(diagram.value().link_count(), 0u);
}

}  // namespace
}  // namespace wdoc::integrity
