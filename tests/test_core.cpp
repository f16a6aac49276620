// End-to-end tests of the WebDocDb facade and the instructor/student
// sessions: authoring, annotation, QA, integrity alerts, collaborative
// editing with the paper's lock table, library flows, and a two-station
// distributed lecture over the simulator.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/sessions.hpp"
#include "net/sim_network.hpp"
#include "workload/patterns.hpp"

namespace wdoc::core {
namespace {

CourseSpec demo_course(const std::string& num, std::int64_t now = 1000) {
  CourseSpec spec;
  spec.script_name = "script-" + num;
  spec.course_number = num;
  spec.title = "Introduction to Multimedia Computing";
  spec.keywords = "multimedia, video, computing";
  spec.description = "A virtual course on multimedia systems.";
  spec.starting_url = "http://mmu.edu/" + num + "/index.html";
  spec.html_pages = {
      {"http://mmu.edu/" + num + "/index.html/p0", "<html>intro</html>"},
      {"http://mmu.edu/" + num + "/index.html/p1", "<html>chapter 1</html>"},
  };
  CourseSpec::ResourceSpec video;
  video.digest = digest128(num + " lecture video");
  video.size = 8 << 20;
  video.type = blob::MediaType::video;
  video.playout_ms = 0;
  spec.resources.push_back(video);
  spec.now = now;
  return spec;
}

class CoreFixture : public ::testing::Test {
 protected:
  CoreFixture() {
    auto created = WebDocDb::create();
    WDOC_CHECK(created.is_ok(), "create WebDocDb");
    db_ = std::move(created).value();
    instructor_ = std::make_unique<InstructorSession>(*db_, UserId{1}, "shih");
    student_ = std::make_unique<StudentSession>(*db_, UserId{100}, "alice");
  }
  std::unique_ptr<WebDocDb> db_;
  std::unique_ptr<InstructorSession> instructor_;
  std::unique_ptr<StudentSession> student_;
};

TEST_F(CoreFixture, AuthorCourseCreatesEverything) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  // Repository rows.
  EXPECT_TRUE(db_->repository().get_script("script-CS102").is_ok());
  EXPECT_TRUE(db_->repository().get_implementation("http://mmu.edu/CS102/index.html")
                  .is_ok());
  EXPECT_EQ(db_->repository()
                .html_files_of("http://mmu.edu/CS102/index.html")
                .value()
                .size(),
            2u);
  // SCM item + lock tree + library entry.
  EXPECT_TRUE(db_->scm().has_item("script:script-CS102"));
  EXPECT_TRUE(db_->lock_node_of("script:script-CS102").has_value());
  EXPECT_TRUE(db_->library().by_course_number("CS102").has_value());
  // BLOB layer holds the video.
  EXPECT_EQ(db_->blobs().stored_bytes(), 8u << 20);
}

TEST_F(CoreFixture, ManifestBridgesRepositoryToDistribution) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  auto manifest = db_->manifest_for("http://mmu.edu/CS102/index.html");
  ASSERT_TRUE(manifest.is_ok());
  EXPECT_EQ(manifest.value().doc_key, "http://mmu.edu/CS102/index.html");
  EXPECT_GT(manifest.value().structure_bytes, 0u);
  ASSERT_EQ(manifest.value().blobs.size(), 1u);
  EXPECT_EQ(manifest.value().blobs[0].size, 8u << 20);
  EXPECT_EQ(manifest.value().blobs[0].playout_ms, 0);
  EXPECT_EQ(db_->manifest_for("http://ghost/").code(), Errc::not_found);
}

TEST_F(CoreFixture, AnnotationAndQaFlows) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  const std::string url = "http://mmu.edu/CS102/index.html";

  auto doc = workload::random_annotation(10, 5);
  ASSERT_TRUE(instructor_->annotate(url, doc, "shih-notes-1", 2000).is_ok());
  auto files = db_->database()
                   .query(docmodel::kAnnotationFileTable)
                   .where_eq("annotation_name", storage::Value("shih-notes-1"))
                   .select({"ops"})
                   .run();
  ASSERT_TRUE(files.is_ok());
  ASSERT_EQ(files.value().size(), 1u);
  EXPECT_EQ(docmodel::AnnotationDoc::decode(files.value()[0].values[0].as_blob()).value(),
            doc);

  auto log = workload::random_traversal(url, 2, 20, 5);
  ASSERT_TRUE(
      instructor_->record_test(url, log, "qa-run-1", 3000, "missing image on p1")
          .is_ok());
  EXPECT_EQ(db_->repository().test_records_of_script("script-CS102").value(),
            std::vector<std::string>{"qa-run-1"});
  EXPECT_EQ(db_->repository().bug_reports_of("qa-run-1").value().size(), 1u);
}

TEST_F(CoreFixture, UpdateAlertsFollowTheDiagram) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  auto alerts = instructor_->alerts_for_script("script-CS102");
  ASSERT_TRUE(alerts.is_ok());
  // script -> implementation -> {2 html, 1 resource}.
  EXPECT_GE(alerts.value().size(), 4u);
  EXPECT_EQ(alerts.value()[0].target.kind, integrity::SciKind::implementation);
  // Unknown SCI is reported.
  EXPECT_EQ(db_->update_alerts({integrity::SciKind::script, "ghost"}).code(),
            Errc::not_found);
}

TEST_F(CoreFixture, EditCycleLocksAndVersions) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  ASSERT_TRUE(instructor_->begin_edit("script-CS102", 2000).is_ok());

  // A second instructor cannot start a concurrent edit (write lock + SCM).
  InstructorSession rival(*db_, UserId{2}, "ma");
  EXPECT_EQ(rival.begin_edit("script-CS102", 2100).code(), Errc::lock_conflict);

  Bytes v2 = Bytes{'n', 'e', 'w'};
  ASSERT_TRUE(instructor_->finish_edit("script-CS102", v2, "revise intro", 2200)
                  .is_ok());
  EXPECT_EQ(db_->scm().head("script:script-CS102").value().number, 2u);
  // Lock released: rival can edit now.
  EXPECT_TRUE(rival.begin_edit("script-CS102", 2300).is_ok());
  ASSERT_TRUE(rival.finish_edit("script-CS102", Bytes{'v', '3'}, "second pass", 2400)
                  .is_ok());
  EXPECT_EQ(db_->scm().head("script:script-CS102").value().number, 3u);
  // Released again after the rival's check-in.
  EXPECT_TRUE(instructor_->begin_edit("script-CS102", 2500).is_ok());
}

TEST_F(CoreFixture, LibrarySearchAndAssessment) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  ASSERT_TRUE(instructor_->author_course([&] {
                auto c = demo_course("CS103");
                c.title = "Introduction to Engineering Drawing";
                c.keywords = "drawing, engineering";
                return c;
              }())
                  .is_ok());

  auto hits = student_->search("multimedia");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entry->course_number, "CS102");
  EXPECT_EQ(db_->library().by_instructor("shih").size(), 2u);

  ASSERT_TRUE(student_->check_out("CS102", 5000).is_ok());
  ASSERT_TRUE(student_->check_in("CS102", 9000).is_ok());
  ASSERT_TRUE(student_->check_out("CS103", 9500).is_ok());
  auto report = student_->assessment();
  EXPECT_EQ(report.total_checkouts, 2u);
  EXPECT_EQ(report.distinct_courses, 2u);
  EXPECT_EQ(report.still_out, 1u);
  EXPECT_EQ(report.total_borrow_micros, 4000);
}

TEST_F(CoreFixture, RegisterLockTreeTwiceRejected) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  EXPECT_EQ(db_->register_lock_tree("script-CS102").code(), Errc::already_exists);
  EXPECT_EQ(db_->register_lock_tree("ghost").code(), Errc::not_found);
}

TEST_F(CoreFixture, AuthorCourseRejectsDuplicates) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  // Same script name again: the repository refuses, nothing half-created
  // downstream is reachable under a second library entry.
  EXPECT_EQ(instructor_->author_course(demo_course("CS102")).code(),
            Errc::constraint_violation);
}

TEST_F(CoreFixture, EditGuardsForUnknownScript) {
  EXPECT_EQ(instructor_->begin_edit("ghost", 1).code(), Errc::not_found);
  EXPECT_EQ(instructor_->finish_edit("ghost", Bytes{1}, "c", 2).code(),
            Errc::not_found);
}

TEST_F(CoreFixture, FinishEditWithoutCheckoutFails) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  EXPECT_EQ(instructor_->finish_edit("script-CS102", Bytes{1}, "c", 2).code(),
            Errc::lock_conflict);
}

TEST_F(CoreFixture, SqlSurfaceSeesTheDocumentLayer) {
  ASSERT_TRUE(instructor_->author_course(demo_course("CS102")).is_ok());
  auto rs = db_->sql().execute(
      "SELECT name, author FROM wd_script WHERE name = 'script-CS102'");
  ASSERT_TRUE(rs.is_ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][1].as_text(), "shih");

  auto count = db_->sql().execute("SELECT COUNT(*) FROM wd_html_file");
  ASSERT_TRUE(count.is_ok());
  EXPECT_EQ(count.value().rows[0][0].as_int(), 2);

  // SQL DML hits the same FK machinery: deleting the script cascades.
  auto del = db_->sql().execute(
      "DELETE FROM wd_script WHERE name = 'script-CS102'");
  ASSERT_TRUE(del.is_ok());
  EXPECT_EQ(db_->repository().get_implementation("http://mmu.edu/CS102/index.html")
                .code(),
            Errc::not_found);
}

TEST(Core, DistributedLectureAcrossTwoStations) {
  net::SimNetwork net(7);

  auto instructor_db = WebDocDb::create().expect("instructor db");
  auto student_db = WebDocDb::create().expect("student db");
  StationId s1 = net.add_station();
  StationId s2 = net.add_station();
  ASSERT_TRUE(instructor_db->attach(net, s1).is_ok());
  ASSERT_TRUE(student_db->attach(net, s2).is_ok());

  // One broadcast vector shared by both nodes, m = 2.
  std::vector<StationId> vec{s1, s2};
  instructor_db->node()->set_tree(vec, 2);
  student_db->node()->set_tree(vec, 2);

  InstructorSession instructor(*instructor_db, UserId{1}, "shih");
  ASSERT_TRUE(instructor.author_course(demo_course("CS102")).is_ok());
  auto manifest = instructor_db->manifest_for("http://mmu.edu/CS102/index.html");
  ASSERT_TRUE(manifest.is_ok());
  ASSERT_TRUE(instructor_db->node()->broadcast_push(manifest.value()).is_ok());
  net.run();

  // The student's station received the ephemeral lecture copy.
  EXPECT_TRUE(
      student_db->objects().has_materialized("http://mmu.edu/CS102/index.html"));

  // Student fetch resolves locally now.
  bool got = false;
  ASSERT_TRUE(student_db->node()
                  ->fetch("http://mmu.edu/CS102/index.html",
                          [&](Result<dist::DocManifest> r, SimTime) { got = r.is_ok(); })
                  .is_ok());
  EXPECT_TRUE(got);

  // After the lecture, migration reclaims the student's buffer space.
  std::uint64_t before = student_db->objects().disk_bytes();
  EXPECT_GT(before, 0u);
  (void)student_db->node()->end_lecture();
  EXPECT_EQ(student_db->objects().disk_bytes(), 0u);

  // Double attach is rejected.
  EXPECT_EQ(student_db->attach(net, s2).code(), Errc::already_exists);
}

TEST(Core, DurableBlobPayloadsSurviveRestart) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "wdoc-core-blobs").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  Bytes audio{5, 6, 7, 8, 9};
  {
    WebDocDbOptions opts;
    opts.data_dir = dir;
    auto db = WebDocDb::create(opts).expect("create");
    InstructorSession instructor(*db, UserId{1}, "shih");
    ASSERT_TRUE(instructor.author_course(demo_course("CS102")).is_ok());
    // A verbal description: its bytes in the BLOB layer, its digest in the
    // script row.
    ASSERT_TRUE(db->blobs().put(audio, blob::MediaType::audio).is_ok());
    storage::Database& sql = db->database();
    auto rid = sql.catalog()
                   .table(docmodel::kScriptTable)
                   ->find_unique("name", storage::Value("script-CS102"));
    ASSERT_TRUE(rid.has_value());
    const storage::Value hex(digest128(audio).to_hex());
    ASSERT_TRUE(
        sql.update_column(docmodel::kScriptTable, *rid, "verbal_description_digest", hex)
            .is_ok());
    // A real-bytes resource persists alongside the synthetic one.
    ASSERT_TRUE(db->repository()
                    .attach_resource("script", "script-CS102", Bytes{1, 2, 3},
                                     blob::MediaType::image)
                    .is_ok());
    ASSERT_TRUE(db->database().flush().is_ok());
  }
  {
    WebDocDbOptions opts;
    opts.data_dir = dir;
    auto db = WebDocDb::create(opts).expect("reopen");
    // The verbal description faults back in from disk, and its rehydrated
    // reference keeps it across a gc.
    auto expect_audio = [&] {
      auto id = db->blobs().find(digest128(audio));
      ASSERT_TRUE(id.has_value());
      auto data = db->blobs().get(*id);
      ASSERT_TRUE(data.is_ok());
      EXPECT_EQ(Bytes(data.value().begin(), data.value().end()), audio);
    };
    expect_audio();
    (void)db->blobs().gc();
    expect_audio();
  }
  fs::remove_all(dir);
}

TEST(Core, DurableStationSurvivesRestart) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "wdoc-core-durable").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    WebDocDbOptions opts;
    opts.data_dir = dir;
    auto db = WebDocDb::create(opts).expect("create durable");
    InstructorSession instructor(*db, UserId{1}, "shih");
    ASSERT_TRUE(instructor.author_course(demo_course("CS102")).is_ok());
    ASSERT_TRUE(db->database().flush().is_ok());
  }
  {
    WebDocDbOptions opts;
    opts.data_dir = dir;
    auto db = WebDocDb::create(opts).expect("reopen durable");
    EXPECT_TRUE(db->repository().get_script("script-CS102").is_ok());
    EXPECT_EQ(db->repository()
                  .html_files_of("http://mmu.edu/CS102/index.html")
                  .value()
                  .size(),
              2u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wdoc::core
