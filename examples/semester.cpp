// A simulated semester of the Multimedia Micro-University — every paper
// mechanism in one run:
//
//   * 24 student stations join through the class administrator (AdminNode
//     assigns broadcast-vector positions, adapts m to the link budget);
//   * two instructors author courses (scripts, pages, BLOBs, SCM, library);
//   * six weekly lectures pre-broadcast down the m-ary tree over a lossy
//     campus network, with anti-entropy repair for dropped pushes and
//     post-lecture migration reclaiming student buffers;
//   * students search the virtual library and check courses in/out; the
//     semester ends with assessment reports and a QA audit of the courses.
//
// Build & run:  ./build/examples/semester
//               [--metrics-json=<path>] [--trace-json=<path>]
#include <cstdio>
#include <memory>
#include <string>

#include "core/awareness.hpp"
#include "core/registrar.hpp"
#include "core/sessions.hpp"
#include "dist/admin_node.hpp"
#include "dist/lecture.hpp"
#include "docmodel/qa_checker.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace_export.hpp"
#include "workload/patterns.hpp"

using namespace wdoc;

namespace {

struct StudentStation {
  std::unique_ptr<core::WebDocDb> db;
  std::unique_ptr<dist::AdminClient> client;
  std::unique_ptr<core::StudentSession> session;
  StationId id;
};

core::CourseSpec make_course(const std::string& num, const std::string& title,
                             const std::string& keywords) {
  core::CourseSpec spec;
  spec.script_name = "script-" + num;
  spec.course_number = num;
  spec.title = title;
  spec.keywords = keywords;
  spec.description = "Virtual course " + title;
  spec.starting_url = "http://mmu.edu/" + num + "/index.html";
  spec.html_pages = {
      {spec.starting_url + "/p0", "<html><a href=\"p1\">next</a></html>"},
      {spec.starting_url + "/p1", "<html>end</html>"},
  };
  core::CourseSpec::ResourceSpec video;
  video.digest = digest128(num + " weekly video");
  video.size = 10ull << 20;
  video.type = blob::MediaType::video;
  video.playout_ms = 0;
  spec.resources.push_back(video);
  spec.now = 1000;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path = obs::metrics_json_arg(argc, argv);
  const std::string trace_path = obs::trace_json_arg(argc, argv);
  net::SimNetwork net(1999);
  net::StationLink campus;
  campus.up_bps = 10e6;
  campus.down_bps = 10e6;
  campus.latency = SimTime::millis(15);
  campus.loss_rate = 0.05;  // a flaky 1999 campus network

  // --- tier 2: the class administrator -----------------------------------
  dist::Coordinator coordinator;
  StationId admin_id = net.add_station(campus);
  coordinator.adapt(campus.up_bps, 0.03);
  dist::AdminNode admin(net, admin_id, coordinator,
                        coordinator.m_for(blob::MediaType::video));
  admin.bind();

  // Administration criterion: accounts, admission, registrar.
  core::AccountRegistry accounts;
  core::Registrar registrar(accounts);
  UserId registrar_office =
      accounts.create_account("registrar-office", core::Role::administrator, 0)
          .expect("admin account");
  UserId shih_id = accounts
                       .create_account("shih", core::Role::instructor, 0,
                                       registrar_office)
                       .expect("shih account");

  // --- tier 3: the instructor's station -----------------------------------
  auto instructor_db = core::WebDocDb::create().expect("instructor db");
  StationId instructor_station = net.add_station(campus);
  instructor_db->attach(net, instructor_station).expect("attach");
  dist::AdminClient instructor_client(net, *instructor_db->node(), admin_id);
  instructor_client.bind();
  instructor_client.request_join(nullptr).expect("join");
  net.run();

  core::InstructorSession shih(*instructor_db, UserId{1}, "shih");
  core::InstructorSession ma(*instructor_db, UserId{2}, "ma");
  shih.author_course(make_course("CS101", "Introduction to Computer Engineering",
                                 "hardware, logic, engineering"))
      .expect("CS101");
  ma.author_course(make_course("CS102", "Introduction to Multimedia Computing",
                               "multimedia, video, networking"))
      .expect("CS102");
  std::printf("instructors authored %zu courses at station %llu\n",
              instructor_db->library().entry_count(),
              (unsigned long long)instructor_station.value());

  // --- student stations join through the administrator ---------------------
  std::vector<StudentStation> students;
  for (int i = 0; i < 24; ++i) {
    StudentStation s;
    s.db = core::WebDocDb::create().expect("student db");
    s.id = net.add_station(campus);
    s.db->attach(net, s.id).expect("attach");
    s.client = std::make_unique<dist::AdminClient>(net, *s.db->node(), admin_id);
    s.client->bind();
    s.client->request_join(nullptr).expect("join");
    s.session = std::make_unique<core::StudentSession>(
        *s.db, UserId{100 + static_cast<std::uint64_t>(i)},
        "student-" + std::to_string(i));
    students.push_back(std::move(s));
  }
  net.run();
  // Re-adapt m now that the class size is known, and push the new vector.
  coordinator.adapt(campus.up_bps, 0.03);
  admin.set_m(coordinator.m_for(blob::MediaType::video)).expect("set m");
  net.run();
  std::printf("%zu student stations joined; tree m=%llu, instructor at position "
              "%llu\n",
              students.size(),
              (unsigned long long)coordinator.m_for(blob::MediaType::video),
              (unsigned long long)instructor_db->node()->position());

  // Admission + enrollment through the registrar, then library check-outs.
  std::vector<UserId> student_accounts;
  for (std::size_t i = 0; i < students.size(); ++i) {
    UserId account = accounts
                         .create_account(students[i].session->name(),
                                         core::Role::student, 100, registrar_office)
                         .expect("student account");
    student_accounts.push_back(account);
    registrar.admit(registrar_office, account, "computer science", 200)
        .expect("admit");
    registrar
        .enroll(account, account, i % 2 == 0 ? "CS101" : "CS102",
                300 + (std::int64_t)i)
        .expect("enroll");
  }
  std::printf("registrar: %zu admissions, roster CS101=%zu CS102=%zu\n",
              registrar.admission_count(), registrar.roster("CS101").size(),
              registrar.roster("CS102").size());

  // Students browse the (instructor-station) library and check courses out.
  auto& library = instructor_db->library();
  for (std::size_t i = 0; i < students.size(); ++i) {
    const char* course = i % 2 == 0 ? "CS101" : "CS102";
    library.check_out(course, students[i].session->user(), 5000 + (std::int64_t)i)
        .expect("check out");
  }
  std::printf("library: %zu open loans on CS101, %zu on CS102\n",
              library.holders_of("CS101").size(), library.holders_of("CS102").size());

  // Awareness criterion: a discussion room hosted at the instructor station.
  core::AwarenessHost chat_host(net, net.add_station(campus));
  chat_host.bind();
  std::vector<std::unique_ptr<core::AwarenessClient>> chatters;
  int questions_heard = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    chatters.push_back(std::make_unique<core::AwarenessClient>(
        net, net.add_station(campus), chat_host.id(),
        students[i].session->user(), students[i].session->name()));
    chatters.back()->bind();
    chatters.back()->set_chat_handler(
        [&](const std::string&, const std::string&, const std::string&) {
          ++questions_heard;
        });
    chatters.back()->join("cs101-discussion").expect("join room");
  }
  net.run();
  chatters[0]->chat("cs101-discussion", "is lecture 1 up yet?").expect("chat");
  net.run();
  std::printf("awareness: %zu in the discussion room, question heard by %d peers\n",
              chat_host.roster("cs101-discussion").size(), questions_heard);

  // --- six weekly lectures over the lossy network ---------------------------
  std::vector<dist::StationNode*> audience;
  for (auto& s : students) audience.push_back(s.db->node());

  std::uint64_t total_repairs = 0;
  for (int week = 1; week <= 6; ++week) {
    const char* course = week % 2 == 1 ? "CS101" : "CS102";
    auto manifest = instructor_db
                        ->manifest_for("http://mmu.edu/" + std::string(course) +
                                       "/index.html")
                        .expect("manifest");
    manifest.doc_key += "#week" + std::to_string(week);  // weekly edition
    dist::LectureSession lecture(LectureId{static_cast<std::uint64_t>(week)},
                                 manifest, *instructor_db->node(), audience);
    lecture.begin().expect("begin");
    net.run();

    int rounds = 0;
    while (!lecture.fully_distributed() && rounds < 20) {
      (void)lecture.repair().expect("repair");
      net.run();
      ++rounds;
    }
    total_repairs += lecture.repairs_issued();
    std::uint64_t reclaimed = lecture.end();
    std::printf("  week %d (%s): distributed to %zu stations, %llu repair "
                "pull(s), migration reclaimed %.1f MB\n",
                week, course, audience.size(),
                (unsigned long long)lecture.repairs_issued(),
                static_cast<double>(reclaimed) / 1e6);
  }
  std::printf("semester total repair pulls over lossy links: %llu\n",
              (unsigned long long)total_repairs);

  // --- end of term: check-ins, assessment, QA audit ------------------------
  for (std::size_t i = 0; i < students.size(); ++i) {
    const char* course = i % 2 == 0 ? "CS101" : "CS102";
    library.check_in(course, students[i].session->user(), 900000 + (std::int64_t)i)
        .expect("check in");
  }
  auto report = library.assess(students[0].session->user());
  std::printf("assessment of %s: %llu checkout(s), %lld us of study\n",
              students[0].session->name().c_str(),
              (unsigned long long)report.total_checkouts,
              (long long)report.total_borrow_micros);

  // Grades go to the registrar; the student checks their transcript — the
  // paper's "checking transcript information" example.
  for (std::size_t i = 0; i < students.size(); ++i) {
    double grade = 2.0 + static_cast<double>(i % 5) * 0.5;
    registrar
        .record_grade(shih_id, student_accounts[i], i % 2 == 0 ? "CS101" : "CS102",
                      grade)
        .expect("grade");
  }
  auto transcript =
      registrar.transcript(student_accounts[0], student_accounts[0]).expect("transcript");
  std::printf("transcript of %s: %zu course(s), GPA %.2f\n",
              students[0].session->name().c_str(), transcript.courses.size(),
              transcript.gpa);

  docmodel::QaChecker qa(instructor_db->repository());
  for (const char* course : {"CS101", "CS102"}) {
    auto findings = qa.file_report("http://mmu.edu/" + std::string(course) +
                                       "/index.html",
                                   std::string("qa-final-") + course, "huang",
                                   950000)
                        .expect("qa");
    std::printf("QA audit of %s: %s (%zu pages, %zu links)\n", course,
                findings.clean() ? "clean" : "FINDINGS", findings.pages_checked,
                findings.links_checked);
  }

  // End-of-term cluster scrape: the request fans down the broadcast tree
  // and every station's counters merge on the way back up into one
  // snapshot at the administrator. The campus network has quiesced now
  // that lectures are over (lecture-time loss was the interesting part),
  // and a dropped scrape message would stall that attempt's merge — so the
  // administrator re-issues until one completes, like lecture repair.
  net::StationLink quiet = campus;
  quiet.loss_rate = 0.0;
  net.set_link(admin_id, quiet).expect("quiesce admin");
  net.set_link(instructor_station, quiet).expect("quiesce instructor");
  for (auto& s : students) net.set_link(s.id, quiet).expect("quiesce student");
  // Loss may have left some members with stale tree views; one reliable
  // re-announcement brings every station onto the same vector and m.
  admin.announce_vector().expect("re-announce");
  net.run();
  obs::Snapshot cluster;
  bool scraped = false;
  int scrape_attempts = 0;
  while (!scraped && scrape_attempts < 64) {
    admin
        .scrape_cluster([&](Result<obs::Snapshot> snap, SimTime) {
          cluster = snap.is_ok() ? std::move(snap).value() : obs::Snapshot{};
          scraped = true;
        })
        .expect("scrape");
    net.run();
    ++scrape_attempts;
  }
  std::printf("end-of-term cluster scrape (%d attempt(s)): "
              "%zu station-labeled samples; pushes received=%.0f, "
              "instances demoted=%.0f\n",
              scrape_attempts, cluster.samples.size(),
              obs::counter_total(cluster, "station.pushes_received"),
              obs::counter_total(cluster, "station.demotions"));

  std::printf("network totals: %llu messages, %.1f MB on the wire\n",
              (unsigned long long)net.total_messages(),
              static_cast<double>(net.total_bytes_on_wire()) / 1e6);
  if (!trace_path.empty() && obs::write_trace_file(trace_path)) {
    std::printf("trace written to %s — load it at ui.perfetto.dev\n",
                trace_path.c_str());
  }
  if (!metrics_path.empty() && obs::write_json_file(metrics_path)) {
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }
  return 0;
}
