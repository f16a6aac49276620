// Quickstart: the five-minute tour of the Web document database.
//
// An instructor authors a virtual course (script + implementation + pages +
// a video resource), lists it in the virtual library; a student searches,
// checks the course out, studies, checks it back in; the instructor then
// updates the script and receives the referential-integrity alerts.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/sessions.hpp"

using namespace wdoc;

int main() {
  // 1. One station of the distributed database, in memory.
  auto db = core::WebDocDb::create().expect("create database");

  core::InstructorSession shih(*db, UserId{1}, "shih");
  core::StudentSession alice(*db, UserId{100}, "alice");

  // 2. Author a course.
  core::CourseSpec course;
  course.script_name = "intro-multimedia";
  course.course_number = "CS102";
  course.title = "Introduction to Multimedia Computing";
  course.keywords = "multimedia, video, networking";
  course.description = "Script: 12 lectures on multimedia systems and networking.";
  course.starting_url = "http://mmu.edu/CS102/index.html";
  course.html_pages = {
      {"http://mmu.edu/CS102/lecture1.html", "<html><h1>Lecture 1</h1></html>"},
      {"http://mmu.edu/CS102/lecture2.html", "<html><h1>Lecture 2</h1></html>"},
  };
  core::CourseSpec::ResourceSpec video;
  video.digest = digest128("CS102 lecture 1 video");
  video.size = 10ull << 20;  // a 10 MB clip, size-only for the demo
  video.type = blob::MediaType::video;
  video.playout_ms = 0;
  course.resources.push_back(video);
  course.now = 1000;
  shih.author_course(course).expect("author course");
  std::printf("authored %s (%s) — %zu pages, %llu BLOB bytes\n",
              course.course_number.c_str(), course.title.c_str(),
              course.html_pages.size(),
              static_cast<unsigned long long>(db->blobs().stored_bytes()));

  // 3. Student-side: search the virtual library and check the course out.
  auto hits = alice.search("multimedia");
  std::printf("search 'multimedia' -> %zu hit(s); top: %s\n", hits.size(),
              hits.empty() ? "-" : hits[0].entry->course_number.c_str());
  alice.check_out("CS102", 2000).expect("check out");
  std::printf("alice checked out CS102\n");
  alice.check_in("CS102", 9000).expect("check in");

  auto report = alice.assessment();
  std::printf("assessment: %llu checkout(s), %llu distinct course(s), "
              "%lld us of study\n",
              static_cast<unsigned long long>(report.total_checkouts),
              static_cast<unsigned long long>(report.distinct_courses),
              static_cast<long long>(report.total_borrow_micros));

  // 4. The instructor edits the script under lock + SCM.
  shih.begin_edit("intro-multimedia", 10000).expect("begin edit");
  Bytes v2{'v', '2', ' ', 's', 'c', 'r', 'i', 'p', 't'};
  shih.finish_edit("intro-multimedia", v2, "tighten lecture 2", 11000)
      .expect("finish edit");
  std::printf("script now at version %llu\n",
              static_cast<unsigned long long>(
                  db->scm().head("script:intro-multimedia").expect("head").number));

  // 5. Referential-integrity alerts for the update.
  auto alerts = shih.alerts_for_script("intro-multimedia").expect("alerts");
  std::printf("update of intro-multimedia raised %zu alert(s):\n", alerts.size());
  for (const auto& alert : alerts) {
    std::printf("  [depth %zu] %s\n", alert.depth, alert.message.c_str());
  }
  return 0;
}
