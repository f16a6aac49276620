// Role-specific session APIs over a WebDocDb station — the programmatic
// equivalents of the paper's instructor tools (FrontPage-authored courses,
// the annotation daemon, the QA tool) and the student's Web-browser-side
// daemons (library search, course check-out, lecture fetch).
#pragma once

#include "core/webdoc_db.hpp"
#include "docmodel/traversal.hpp"

namespace wdoc::core {

// Everything needed to author one course in one call.
struct CourseSpec {
  std::string script_name;
  std::string course_number;
  std::string title;
  std::string keywords;
  std::string description;
  std::string starting_url;
  std::vector<std::pair<std::string, std::string>> html_pages;  // path, body
  struct ResourceSpec {
    Digest128 digest;
    std::uint64_t size = 0;
    blob::MediaType type = blob::MediaType::other;
    std::optional<std::int64_t> playout_ms;
  };
  std::vector<ResourceSpec> resources;
  std::int64_t now = 0;
};

class InstructorSession {
 public:
  InstructorSession(WebDocDb& db, UserId user, std::string name)
      : db_(&db), user_(user), name_(std::move(name)) {}

  [[nodiscard]] UserId user() const { return user_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Creates script + implementation + pages + resources, registers the SCM
  // item and lock tree, and lists the course in the virtual library.
  [[nodiscard]] Status author_course(const CourseSpec& spec);

  // Adds an annotation (different instructors annotate the same
  // implementation independently).
  [[nodiscard]] Status annotate(const std::string& starting_url,
                                const docmodel::AnnotationDoc& doc,
                                const std::string& annotation_name, std::int64_t now);

  // Records a QA session and an optional bug report against it.
  [[nodiscard]] Status record_test(const std::string& starting_url,
                                   const docmodel::TraversalLog& log,
                                   const std::string& test_name, std::int64_t now,
                                   const std::string& bug_description = "");

  // Collaborative editing: lock + SCM check-out, edit, check-in + unlock.
  [[nodiscard]] Status begin_edit(const std::string& script_name, std::int64_t now);
  [[nodiscard]] Status finish_edit(const std::string& script_name, Bytes new_content,
                                   const std::string& comment, std::int64_t now);

  // Alerts produced by an update to this script.
  [[nodiscard]] Result<std::vector<integrity::Alert>> alerts_for_script(
      const std::string& script_name);

 private:
  WebDocDb* db_;
  UserId user_;
  std::string name_;
};

class StudentSession {
 public:
  StudentSession(WebDocDb& db, UserId user, std::string name)
      : db_(&db), user_(user), name_(std::move(name)) {}

  [[nodiscard]] UserId user() const { return user_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // --- virtual library ------------------------------------------------------
  // Ranked like the HTTP gateway's GET /search (library::SearchIndex).
  [[nodiscard]] std::vector<library::SearchHit> search(const std::string& query) const;
  [[nodiscard]] Status check_out(const std::string& course_number, std::int64_t now);
  [[nodiscard]] Status check_in(const std::string& course_number, std::int64_t now);
  [[nodiscard]] library::AssessmentReport assessment() const;

 private:
  WebDocDb* db_;
  UserId user_;
  std::string name_;
};

}  // namespace wdoc::core
