#include "core/registrar.hpp"

#include <algorithm>

namespace wdoc::core {

Status Registrar::admit(UserId actor, UserId student, const std::string& program,
                        std::int64_t now) {
  WDOC_TRY(accounts_->require(actor, Privilege::admit_student));
  auto account = accounts_->get(student);
  if (!account) return account.status();
  if (account.value().role != Role::student) {
    return {Errc::invalid_argument, account.value().name + " is not a student"};
  }
  if (admissions_.contains(student)) {
    return {Errc::already_exists, account.value().name + " is already admitted"};
  }
  auto actor_account = accounts_->get(actor);
  AdmissionRecord record{student, program, now,
                         actor_account ? actor_account.value().name : "?"};
  admissions_.emplace(student, std::move(record));
  return Status::ok();
}

bool Registrar::is_admitted(UserId student) const {
  return admissions_.contains(student);
}

Status Registrar::enroll(UserId actor, UserId student, const std::string& course_number,
                         std::int64_t now) {
  if (actor != student) {
    // Enrolling someone else is an instructor/administrator action.
    WDOC_TRY(accounts_->require(actor, Privilege::record_grades));
  }
  if (!is_admitted(student)) {
    return {Errc::conflict, "student is not admitted"};
  }
  if (find_enrollment(student, course_number) != nullptr) {
    return {Errc::already_exists, "already enrolled in " + course_number};
  }
  enrollments_.push_back(Enrollment{student, course_number, now, std::nullopt, ""});
  return Status::ok();
}

std::vector<UserId> Registrar::roster(const std::string& course_number) const {
  std::vector<UserId> out;
  for (const Enrollment& e : enrollments_) {
    if (e.course_number == course_number) out.push_back(e.student);
  }
  return out;
}

Status Registrar::record_grade(UserId actor, UserId student,
                               const std::string& course_number, double grade) {
  WDOC_TRY(accounts_->require(actor, Privilege::record_grades));
  if (grade < 0.0 || grade > 4.0) {
    return {Errc::invalid_argument, "grade out of [0, 4.0]"};
  }
  for (Enrollment& e : enrollments_) {
    if (e.student == student && e.course_number == course_number) {
      auto actor_account = accounts_->get(actor);
      e.grade = grade;
      e.graded_by = actor_account ? actor_account.value().name : "?";
      return Status::ok();
    }
  }
  return {Errc::not_found, "no such enrollment"};
}

Result<Transcript> Registrar::transcript(UserId actor, UserId student) const {
  if (actor != student) {
    // "Checking transcript information" of others needs administrator
    // rights, or instructor rights for courses the actor graded.
    if (!accounts_->allowed(actor, Privilege::view_any_transcript)) {
      auto actor_account = accounts_->get(actor);
      if (!actor_account) return actor_account.error();
      bool graded_one = std::any_of(
          enrollments_.begin(), enrollments_.end(), [&](const Enrollment& e) {
            return e.student == student && e.graded_by == actor_account.value().name;
          });
      if (!graded_one) {
        return Error{Errc::lock_conflict,
                     "not allowed to view this student's transcript"};
      }
    }
  }
  Transcript t;
  t.student = student;
  double points = 0.0;
  std::size_t graded = 0;
  for (const Enrollment& e : enrollments_) {
    if (e.student != student) continue;
    t.courses.push_back(e);
    if (e.grade) {
      points += *e.grade;
      ++graded;
    } else {
      ++t.in_progress;
    }
  }
  t.gpa = graded == 0 ? 0.0 : points / static_cast<double>(graded);
  return t;
}

const Enrollment* Registrar::find_enrollment(UserId student,
                                             const std::string& course) const {
  for (const Enrollment& e : enrollments_) {
    if (e.student == student && e.course_number == course) return &e;
  }
  return nullptr;
}

}  // namespace wdoc::core
