// Registrar — the paper's Administration Criterion: "a virtual university
// environment needs to have administration facilities to keep admission
// records, transcripts, and so on. These administration tools should be
// available to administrators, instructors, and students (e.g., checking
// transcript information)."
//
// Admission records, per-course enrollment, grade recording, transcripts
// with GPA, and role-gated access: students see their own transcript,
// instructors the grades of courses they teach, administrators everything.
#pragma once

#include "core/accounts.hpp"

namespace wdoc::core {

struct AdmissionRecord {
  UserId student;
  std::string program;     // e.g. "computer science"
  std::int64_t admitted_at = 0;
  std::string admitted_by;  // administrator name
};

struct Enrollment {
  UserId student;
  std::string course_number;
  std::int64_t enrolled_at = 0;
  // Grade on a 0..4.0 scale; unset while the course is in progress.
  std::optional<double> grade;
  std::string graded_by;
};

struct Transcript {
  UserId student;
  std::vector<Enrollment> courses;
  double gpa = 0.0;          // over graded courses
  std::size_t in_progress = 0;
};

class Registrar {
 public:
  explicit Registrar(AccountRegistry& accounts) : accounts_(&accounts) {}

  // --- admission (administrator) ---------------------------------------
  [[nodiscard]] Status admit(UserId actor, UserId student, const std::string& program,
                             std::int64_t now);
  [[nodiscard]] bool is_admitted(UserId student) const;

  // --- enrollment --------------------------------------------------------
  // Students enroll themselves (must be admitted); instructors/admins may
  // enroll anyone.
  [[nodiscard]] Status enroll(UserId actor, UserId student,
                              const std::string& course_number, std::int64_t now);
  [[nodiscard]] std::vector<UserId> roster(const std::string& course_number) const;

  // --- grading (instructor+) ---------------------------------------------
  [[nodiscard]] Status record_grade(UserId actor, UserId student,
                                    const std::string& course_number, double grade);

  // --- transcripts ---------------------------------------------------------
  // Students may fetch their own; administrators anyone's; instructors
  // anyone's they have graded (simplification of "their courses").
  [[nodiscard]] Result<Transcript> transcript(UserId actor, UserId student) const;

  [[nodiscard]] std::size_t admission_count() const { return admissions_.size(); }
  [[nodiscard]] std::size_t enrollment_count() const { return enrollments_.size(); }

 private:
  [[nodiscard]] const Enrollment* find_enrollment(UserId student,
                                                  const std::string& course) const;

  AccountRegistry* accounts_;
  std::map<UserId, AdmissionRecord> admissions_;
  std::vector<Enrollment> enrollments_;
};

}  // namespace wdoc::core
