#include "library/virtual_library.hpp"

#include <algorithm>
#include <set>

namespace wdoc::library {

Status VirtualLibrary::add_entry(const LibraryEntry& entry) {
  if (entry.course_number.empty()) {
    return {Errc::invalid_argument, "empty course number"};
  }
  auto [it, fresh] = entries_.emplace(entry.course_number, entry);
  if (!fresh) return {Errc::already_exists, "course exists: " + entry.course_number};
  index_.add_entry(it->second);
  return Status::ok();
}

std::optional<LibraryEntry> VirtualLibrary::by_course_number(
    const std::string& course_number) const {
  auto it = entries_.find(course_number);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::size_t VirtualLibrary::LoanKeyHash::operator()(const LoanKey& k) const noexcept {
  return std::hash<std::string>{}(k.course_number) ^ (k.student * 0x9e3779b97f4a7c15ULL);
}

Status VirtualLibrary::check_out(const std::string& course_number, UserId student,
                                 std::int64_t now) {
  if (!index_.id_of(course_number)) {
    return {Errc::not_found, "no course: " + course_number};
  }
  if (!open_loans_.try_emplace(LoanKey{course_number, student.value()}, ledger_.size())
           .second) {
    return {Errc::already_exists, "already checked out"};
  }
  ledger_.push_back(LedgerRecord{course_number, student, now, std::nullopt});
  return Status::ok();
}

Status VirtualLibrary::check_in(const std::string& course_number, UserId student,
                                std::int64_t now) {
  auto it = open_loans_.find(LoanKey{course_number, student.value()});
  if (it == open_loans_.end()) {
    return {Errc::not_found, "no open loan for this course/student"};
  }
  LedgerRecord& record = ledger_[it->second];
  if (now < record.checked_out_at) {
    return {Errc::invalid_argument, "check-in before check-out"};
  }
  record.checked_in_at = now;
  open_loans_.erase(it);
  return Status::ok();
}

std::vector<UserId> VirtualLibrary::holders_of(const std::string& course_number) const {
  std::vector<UserId> out;
  for (const auto& [key, _] : open_loans_) {
    if (key.course_number == course_number) out.push_back(UserId{key.student});
  }
  std::sort(out.begin(), out.end());
  return out;
}

AssessmentReport VirtualLibrary::assess(UserId student) const {
  AssessmentReport report;
  report.student = student;
  std::set<std::string> distinct;
  for (const LedgerRecord& r : ledger_) {
    if (r.student != student) continue;
    ++report.total_checkouts;
    distinct.insert(r.course_number);
    if (r.checked_in_at) {
      report.total_borrow_micros += *r.checked_in_at - r.checked_out_at;
    } else {
      ++report.still_out;
    }
  }
  report.distinct_courses = distinct.size();
  return report;
}

}  // namespace wdoc::library
