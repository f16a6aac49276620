// The Web document virtual library (paper §5).
//
// Instructors add/delete document instances (lecture notes); students check
// pages out and in, with no limit on concurrent check-outs; "the check
// in/out procedure serves as an assessment criteria to the study
// performance of a student". Retrieval is "according to matching keywords,
// instructor names, and course numbers/titles" — one SearchIndex answers
// all three (library/search_index.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "library/search_index.hpp"

namespace wdoc::library {

struct LibraryEntry {
  std::string course_number;  // unique key, e.g. "CS101"
  std::string title;
  std::string instructor;
  std::vector<std::string> keywords;
  std::string script_name;    // link into the document database
  std::string starting_url;   // link to the implementation
  std::int64_t added_at = 0;
};

struct LedgerRecord {
  std::string course_number;
  UserId student;
  std::int64_t checked_out_at = 0;
  std::optional<std::int64_t> checked_in_at;  // empty while still out
};

struct AssessmentReport {
  UserId student;
  std::uint64_t total_checkouts = 0;
  std::uint64_t distinct_courses = 0;
  std::uint64_t still_out = 0;
  std::int64_t total_borrow_micros = 0;  // completed loans only
};

class VirtualLibrary {
 public:
  VirtualLibrary() = default;
  // Move-only: the index points into entries_, which a copy would not own.
  VirtualLibrary(VirtualLibrary&&) = default;
  VirtualLibrary& operator=(VirtualLibrary&&) = default;

  // --- instructor operations --------------------------------------------
  [[nodiscard]] Status add_entry(const LibraryEntry& entry);
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  // --- retrieval ---------------------------------------------------------
  // Courses taught by `name`, in course-number order: the library's own
  // entries, valid for the library's life.
  [[nodiscard]] std::vector<const LibraryEntry*> by_instructor(
      const std::string& name) const {
    return index_.taught_by(name);
  }
  [[nodiscard]] std::optional<LibraryEntry> by_course_number(
      const std::string& course_number) const;
  // Keyword, instructor and course-number retrieval in one TF-IDF ranking;
  // at most `limit` hits (0 = all).
  [[nodiscard]] std::vector<SearchHit> search(const std::string& query,
                                              std::size_t limit = 0) const {
    return index_.search(query, limit);
  }
  [[nodiscard]] const std::map<std::string, LibraryEntry>& entries() const {
    return entries_;
  }

  // --- check-out / check-in ledger ----------------------------------------
  // "In general, there is no limitation of the number of Web pages to be
  // checked out" — the same student may hold many courses; re-checking-out
  // a course already held is rejected.
  [[nodiscard]] Status check_out(const std::string& course_number, UserId student,
                                 std::int64_t now);
  [[nodiscard]] Status check_in(const std::string& course_number, UserId student,
                                std::int64_t now);
  // Students holding the course, in ascending id order; walks every open loan.
  [[nodiscard]] std::vector<UserId> holders_of(const std::string& course_number) const;
  [[nodiscard]] AssessmentReport assess(UserId student) const;

 private:
  struct LoanKey {
    std::string course_number;
    std::uint64_t student = 0;
    bool operator==(const LoanKey&) const = default;
  };
  struct LoanKeyHash {
    std::size_t operator()(const LoanKey& k) const noexcept;
  };

  std::map<std::string, LibraryEntry> entries_;  // map nodes never move
  SearchIndex index_;                             // points into entries_
  std::vector<LedgerRecord> ledger_;
  // (course, student id) -> index of the open ledger row: check-out and
  // check-in are one hash lookup each, however many loans are open.
  std::unordered_map<LoanKey, std::size_t, LoanKeyHash> open_loans_;
};

}  // namespace wdoc::library
