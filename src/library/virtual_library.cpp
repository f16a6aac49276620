#include "library/virtual_library.hpp"

#include <algorithm>
#include <set>

#include "storage/database.hpp"

namespace wdoc::library {

namespace {

constexpr const char* kEntryTable = "wd_library_entry";
constexpr const char* kLoanTable = "wd_library_loan";

storage::Schema entry_schema() {
  using storage::Column;
  using storage::ValueType;
  return storage::Schema(kEntryTable,
                         {Column{"course_number", ValueType::text, false, false, false},
                          Column{"title", ValueType::text},
                          Column{"instructor", ValueType::text, true, false, true},
                          Column{"keywords", ValueType::text},
                          Column{"script_name", ValueType::text},
                          Column{"starting_url", ValueType::text},
                          Column{"added_at", ValueType::integer}},
                         /*primary_key=*/"course_number");
}

storage::Schema loan_schema() {
  using storage::Column;
  using storage::ValueType;
  return storage::Schema(kLoanTable,
                         {Column{"course_number", ValueType::text, false, false, true},
                          Column{"student", ValueType::integer, false, false, true},
                          Column{"checked_out_at", ValueType::integer, false},
                          Column{"checked_in_at", ValueType::integer}});
}

std::string join_keywords(const std::vector<std::string>& kws) {
  std::string out;
  for (const std::string& kw : kws) {
    if (!out.empty()) out += ",";
    out += kw;
  }
  return out;
}

std::vector<std::string> split_keywords(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

}  // namespace

Status VirtualLibrary::add_entry(const LibraryEntry& entry) {
  if (entry.course_number.empty()) {
    return {Errc::invalid_argument, "empty course number"};
  }
  auto [it, fresh] = entries_.emplace(entry.course_number, entry);
  if (!fresh) return {Errc::already_exists, "course exists: " + entry.course_number};
  index_.add_entry(it->second);
  return Status::ok();
}

Status VirtualLibrary::remove_entry(const std::string& course_number) {
  auto it = entries_.find(course_number);
  if (it == entries_.end()) return {Errc::not_found, "no course: " + course_number};
  // Outstanding loans keep their ledger rows; the entry disappears.
  index_.remove_entry(course_number);
  entries_.erase(it);
  return Status::ok();
}

Result<LibraryEntry> VirtualLibrary::get(const std::string& course_number) const {
  auto it = entries_.find(course_number);
  if (it == entries_.end()) return Error{Errc::not_found, "no course: " + course_number};
  return it->second;
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

std::vector<LedgerRecord> VirtualLibrary::ledger_of(UserId student) const {
  std::vector<LedgerRecord> out;
  for (const LedgerRecord& r : ledger_) {
    if (r.student == student) out.push_back(r);
  }
  return out;
}

std::vector<UserId> VirtualLibrary::holders_of(const std::string& course_number) const {
  std::vector<UserId> out;
  for (const auto& [key, _] : open_loans_) {
    if (key.course_number == course_number) out.push_back(UserId{key.student});
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status VirtualLibrary::save(storage::Database& db) const {
  using storage::Value;
  // Replace-all semantics: drop and recreate both tables.
  if (db.catalog().has_table(kLoanTable)) WDOC_TRY(db.drop_table(kLoanTable));
  if (db.catalog().has_table(kEntryTable)) WDOC_TRY(db.drop_table(kEntryTable));
  WDOC_TRY(db.create_table(entry_schema()));
  WDOC_TRY(db.create_table(loan_schema()));
  for (const auto& [_, e] : entries_) {
    WDOC_TRY(db.insert(kEntryTable,
                       {Value(e.course_number), Value(e.title), Value(e.instructor),
                        Value(join_keywords(e.keywords)), Value(e.script_name),
                        Value(e.starting_url), Value(e.added_at)})
                 .status());
  }
  for (const LedgerRecord& r : ledger_) {
    WDOC_TRY(db.insert(kLoanTable,
                       {Value(r.course_number),
                        Value(static_cast<std::int64_t>(r.student.value())),
                        Value(r.checked_out_at),
                        r.checked_in_at ? Value(*r.checked_in_at) : Value::null()})
                 .status());
  }
  return Status::ok();
}

Status VirtualLibrary::load(storage::Database& db) {
  const storage::Table* entries = db.catalog().table(kEntryTable);
  if (entries == nullptr) return {Errc::not_found, "no saved library"};
  entries_.clear();
  index_ = SearchIndex{};
  ledger_.clear();
  open_loans_.clear();

  Status failed = Status::ok();
  entries->scan([&](RowId, const std::vector<storage::Value>& row) {
    LibraryEntry e;
    e.course_number = row[0].as_text();
    e.title = row[1].is_null() ? "" : row[1].as_text();
    e.instructor = row[2].is_null() ? "" : row[2].as_text();
    e.keywords = split_keywords(row[3].is_null() ? "" : row[3].as_text());
    e.script_name = row[4].is_null() ? "" : row[4].as_text();
    e.starting_url = row[5].is_null() ? "" : row[5].as_text();
    e.added_at = row[6].is_null() ? 0 : row[6].as_int();
    Status s = add_entry(e);
    if (!s.is_ok()) failed = s;
    return failed.is_ok();
  });
  WDOC_TRY(failed);

  if (const storage::Table* loans = db.catalog().table(kLoanTable)) {
    loans->scan([&](RowId, const std::vector<storage::Value>& row) {
      LedgerRecord r;
      r.course_number = row[0].as_text();
      r.student = UserId{static_cast<std::uint64_t>(row[1].as_int())};
      r.checked_out_at = row[2].as_int();
      if (!row[3].is_null()) r.checked_in_at = row[3].as_int();
      if (!r.checked_in_at) {
        open_loans_.emplace(LoanKey{r.course_number, r.student.value()}, ledger_.size());
      }
      ledger_.push_back(std::move(r));
      return true;
    });
  }
  return Status::ok();
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
