// Accounts and roles — the paper's user taxonomy ("types of users include
// students, instructors, and administrators", §1) with the privilege rules
// it states (e.g. §5: "An instructor has a privilege to add or delete
// document instances").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace wdoc::core {

enum class Role : std::uint8_t {
  student = 0,
  instructor = 1,
  administrator = 2,
};

[[nodiscard]] const char* role_name(Role r);

// Privileged operations gated by role.
enum class Privilege : std::uint8_t {
  browse_library = 0,        // everyone
  check_out_course = 1,      // everyone
  view_own_transcript = 2,   // everyone
  author_course = 3,         // instructor+
  manage_library = 4,        // instructor+: add/delete document instances
  broadcast_lecture = 5,     // instructor+
  record_grades = 6,         // instructor+
  admit_student = 7,         // administrator
  view_any_transcript = 8,   // administrator (instructors see their courses')
  manage_accounts = 9,       // administrator
};

[[nodiscard]] bool role_grants(Role role, Privilege p);

struct Account {
  UserId id;
  std::string name;
  Role role = Role::student;
  std::int64_t created_at = 0;
};

class AccountRegistry {
 public:
  // The registry boots with no accounts; the first administrator is created
  // unchecked (the bootstrap account), later ones need manage_accounts.
  [[nodiscard]] Result<UserId> create_account(const std::string& name, Role role,
                                              std::int64_t now,
                                              std::optional<UserId> actor = {});
  [[nodiscard]] Result<Account> get(UserId id) const;
  [[nodiscard]] std::size_t count() const { return accounts_.size(); }

  // Central permission check: unknown users hold nothing.
  [[nodiscard]] bool allowed(UserId id, Privilege p) const;
  [[nodiscard]] Status require(UserId id, Privilege p) const;

 private:
  std::map<UserId, Account> accounts_;
  std::set<std::string> names_;
  IdAllocator<UserId> ids_;
};

}  // namespace wdoc::core
