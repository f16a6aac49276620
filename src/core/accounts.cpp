#include "core/accounts.hpp"

namespace wdoc::core {

const char* role_name(Role r) {
  switch (r) {
    case Role::student: return "student";
    case Role::instructor: return "instructor";
    case Role::administrator: return "administrator";
  }
  return "?";
}

bool role_grants(Role role, Privilege p) {
  switch (p) {
    case Privilege::browse_library:
    case Privilege::check_out_course:
    case Privilege::view_own_transcript:
      return true;
    case Privilege::author_course:
    case Privilege::manage_library:
    case Privilege::broadcast_lecture:
    case Privilege::record_grades:
      return role == Role::instructor || role == Role::administrator;
    case Privilege::admit_student:
    case Privilege::view_any_transcript:
    case Privilege::manage_accounts:
      return role == Role::administrator;
  }
  return false;
}

Result<UserId> AccountRegistry::create_account(const std::string& name, Role role,
                                               std::int64_t now,
                                               std::optional<UserId> actor) {
  if (name.empty()) return Error{Errc::invalid_argument, "empty account name"};
  if (names_.contains(name)) {
    return Error{Errc::already_exists, "account exists: " + name};
  }
  if (accounts_.empty()) {
    // Bootstrap: the first account must be the administrator installing the
    // system; no actor check possible yet.
    if (role != Role::administrator) {
      return Error{Errc::invalid_argument,
                   "the first account must be an administrator"};
    }
  } else {
    if (!actor) return Error{Errc::lock_conflict, "account creation needs an actor"};
    WDOC_TRY(require(*actor, Privilege::manage_accounts));
  }
  UserId id = ids_.next();
  accounts_.emplace(id, Account{id, name, role, now});
  names_.insert(name);
  return id;
}

Result<Account> AccountRegistry::get(UserId id) const {
  auto it = accounts_.find(id);
  if (it == accounts_.end()) return Error{Errc::not_found, "no such account"};
  return it->second;
}

bool AccountRegistry::allowed(UserId id, Privilege p) const {
  auto it = accounts_.find(id);
  if (it == accounts_.end()) return false;
  return role_grants(it->second.role, p);
}

Status AccountRegistry::require(UserId id, Privilege p) const {
  if (allowed(id, p)) return Status::ok();
  auto it = accounts_.find(id);
  if (it == accounts_.end()) {
    return {Errc::not_found, "unknown user " + std::to_string(id.value())};
  }
  return {Errc::lock_conflict,
          it->second.name + " (" + role_name(it->second.role) +
              ") lacks the required privilege"};
}

}  // namespace wdoc::core
