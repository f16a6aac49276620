// Accounts/roles and registrar tests — the paper's Administration
// Criterion: admission records, transcripts, and role-gated access.
#include <gtest/gtest.h>

#include "core/registrar.hpp"

namespace wdoc::core {
namespace {

class AccountsFixture : public ::testing::Test {
 protected:
  AccountsFixture() : registrar_(accounts_) {
    admin_ = accounts_.create_account("registrar-office", Role::administrator, 100)
                 .expect("admin");
    instructor_ = accounts_
                      .create_account("shih", Role::instructor, 200, admin_)
                      .expect("instructor");
    student_ =
        accounts_.create_account("alice", Role::student, 300, admin_).expect("student");
  }
  AccountRegistry accounts_;
  Registrar registrar_;
  UserId admin_, instructor_, student_;
};

// --- roles & privileges ------------------------------------------------------

TEST(RoleGrants, PrivilegeMatrix) {
  EXPECT_TRUE(role_grants(Role::student, Privilege::browse_library));
  EXPECT_TRUE(role_grants(Role::student, Privilege::view_own_transcript));
  EXPECT_FALSE(role_grants(Role::student, Privilege::author_course));
  EXPECT_FALSE(role_grants(Role::student, Privilege::admit_student));
  EXPECT_TRUE(role_grants(Role::instructor, Privilege::manage_library));
  EXPECT_TRUE(role_grants(Role::instructor, Privilege::record_grades));
  EXPECT_FALSE(role_grants(Role::instructor, Privilege::manage_accounts));
  EXPECT_TRUE(role_grants(Role::administrator, Privilege::view_any_transcript));
  EXPECT_TRUE(role_grants(Role::administrator, Privilege::author_course));
}

TEST(AccountRegistry, BootstrapRequiresAdministrator) {
  AccountRegistry reg;
  EXPECT_EQ(reg.create_account("eve", Role::student, 1).code(),
            Errc::invalid_argument);
  EXPECT_TRUE(reg.create_account("root", Role::administrator, 1).is_ok());
}

TEST(AccountRegistry, LaterAccountsNeedManagePrivilege) {
  AccountRegistry reg;
  UserId admin = reg.create_account("root", Role::administrator, 1).expect("root");
  UserId teacher =
      reg.create_account("shih", Role::instructor, 2, admin).expect("shih");
  // The instructor cannot create accounts.
  EXPECT_EQ(reg.create_account("bob", Role::student, 3, teacher).code(),
            Errc::lock_conflict);
  // Missing actor.
  EXPECT_EQ(reg.create_account("bob", Role::student, 3).code(), Errc::lock_conflict);
  EXPECT_TRUE(reg.create_account("bob", Role::student, 3, admin).is_ok());
  EXPECT_EQ(reg.count(), 3u);
}

TEST_F(AccountsFixture, LookupAndListing) {
  EXPECT_EQ(accounts_.get(student_).value().role, Role::student);
  EXPECT_EQ(accounts_.get(instructor_).value().name, "shih");
  EXPECT_EQ(accounts_.get(UserId{999}).code(), Errc::not_found);
  EXPECT_EQ(accounts_.create_account("alice", Role::student, 1, admin_).code(),
            Errc::already_exists);
}

TEST_F(AccountsFixture, UnknownUserHoldsNothing) {
  EXPECT_FALSE(accounts_.allowed(UserId{999}, Privilege::browse_library));
  EXPECT_EQ(accounts_.require(UserId{999}, Privilege::browse_library).code(),
            Errc::not_found);
}

// --- registrar ---------------------------------------------------------------

TEST_F(AccountsFixture, AdmissionRequiresAdministrator) {
  EXPECT_EQ(registrar_.admit(instructor_, student_, "cs", 400).code(),
            Errc::lock_conflict);
  ASSERT_TRUE(registrar_.admit(admin_, student_, "cs", 400).is_ok());
  EXPECT_TRUE(registrar_.is_admitted(student_));
  EXPECT_EQ(registrar_.admit(admin_, student_, "cs", 401).code(),
            Errc::already_exists);
  // Only students can be admitted.
  EXPECT_EQ(registrar_.admit(admin_, instructor_, "cs", 402).code(),
            Errc::invalid_argument);
}

TEST_F(AccountsFixture, EnrollmentRules) {
  // Not admitted yet.
  EXPECT_EQ(registrar_.enroll(student_, student_, "CS101", 500).code(),
            Errc::conflict);
  ASSERT_TRUE(registrar_.admit(admin_, student_, "cs", 400).is_ok());
  ASSERT_TRUE(registrar_.enroll(student_, student_, "CS101", 500).is_ok());
  EXPECT_EQ(registrar_.enroll(student_, student_, "CS101", 501).code(),
            Errc::already_exists);
  // A student cannot enroll someone else.
  UserId bob = accounts_.create_account("bob", Role::student, 1, admin_).expect("bob");
  ASSERT_TRUE(registrar_.admit(admin_, bob, "cs", 401).is_ok());
  EXPECT_EQ(registrar_.enroll(student_, bob, "CS101", 502).code(),
            Errc::lock_conflict);
  // An instructor can.
  ASSERT_TRUE(registrar_.enroll(instructor_, bob, "CS101", 503).is_ok());
  EXPECT_EQ(registrar_.roster("CS101").size(), 2u);
}

TEST_F(AccountsFixture, GradingAndTranscript) {
  ASSERT_TRUE(registrar_.admit(admin_, student_, "cs", 400).is_ok());
  ASSERT_TRUE(registrar_.enroll(student_, student_, "CS101", 500).is_ok());
  ASSERT_TRUE(registrar_.enroll(student_, student_, "CS102", 510).is_ok());

  // Students cannot grade; grades are range-checked.
  EXPECT_EQ(registrar_.record_grade(student_, student_, "CS101", 4.0).code(),
            Errc::lock_conflict);
  EXPECT_EQ(registrar_.record_grade(instructor_, student_, "CS101", 4.5).code(),
            Errc::invalid_argument);
  EXPECT_EQ(registrar_.record_grade(instructor_, student_, "CS999", 4.0).code(),
            Errc::not_found);
  ASSERT_TRUE(registrar_.record_grade(instructor_, student_, "CS101", 3.5).is_ok());

  auto transcript = registrar_.transcript(student_, student_);
  ASSERT_TRUE(transcript.is_ok());
  EXPECT_EQ(transcript.value().courses.size(), 2u);
  EXPECT_EQ(transcript.value().in_progress, 1u);
  EXPECT_DOUBLE_EQ(transcript.value().gpa, 3.5);
}

TEST_F(AccountsFixture, TranscriptVisibility) {
  ASSERT_TRUE(registrar_.admit(admin_, student_, "cs", 400).is_ok());
  ASSERT_TRUE(registrar_.enroll(student_, student_, "CS101", 500).is_ok());

  // A stranger student can't view it.
  UserId bob = accounts_.create_account("bob", Role::student, 1, admin_).expect("bob");
  EXPECT_EQ(registrar_.transcript(bob, student_).code(), Errc::lock_conflict);
  // An instructor who has not graded this student can't either...
  UserId other =
      accounts_.create_account("ma", Role::instructor, 1, admin_).expect("ma");
  EXPECT_EQ(registrar_.transcript(other, student_).code(), Errc::lock_conflict);
  // ...but one who graded them can; and the administrator always can.
  ASSERT_TRUE(registrar_.record_grade(instructor_, student_, "CS101", 3.0).is_ok());
  EXPECT_TRUE(registrar_.transcript(instructor_, student_).is_ok());
  EXPECT_TRUE(registrar_.transcript(admin_, student_).is_ok());
}

TEST_F(AccountsFixture, EmptyTranscriptHasZeroGpa) {
  auto t = registrar_.transcript(student_, student_);
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t.value().courses.size(), 0u);
  EXPECT_DOUBLE_EQ(t.value().gpa, 0.0);
}

}  // namespace
}  // namespace wdoc::core
