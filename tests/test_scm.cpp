// SCM tests: version chains, exclusive write check-outs, line diffs.
#include <gtest/gtest.h>

#include "scm/scm_store.hpp"

namespace wdoc::scm {
namespace {

constexpr UserId kShih{1};
constexpr UserId kMa{2};

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }
Digest128 digest_of(const std::string& s) { return digest128(bytes_of(s)); }

TEST(Scm, AddItemCreatesVersionOne) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("script:intro", bytes_of("v1 text"), "shih", 100).is_ok());
  EXPECT_TRUE(scm.has_item("script:intro"));
  auto head = scm.head("script:intro");
  ASSERT_TRUE(head.is_ok());
  EXPECT_EQ(head.value().number, 1u);
  EXPECT_EQ(head.value().author, "shih");
  EXPECT_EQ(head.value().digest, digest_of("v1 text"));
  EXPECT_EQ(head.value().size, 7u);
  EXPECT_EQ(scm.add_item("script:intro", {}, "x", 0).code(), Errc::already_exists);
}

TEST(Scm, CheckOutCheckInBumpsVersion) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("one"), "shih", 100).is_ok());
  ASSERT_TRUE(scm.check_out("s", kShih, /*write=*/true, 200).is_ok());
  auto meta = scm.check_in("s", kShih, bytes_of("two"), "edit", 300);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().number, 2u);
  EXPECT_EQ(scm.head("s").value().digest, digest_of("two"));
  auto history = scm.history("s");
  ASSERT_TRUE(history.is_ok());
  ASSERT_EQ(history.value().size(), 2u);
  EXPECT_EQ(history.value()[0].digest, digest_of("one"));
}

TEST(Scm, CheckInWithoutWriteCheckoutRefused) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("one"), "shih", 100).is_ok());
  EXPECT_EQ(scm.check_in("s", kShih, bytes_of("x"), "c", 200).code(),
            Errc::lock_conflict);
  // Read checkout is not enough either.
  ASSERT_TRUE(scm.check_out("s", kShih, /*write=*/false, 150).is_ok());
  EXPECT_EQ(scm.check_in("s", kShih, bytes_of("x"), "c", 200).code(),
            Errc::lock_conflict);
}

TEST(Scm, WriteCheckoutIsExclusive) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("one"), "shih", 100).is_ok());
  ASSERT_TRUE(scm.check_out("s", kShih, true, 200).is_ok());
  EXPECT_EQ(scm.check_out("s", kMa, true, 210).code(), Errc::lock_conflict);
  // Readers can coexist with a writer.
  EXPECT_TRUE(scm.check_out("s", kMa, false, 220).is_ok());
}

TEST(Scm, SameUserCannotDoubleCheckout) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("one"), "shih", 100).is_ok());
  ASSERT_TRUE(scm.check_out("s", kShih, false, 200).is_ok());
  EXPECT_EQ(scm.check_out("s", kShih, false, 210).code(), Errc::already_exists);
}

TEST(Scm, IdenticalCheckInRejected) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("same"), "shih", 100).is_ok());
  ASSERT_TRUE(scm.check_out("s", kShih, true, 200).is_ok());
  EXPECT_EQ(scm.check_in("s", kShih, bytes_of("same"), "noop", 300).code(),
            Errc::conflict);
  // The write checkout survives the failed check-in.
  EXPECT_TRUE(scm.check_in("s", kShih, bytes_of("changed"), "edit", 310).is_ok());
}

TEST(Scm, CheckInReleasesWriteCheckout) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("one"), "shih", 100).is_ok());
  ASSERT_TRUE(scm.check_out("s", kShih, true, 200).is_ok());
  ASSERT_TRUE(scm.check_in("s", kShih, bytes_of("two"), "c", 300).is_ok());
  EXPECT_TRUE(scm.check_out("s", kMa, true, 400).is_ok());
}

TEST(Scm, VersionLookupGuards) {
  ScmStore scm;
  ASSERT_TRUE(scm.add_item("s", bytes_of("one"), "x", 0).is_ok());
  EXPECT_EQ(scm.head("ghost").code(), Errc::not_found);
  EXPECT_EQ(scm.history("ghost").code(), Errc::not_found);
}

TEST(Diff, IdenticalTexts) {
  DiffSummary d = diff_lines("a\nb\nc\n", "a\nb\nc\n");
  EXPECT_TRUE(d.identical);
  EXPECT_EQ(d.lines_common, 3u);
  EXPECT_EQ(d.lines_added, 0u);
  EXPECT_EQ(d.lines_removed, 0u);
}

TEST(Diff, AddedAndRemovedLines) {
  DiffSummary d = diff_lines("a\nb\nc\n", "a\nx\nb\n");
  // LCS of {a,b,c} and {a,x,b} is {a,b}.
  EXPECT_EQ(d.lines_common, 2u);
  EXPECT_EQ(d.lines_removed, 1u);  // c
  EXPECT_EQ(d.lines_added, 1u);    // x
  EXPECT_FALSE(d.identical);
}

TEST(Diff, EmptySides) {
  DiffSummary d = diff_lines("", "a\nb\n");
  EXPECT_EQ(d.lines_added, 2u);
  EXPECT_EQ(d.lines_removed, 0u);
  d = diff_lines("a\n", "");
  EXPECT_EQ(d.lines_removed, 1u);
  EXPECT_EQ(d.lines_added, 0u);
}

}  // namespace
}  // namespace wdoc::scm
