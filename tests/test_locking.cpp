// Hierarchical lock tests: the paper's compatibility table (container read
// locks leave components readable, parents fully accessible), upgrades,
// plus a parameterized sweep over every (relation, held, requested)
// combination.
#include <gtest/gtest.h>

#include "locking/hierarchy_lock.hpp"

namespace wdoc::locking {
namespace {

constexpr UserId kShih{1};
constexpr UserId kMa{2};
constexpr UserId kHuang{3};

// Fixture hierarchy:
//   script(1)
//     impl(2)
//       html(3), prog(4)
//     impl2(5)
class LockFixture : public ::testing::Test {
 protected:
  LockFixture() {
    mgr_.add_node(script_, std::nullopt).expect("script");
    mgr_.add_node(impl_, script_).expect("impl");
    mgr_.add_node(html_, impl_).expect("html");
    mgr_.add_node(prog_, impl_).expect("prog");
    mgr_.add_node(impl2_, script_).expect("impl2");
  }
  HierarchyLockManager mgr_;
  LockResourceId script_{1}, impl_{2}, html_{3}, prog_{4}, impl2_{5};
};

// Would `user` get `mode` on `node` right now? Asked of a copy, so the
// manager under test keeps exactly the locks it had.
bool grants(HierarchyLockManager mgr, UserId user, LockResourceId node, Access mode) {
  return mgr.lock(user, node, mode).is_ok();
}

TEST_F(LockFixture, ReadLockedContainerComponentsReadableNotWritable) {
  // The paper's rule, verbatim: container read-locked by one user =>
  // components (and the container) readable by others, not writable.
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::read).is_ok());
  EXPECT_TRUE(grants(mgr_, kMa, impl_, Access::read));
  EXPECT_TRUE(grants(mgr_, kMa, html_, Access::read));
  EXPECT_FALSE(grants(mgr_, kMa, impl_, Access::write));
  EXPECT_FALSE(grants(mgr_, kMa, html_, Access::write));
  EXPECT_EQ(mgr_.lock(kMa, html_, Access::write).code(), Errc::lock_conflict);
}

TEST_F(LockFixture, ParentsOfLockedContainerFullyAccessible) {
  // "the parent objects of the container can have both read and write
  // access by another user."
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::read).is_ok());
  EXPECT_TRUE(grants(mgr_, kMa, script_, Access::read));
  EXPECT_TRUE(grants(mgr_, kMa, script_, Access::write));
  ASSERT_TRUE(mgr_.lock(kMa, script_, Access::write).is_ok());
}

TEST_F(LockFixture, WriteLockExcludesSubtreeEntirely) {
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::write).is_ok());
  EXPECT_FALSE(grants(mgr_, kMa, impl_, Access::read));
  EXPECT_FALSE(grants(mgr_, kMa, html_, Access::read));
  EXPECT_FALSE(grants(mgr_, kMa, prog_, Access::write));
  // Sibling subtree and parent remain free.
  EXPECT_TRUE(grants(mgr_, kMa, impl2_, Access::write));
  EXPECT_TRUE(grants(mgr_, kMa, script_, Access::write));
}

TEST_F(LockFixture, DisjointSubtreesIndependent) {
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::write).is_ok());
  ASSERT_TRUE(mgr_.lock(kMa, impl2_, Access::write).is_ok());
  EXPECT_FALSE(grants(mgr_, kHuang, impl_, Access::read));
  EXPECT_FALSE(grants(mgr_, kHuang, impl2_, Access::read));
}

TEST_F(LockFixture, OwnLocksNeverSelfConflict) {
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::write).is_ok());
  EXPECT_TRUE(grants(mgr_, kShih, html_, Access::write));
  ASSERT_TRUE(mgr_.lock(kShih, html_, Access::write).is_ok());
}

TEST_F(LockFixture, ReentrantLockAndUpgrade) {
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::read).is_ok());
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::read).is_ok());  // re-entrant
  // Upgrade succeeds while no other user constrains the node.
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::write).is_ok());
  // The write lock now keeps other readers out.
  EXPECT_FALSE(grants(mgr_, kMa, impl_, Access::read));
}

TEST_F(LockFixture, UpgradeBlockedByOtherReader) {
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::read).is_ok());
  ASSERT_TRUE(mgr_.lock(kMa, impl_, Access::read).is_ok());
  EXPECT_EQ(mgr_.lock(kShih, impl_, Access::write).code(), Errc::lock_conflict);
  // Shih still holds the read lock: with Ma gone, others may read but not
  // write.
  ASSERT_TRUE(mgr_.unlock(kMa, impl_).is_ok());
  EXPECT_TRUE(grants(mgr_, kHuang, impl_, Access::read));
  EXPECT_FALSE(grants(mgr_, kHuang, impl_, Access::write));
}

TEST_F(LockFixture, AncestorReadLockCoversDescendantRequest) {
  ASSERT_TRUE(mgr_.lock(kShih, script_, Access::read).is_ok());
  // html is a component of the read-locked script container.
  EXPECT_TRUE(grants(mgr_, kMa, html_, Access::read));
  EXPECT_FALSE(grants(mgr_, kMa, html_, Access::write));
}

TEST_F(LockFixture, UnlockRestoresAccess) {
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::write).is_ok());
  EXPECT_FALSE(grants(mgr_, kMa, html_, Access::read));
  ASSERT_TRUE(mgr_.unlock(kShih, impl_).is_ok());
  EXPECT_TRUE(grants(mgr_, kMa, html_, Access::write));
  EXPECT_EQ(mgr_.unlock(kShih, impl_).code(), Errc::not_found);
}

TEST_F(LockFixture, NodeLifecycleGuards) {
  EXPECT_EQ(mgr_.add_node(script_, std::nullopt).code(), Errc::already_exists);
  EXPECT_EQ(mgr_.add_node(LockResourceId{99}, LockResourceId{100}).code(),
            Errc::not_found);
  EXPECT_EQ(mgr_.add_node(LockResourceId{}, std::nullopt).code(), Errc::invalid_argument);
  EXPECT_TRUE(mgr_.has_node(html_));
  EXPECT_FALSE(mgr_.has_node(LockResourceId{99}));
  EXPECT_EQ(mgr_.lock(kShih, LockResourceId{99}, Access::read).code(), Errc::not_found);
}

TEST_F(LockFixture, ThreeInstructorsCollaborate) {
  // Shih edits impl, Ma edits impl2, Huang reads the whole script.
  ASSERT_TRUE(mgr_.lock(kShih, impl_, Access::write).is_ok());
  ASSERT_TRUE(mgr_.lock(kMa, impl2_, Access::write).is_ok());
  // Huang cannot read the script container (its components are being
  // written), but can read nothing-locked leaves of other documents.
  EXPECT_TRUE(grants(mgr_, kHuang, script_, Access::read));  // parents stay free
  ASSERT_TRUE(mgr_.lock(kHuang, script_, Access::read).is_ok());
  // With the script read-locked, new writers inside are refused...
  EXPECT_FALSE(grants(mgr_, kMa, html_, Access::write));
  // ...but existing write locks persist and re-lock fine (own locks).
  EXPECT_TRUE(grants(mgr_, kShih, impl_, Access::write));
}

// --- exhaustive compatibility-table sweep ------------------------------------

struct CompatCase {
  Relation rel;
  Access held;
  Access requested;
  bool expect_granted;
};

class CompatTable : public ::testing::TestWithParam<CompatCase> {};

TEST_P(CompatTable, PaperTable) {
  const CompatCase& c = GetParam();
  EXPECT_EQ(paper_compatible(c.rel, c.held, c.requested), c.expect_granted);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CompatTable,
    ::testing::Values(
        // self: R held -> R ok, W no; W held -> nothing.
        CompatCase{Relation::self, Access::read, Access::read, true},
        CompatCase{Relation::self, Access::read, Access::write, false},
        CompatCase{Relation::self, Access::write, Access::read, false},
        CompatCase{Relation::self, Access::write, Access::write, false},
        // component: same as self.
        CompatCase{Relation::component, Access::read, Access::read, true},
        CompatCase{Relation::component, Access::read, Access::write, false},
        CompatCase{Relation::component, Access::write, Access::read, false},
        CompatCase{Relation::component, Access::write, Access::write, false},
        // parent: everything allowed.
        CompatCase{Relation::parent, Access::read, Access::read, true},
        CompatCase{Relation::parent, Access::read, Access::write, true},
        CompatCase{Relation::parent, Access::write, Access::read, true},
        CompatCase{Relation::parent, Access::write, Access::write, true},
        // disjoint: everything allowed.
        CompatCase{Relation::disjoint, Access::read, Access::read, true},
        CompatCase{Relation::disjoint, Access::read, Access::write, true},
        CompatCase{Relation::disjoint, Access::write, Access::read, true},
        CompatCase{Relation::disjoint, Access::write, Access::write, true}),
    [](const ::testing::TestParamInfo<CompatCase>& info) {
      const CompatCase& c = info.param;
      auto rel = [&] {
        switch (c.rel) {
          case Relation::self: return "self";
          case Relation::component: return "component";
          case Relation::parent: return "parent";
          case Relation::disjoint: return "disjoint";
        }
        return "?";
      }();
      return std::string(rel) + "_" + access_name(c.held) + "_then_" +
             access_name(c.requested);
    });

// The manager's behaviour must agree with the table cell-by-cell on a
// concrete two-level hierarchy.
class CompatManagerAgreement : public ::testing::TestWithParam<CompatCase> {};

TEST_P(CompatManagerAgreement, ManagerMatchesTable) {
  const CompatCase& c = GetParam();
  HierarchyLockManager mgr;
  LockResourceId parent{1}, container{2}, component{3}, stranger{4};
  mgr.add_node(parent, std::nullopt).expect("parent");
  mgr.add_node(container, parent).expect("container");
  mgr.add_node(component, container).expect("component");
  mgr.add_node(stranger, std::nullopt).expect("stranger");

  ASSERT_TRUE(mgr.lock(kShih, container, c.held).is_ok());
  LockResourceId target = [&] {
    switch (c.rel) {
      case Relation::self: return container;
      case Relation::component: return component;
      case Relation::parent: return parent;
      case Relation::disjoint: return stranger;
    }
    return stranger;
  }();
  EXPECT_EQ(grants(mgr, kMa, target, c.requested), c.expect_granted);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CompatManagerAgreement,
    ::testing::Values(
        CompatCase{Relation::self, Access::read, Access::read, true},
        CompatCase{Relation::self, Access::read, Access::write, false},
        CompatCase{Relation::self, Access::write, Access::read, false},
        CompatCase{Relation::self, Access::write, Access::write, false},
        CompatCase{Relation::component, Access::read, Access::read, true},
        CompatCase{Relation::component, Access::read, Access::write, false},
        CompatCase{Relation::component, Access::write, Access::read, false},
        CompatCase{Relation::component, Access::write, Access::write, false},
        CompatCase{Relation::parent, Access::read, Access::read, true},
        CompatCase{Relation::parent, Access::read, Access::write, true},
        CompatCase{Relation::parent, Access::write, Access::read, true},
        CompatCase{Relation::parent, Access::write, Access::write, true},
        CompatCase{Relation::disjoint, Access::read, Access::read, true},
        CompatCase{Relation::disjoint, Access::read, Access::write, true},
        CompatCase{Relation::disjoint, Access::write, Access::read, true},
        CompatCase{Relation::disjoint, Access::write, Access::write, true}),
    [](const ::testing::TestParamInfo<CompatCase>& info) {
      return "case" + std::to_string(info.index);
    });

}  // namespace
}  // namespace wdoc::locking
