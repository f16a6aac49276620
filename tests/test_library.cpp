// Virtual-library tests: keyword/instructor/course retrieval, ranked
// search (and that the order entries arrive in does not change it), the
// check-in/out ledger and the assessment report.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "library/virtual_library.hpp"
#include "workload/library_corpus.hpp"

namespace wdoc::library {
namespace {

constexpr UserId kAlice{1};
constexpr UserId kBob{2};

LibraryEntry course(const std::string& number, const std::string& title,
                    const std::string& instructor,
                    std::vector<std::string> keywords = {}) {
  LibraryEntry e;
  e.course_number = number;
  e.title = title;
  e.instructor = instructor;
  e.keywords = std::move(keywords);
  e.script_name = "script-" + number;
  e.starting_url = "http://mmu.edu/" + number;
  e.added_at = 100;
  return e;
}

TEST(Tokenize, LowercasesAndSplits) {
  EXPECT_EQ(tokenize("Introduction to Computer-Engineering!"),
            (std::vector<std::string>{"introduction", "to", "computer",
                                      "engineering"}));
  EXPECT_TRUE(tokenize("  ...  ").empty());
  EXPECT_EQ(tokenize("CS101"), std::vector<std::string>{"cs101"});
}

class LibraryFixture : public ::testing::Test {
 protected:
  LibraryFixture() {
    lib_.add_entry(course("CS101", "Introduction to Computer Engineering", "shih",
                          {"hardware", "logic"}))
        .expect("CS101");
    lib_.add_entry(course("CS102", "Introduction to Multimedia Computing", "ma",
                          {"multimedia", "video"}))
        .expect("CS102");
    lib_.add_entry(course("CS103", "Introduction to Engineering Drawing", "shih",
                          {"drawing", "cad"}))
        .expect("CS103");
  }
  VirtualLibrary lib_;
};

TEST_F(LibraryFixture, AddAndGet) {
  EXPECT_EQ(lib_.entry_count(), 3u);
  auto got = lib_.by_course_number("CS102");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->instructor, "ma");
  EXPECT_FALSE(lib_.by_course_number("CS999").has_value());
  EXPECT_EQ(lib_.add_entry(course("CS101", "dup", "x")).code(), Errc::already_exists);
  EXPECT_EQ(lib_.add_entry(course("", "empty", "x")).code(), Errc::invalid_argument);
}

TEST_F(LibraryFixture, KeywordSearchRanksByMatches) {
  auto hits = lib_.search("introduction engineering");
  ASSERT_GE(hits.size(), 3u);
  // CS101 and CS103 match both tokens ("introduction", "engineering");
  // CS102 matches only "introduction".
  EXPECT_GT(hits[0].score, hits.back().score);
  EXPECT_EQ(hits.back().entry->course_number, "CS102");
}

TEST_F(LibraryFixture, KeywordSearchFindsKeywordField) {
  auto hits = lib_.search("video");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].entry->course_number, "CS102");
}

TEST_F(LibraryFixture, SearchMissesReturnEmpty) {
  EXPECT_TRUE(lib_.search("quantum").empty());
  EXPECT_TRUE(lib_.search("").empty());
}

TEST_F(LibraryFixture, ByInstructor) {
  auto shih = lib_.by_instructor("shih");
  ASSERT_EQ(shih.size(), 2u);
  EXPECT_EQ(shih[0]->course_number, "CS101");
  EXPECT_EQ(shih[1]->course_number, "CS103");
  EXPECT_TRUE(lib_.by_instructor("nobody").empty());
}

TEST_F(LibraryFixture, ByCourseNumber) {
  ASSERT_TRUE(lib_.by_course_number("CS103").has_value());
  EXPECT_FALSE(lib_.by_course_number("CS999").has_value());
}

TEST_F(LibraryFixture, CombinedSearchPrioritizesExactCourse) {
  auto hits = lib_.search("CS102");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].entry->course_number, "CS102");
  EXPECT_GE(hits[0].score, 100.0);
}

TEST_F(LibraryFixture, CombinedSearchBoostsInstructorName) {
  auto hits = lib_.search("shih");
  ASSERT_EQ(hits.size(), 2u);
  for (const SearchHit& h : hits) {
    EXPECT_GE(h.score, 10.0);
  }
}

TEST_F(LibraryFixture, CheckOutAndIn) {
  ASSERT_TRUE(lib_.check_out("CS101", kAlice, 1000).is_ok());
  EXPECT_EQ(lib_.check_out("CS101", kAlice, 1100).code(), Errc::already_exists);
  EXPECT_EQ(lib_.check_out("CS999", kAlice, 1000).code(), Errc::not_found);
  // Unlimited different courses for one student.
  ASSERT_TRUE(lib_.check_out("CS102", kAlice, 1200).is_ok());
  // Other students can hold the same course simultaneously.
  ASSERT_TRUE(lib_.check_out("CS101", kBob, 1300).is_ok());
  EXPECT_EQ(lib_.holders_of("CS101").size(), 2u);

  ASSERT_TRUE(lib_.check_in("CS101", kAlice, 2000).is_ok());
  EXPECT_EQ(lib_.holders_of("CS101").size(), 1u);
  EXPECT_EQ(lib_.check_in("CS101", kAlice, 2100).code(), Errc::not_found);
  EXPECT_EQ(lib_.check_in("CS101", kBob, 500).code(), Errc::invalid_argument);

  // Holders come back in ascending student id, whatever the check-out
  // order: descending, then interleaved.
  for (std::uint64_t id : {50, 40, 30, 20, 10, 35, 15, 45, 25}) {
    ASSERT_TRUE(lib_.check_out("CS103", UserId{id}, 3000).is_ok());
  }
  std::vector<UserId> want;
  for (std::uint64_t id = 10; id <= 50; id += 5) want.push_back(UserId{id});
  EXPECT_EQ(lib_.holders_of("CS103"), want);
}

TEST_F(LibraryFixture, ReCheckoutAfterReturn) {
  ASSERT_TRUE(lib_.check_out("CS101", kAlice, 1000).is_ok());
  ASSERT_TRUE(lib_.check_in("CS101", kAlice, 2000).is_ok());
  ASSERT_TRUE(lib_.check_out("CS101", kAlice, 3000).is_ok());
  EXPECT_EQ(lib_.assess(kAlice).total_checkouts, 2u);
  EXPECT_EQ(lib_.assess(kAlice).still_out, 1u);
}

TEST_F(LibraryFixture, AssessmentAggregatesStudy) {
  // "The check in/out procedure serves as an assessment criteria to the
  // study performance of a student."
  ASSERT_TRUE(lib_.check_out("CS101", kAlice, 1000).is_ok());
  ASSERT_TRUE(lib_.check_in("CS101", kAlice, 5000).is_ok());
  ASSERT_TRUE(lib_.check_out("CS102", kAlice, 6000).is_ok());
  ASSERT_TRUE(lib_.check_in("CS102", kAlice, 7000).is_ok());
  ASSERT_TRUE(lib_.check_out("CS101", kAlice, 8000).is_ok());  // still out

  AssessmentReport report = lib_.assess(kAlice);
  EXPECT_EQ(report.total_checkouts, 3u);
  EXPECT_EQ(report.distinct_courses, 2u);
  EXPECT_EQ(report.still_out, 1u);
  EXPECT_EQ(report.total_borrow_micros, 5000);  // 4000 + 1000

  AssessmentReport empty = lib_.assess(UserId{42});
  EXPECT_EQ(empty.total_checkouts, 0u);
}

TEST(Library, TermFrequencyBreaksTies) {
  VirtualLibrary lib;
  lib.add_entry(course("A1", "video", "x", {"video", "video editing"}))
      .expect("A1");
  lib.add_entry(course("A2", "video", "y", {})).expect("A2");
  auto hits = lib.search("video");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].entry->course_number, "A1");  // higher tf
  EXPECT_GT(hits[0].score, hits[1].score);
}

// A library filled in a seeded random order, repeats refused, ranks every
// query exactly like one filled in course-number order: course ids follow
// insertion order and must never leak into the ranking.
TEST(Library, RandomInsertionOrderRanksLikeSortedOne) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    workload::LibraryCorpusConfig cfg;
    cfg.seed = seed;
    cfg.courses = 20 + rng.uniform(100);
    cfg.instructors = 1 + rng.uniform(20);
    const auto entries = workload::library_corpus(cfg);

    VirtualLibrary live;
    for (std::size_t op = 0; op < 2 * cfg.courses; ++op) {
      (void)live.add_entry(entries[rng.uniform(entries.size())]);
    }
    VirtualLibrary fresh;
    for (const auto& [_, e] : live.entries()) fresh.add_entry(e).expect("fresh add");

    std::vector<std::string> queries = workload::query_pool(cfg, 40);
    for (const auto& e : entries) {
      queries.push_back(e.course_number);
      queries.push_back(e.instructor);
    }
    for (const std::string& q : queries) {
      const auto got = live.search(q);
      const auto want = fresh.search(q);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " query '" << q << "'";
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].entry->course_number, want[i].entry->course_number)
            << "seed " << seed << " query '" << q << "' rank " << i;
        ASSERT_EQ(got[i].score, want[i].score) << "seed " << seed << " query '" << q << "'";
        ASSERT_EQ(got[i].instances, 1u);
      }
      const auto taught = live.by_instructor(q);
      ASSERT_EQ(taught.size(), fresh.by_instructor(q).size());
      ASSERT_TRUE(std::is_sorted(taught.begin(), taught.end(),
                                 [](const LibraryEntry* a, const LibraryEntry* b) {
                                   return a->course_number < b->course_number;
                                 }));
    }
  }
}

}  // namespace
}  // namespace wdoc::library
