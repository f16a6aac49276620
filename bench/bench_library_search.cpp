// E9 — library_search: the Web-savvy virtual library's three retrieval
// modes (claim C8): matching keywords, instructor names, and course
// numbers/titles — plus the check-out ledger.
//
// Corpus sizes sweep 100..100000 entries. Paper shape: course-number
// lookups are index hits (flat, sub-microsecond); instructor lookups scale
// with the instructor's own course count; keyword search (`search`, the
// TF-IDF ranking the gateway's /search also uses) scales with the
// posting-list length of the query terms; a check-out or check-in is one
// hash lookup in the open loans, so its cost stays flat from one open loan
// (BM_CheckOutIn) to 10^5 (BM_CheckOutInWithOpenLoans). BM_BuildLibrary
// times add_entry over a whole catalog.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.hpp"
#include "library/virtual_library.hpp"

using namespace wdoc;
using namespace wdoc::library;

namespace {

const char* kTopics[] = {"multimedia", "database", "network",  "graphics",
                         "compiler",   "operating", "software", "hardware"};
const char* kInstructors[] = {"shih", "ma", "huang", "chen", "lin", "wang"};

VirtualLibrary build_library(std::size_t entries, std::uint64_t seed = 11) {
  VirtualLibrary lib;
  Rng rng(seed);
  for (std::size_t i = 0; i < entries; ++i) {
    LibraryEntry e;
    e.course_number = "CS" + std::to_string(1000 + i);
    const char* topic = kTopics[rng.uniform(std::size(kTopics))];
    const char* topic2 = kTopics[rng.uniform(std::size(kTopics))];
    e.title = std::string("Introduction to ") + topic + " systems";
    e.instructor = kInstructors[rng.uniform(std::size(kInstructors))];
    e.keywords = {topic, topic2, "virtual course"};
    e.script_name = "script-" + e.course_number;
    e.starting_url = "http://mmu.edu/" + e.course_number;
    lib.add_entry(e).expect("entry");
  }
  return lib;
}

void BM_KeywordSearch(benchmark::State& state) {
  VirtualLibrary lib = build_library(static_cast<std::size_t>(state.range(0)));
  std::size_t hits = 0;
  for (auto _ : state) {
    auto result = lib.search("multimedia systems");
    hits = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeywordSearch)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_InstructorLookup(benchmark::State& state) {
  VirtualLibrary lib = build_library(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = lib.by_instructor("shih");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InstructorLookup)->Arg(1000)->Arg(100000);

void BM_CourseNumberLookup(benchmark::State& state) {
  VirtualLibrary lib = build_library(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = lib.by_course_number("CS1500");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CourseNumberLookup)->Arg(1000)->Arg(100000);

void BM_CheckOutIn(benchmark::State& state) {
  VirtualLibrary lib = build_library(1000);
  std::uint64_t student = 0;
  for (auto _ : state) {
    UserId u{++student};
    lib.check_out("CS1500", u, 1000).expect("out");
    lib.check_in("CS1500", u, 2000).expect("in");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2));
}
BENCHMARK(BM_CheckOutIn);

// The same pair with `range(0)` other loans open on 1,000 courses, as a
// shard of the HTTP gateway holds after a long run.
void BM_CheckOutInWithOpenLoans(benchmark::State& state) {
  VirtualLibrary lib = build_library(1000);
  const auto open = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t s = 1; s <= open; ++s) {
    lib.check_out("CS" + std::to_string(1000 + s % 1000), UserId{s}, 1000).expect("open");
  }
  std::uint64_t student = open;
  for (auto _ : state) {
    UserId u{++student};
    lib.check_out("CS1500", u, 1000).expect("out");
    lib.check_in("CS1500", u, 2000).expect("in");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2));
}
BENCHMARK(BM_CheckOutInWithOpenLoans)->Arg(1000)->Arg(100000);

void BM_BuildLibrary(benchmark::State& state) {
  for (auto _ : state) {
    VirtualLibrary lib = build_library(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(lib.entry_count());
  }
}
BENCHMARK(BM_BuildLibrary)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E9: virtual library retrieval modes ===\n\n");
  std::printf("%10s %14s %16s %16s\n", "entries", "kw hits", "instructor hits",
              "course-nr hit");
  for (std::size_t n : {100u, 1000u, 10000u, 100000u}) {
    VirtualLibrary lib = build_library(n);
    auto kw = lib.search("multimedia systems");
    auto instr = lib.by_instructor("shih");
    bool exact = lib.by_course_number("CS" + std::to_string(1000 + n / 2)).has_value();
    std::printf("%10zu %14zu %16zu %16s\n", n, kw.size(), instr.size(),
                exact ? "yes" : "no");
  }
  std::printf("\ncombined ranked search, 10000 entries, query 'shih':\n");
  {
    VirtualLibrary lib = build_library(10000);
    auto hits = lib.search("shih");
    std::printf("  %zu hits; top scored %.1f (instructor boost)\n", hits.size(),
                hits.empty() ? 0.0 : hits[0].score);
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
