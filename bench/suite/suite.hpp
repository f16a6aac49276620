// Shared pieces of the benchmark driver (wdoc_suite): run options, the
// report every workload fills, sample statistics, and the Chrome
// trace-event writer used by traced runs.
//
// The suite measures the system from outside: it times calls into public
// functions of src/ and never changes them. Spans of a traced run are kept
// in memory and written once the measured phase is over.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wdoc::suite {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 4242;
  double seconds = 10.0;    // length of the measured phases together
  double scale = 1.0;       // size factor for data sets (--smoke uses 1/20)
  std::string trace_dir;    // non-empty: record spans, report per-layer metrics
  std::string work_dir;     // scratch space for database files
  bool setup_only = false;  // time the setup, report setup_s, measure nothing

  [[nodiscard]] bool traced() const { return !trace_dir.empty(); }
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;        // output checks that did not hold
  std::map<std::string, Metric> metrics;  // end to end
  // Per layer; filled by traced runs, except lecture.wall_s, which every
  // lecture run reports so run.py can compare traced and untraced runs.
  std::map<std::string, Metric> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
};

// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& v);
[[nodiscard]] double peak_rss_mb();

// The median over groups of each group's p-th percentile; empty groups are
// skipped. A run's tail or rate is taken per window (a second, a batch, a
// repetition) and the windows' median reported, so a stall of the shared
// host that spans a few windows does not decide the run.
[[nodiscard]] double median_of_percentiles(std::vector<std::vector<double>> groups, double p);

// How far the stages explain a typical operation: over the operations whose
// end-to-end time lies between its 45th and 55th percentile, the sum of
// each stage's median divided by the end-to-end median. stages[s][i] is
// stage s of operation i, total[i] its end-to-end time. Stage medians over
// all operations need not add up under skew; these should, near 1, unless
// a layer is missing from the split.
[[nodiscard]] double layer_sum_ratio(const std::vector<double>& total,
                                     const std::vector<std::vector<double>>& stages);

// Builds the workload's starting state with make() at least three times,
// and up to 200 times while the builds together took under 0.25 s, keeping
// the last build. setup_s is the median build time, so work moved into
// setup shows and one slow build does not decide it.
template <typename Make>
auto timed_setup(Make make, double& setup_s) {
  std::vector<double> times;
  decltype(make()) kept;
  while (times.size() < 3 || (sum(times) < 0.25 && times.size() < 200)) {
    kept = {};  // the previous build is released before the next is timed
    const std::int64_t t0 = now_ns();
    kept = make();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  setup_s = median(std::move(times));
  return kept;
}

struct TraceEvent {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t tid = 0;
};

// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one complete
// ("X") event per span plus `aggregates` under otherData.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<TraceEvent>& events,
                                      const std::map<std::string, double>& aggregates);

// Workloads. Each builds its inputs from opt.seed, measures for
// opt.seconds, checks the program's outputs, and returns the report. With
// opt.setup_only a workload returns right after its timed setup.
//
// gateway and commit measure in two phases of opt.seconds / 2 each: latency
// (p50_us, p90_us) under light load, then capacity (ops_per_s) under
// saturation, so every end-to-end figure is one a user of that path sees.
[[nodiscard]] Report run_gateway(const Options& opt);
[[nodiscard]] Report run_commit(const Options& opt);
[[nodiscard]] Report run_lecture(const Options& opt, bool swarm);

}  // namespace wdoc::suite
