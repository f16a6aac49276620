// wdoc_obs — declarative service-level objectives with multi-window
// burn-rate alerts.
//
// Every objective is a good/total ratio that must stay at or above a
// target. Two shapes plug into that frame:
//   * latency:       good = histogram observations at or under a threshold
//                    (rounded down to the histogram's power-of-two bucket
//                    boundary, so the measured objective is never laxer
//                    than the declared one);
//   * availability:  good = total − bad, from two counters.
//
// The engine keeps a ring of cumulative (good, total) points, one per
// evaluation, and derives windowed ratios by subtracting ring entries — no
// per-request work at all; the hot path touches only the instruments it
// already touches. The burn rate of a window is
//
//     burn = bad_fraction(window) / (1 − target)
//
// i.e. how many times faster than "exactly on target" the error budget is
// being spent. An alert fires only when BOTH a short and a long window
// exceed a burn threshold (the multi-window AND of Google's SRE workbook):
// the long window proves the problem is sustained, the short window makes
// the alert reset quickly once the problem stops. Windows count
// evaluations, and their shape is fixed (constants in slo.cpp):
//
//   severity  short window     long window      burn threshold
//   fast      5 evaluations    60 evaluations   14.4
//   slow      30 evaluations   60 evaluations   6.0
//
// Only the evaluation period is settable; the engine reports it, and its
// caller (the gateway) evaluates once per period.
//
// Alert transitions increment obs.slo.alerts{slo=,severity=} and record a
// FlightKind::slo_burn event, so a failing CI run's artifacts show exactly
// when the budget started burning.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "obs/metrics.hpp"

namespace wdoc::obs {

struct SloObjective {
  std::string name;     // e.g. "http.search.latency"
  double target = 0.999;  // required good/total ratio

  enum class Kind { latency, availability } kind = Kind::latency;

  // kind == latency: histogram + upper threshold (micros). Good counts are
  // observations in buckets whose upper bound is <= the largest power of
  // two not exceeding `threshold_micros`.
  Histogram* histogram = nullptr;
  std::int64_t threshold_micros = 0;

  // kind == availability: total and bad counters; good = total − bad.
  Counter* total = nullptr;
  Counter* bad = nullptr;
};

// Point-in-time view of one objective, produced by evaluate().
struct SloStatus {
  std::string name;
  double target = 0;
  // Ratios over the fast-alert windows; 1.0 when the window saw no events.
  double short_ratio = 1.0;
  double long_ratio = 1.0;
  double short_burn = 0.0;
  double long_burn = 0.0;
  std::uint64_t window_total = 0;  // events in the long window
  bool fast_alert = false;
  bool slow_alert = false;
};

class SloEngine {
 public:
  explicit SloEngine(std::int64_t eval_period_micros);
  ~SloEngine();
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  void add(SloObjective objective);

  [[nodiscard]] std::int64_t eval_period_micros() const { return eval_period_micros_; }

  // Samples every objective's instruments into the ring and recomputes
  // alert state. `now` stamps flight-recorder events; pass the caller's
  // clock (the gateway passes its request clock, tests pass SimTimes).
  // Safe to call from any thread; cheap enough to call per second.
  std::vector<SloStatus> evaluate(SimTime now);

  // {"windows":{...},"objectives":[...]} of the most recent evaluate(),
  // without re-sampling — stable field order.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Tracked;  // objective + cumulative ring + alert latches

  [[nodiscard]] static std::uint64_t good_count(const SloObjective& o);
  [[nodiscard]] static std::uint64_t total_count(const SloObjective& o);

  const std::int64_t eval_period_micros_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Tracked>> tracked_;
  std::vector<SloStatus> last_;
};

}  // namespace wdoc::obs
