#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"
#include "obs/flight_recorder.hpp"

namespace wdoc::obs {

namespace {

// Window shape, in evaluations, and burn-rate thresholds (see slo.hpp).
constexpr std::size_t kShortEvals = 5;   // fast alert's short window
constexpr std::size_t kLongEvals = 60;   // both alerts' long window
constexpr std::size_t kSlowShortEvals = kLongEvals / 2;  // slow alert's short window
constexpr double kFastBurn = 14.4;       // page-now threshold
constexpr double kSlowBurn = 6.0;        // ticket threshold
static_assert(kShortEvals <= kSlowShortEvals && kSlowShortEvals <= kLongEvals);

double burn_rate(double bad_fraction, double target) {
  const double budget = std::max(1e-9, 1.0 - target);
  return bad_fraction / budget;
}

}  // namespace

struct SloEngine::Tracked {
  SloObjective o;
  Counter* fast_alerts = nullptr;  // obs.slo.alerts{slo=,severity=fast}
  Counter* slow_alerts = nullptr;
  bool fast_active = false;  // latch: fire only on rising edge
  bool slow_active = false;

  struct Point {
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  // Ring of cumulative points, capacity kLongEvals + 1 so a delta over the
  // full long window needs exactly the oldest retained point.
  std::vector<Point> ring;
  std::size_t next = 0;   // write position
  std::size_t count = 0;  // points retained (saturates at ring.size())

  // Cumulative point `back` evaluations before the most recent one. A
  // window reaching past recorded history resolves to the implicit zero
  // origin, i.e. "everything since the engine started" — so the very first
  // evaluation already sees a meaningful window instead of an empty delta.
  [[nodiscard]] Point at(std::size_t back) const {
    if (count == 0 || back >= count) return {};
    const std::size_t latest = (next + ring.size() - 1) % ring.size();
    return ring[(latest + ring.size() - back) % ring.size()];
  }
};

SloEngine::SloEngine(std::int64_t eval_period_micros)
    : eval_period_micros_(eval_period_micros) {}

SloEngine::~SloEngine() = default;

void SloEngine::add(SloObjective objective) {
  auto t = std::make_unique<Tracked>();
  auto& reg = MetricsRegistry::global();
  t->fast_alerts = &reg.counter(
      "obs.slo.alerts", {{"slo", objective.name}, {"severity", "fast"}});
  t->slow_alerts = &reg.counter(
      "obs.slo.alerts", {{"slo", objective.name}, {"severity", "slow"}});
  t->o = std::move(objective);
  t->ring.resize(kLongEvals + 1);
  std::lock_guard<std::mutex> g(mu_);
  tracked_.push_back(std::move(t));
}

std::uint64_t SloEngine::good_count(const SloObjective& o) {
  switch (o.kind) {
    case SloObjective::Kind::latency: {
      if (o.histogram == nullptr) return 0;
      std::uint64_t good = 0;
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        if (Histogram::upper_bound(i) > static_cast<double>(o.threshold_micros))
          break;
        good += o.histogram->bucket_count(i);
      }
      return good;
    }
    case SloObjective::Kind::availability: {
      const std::uint64_t total = o.total != nullptr ? o.total->value() : 0;
      const std::uint64_t bad = o.bad != nullptr ? o.bad->value() : 0;
      return total > bad ? total - bad : 0;
    }
  }
  return 0;
}

std::uint64_t SloEngine::total_count(const SloObjective& o) {
  switch (o.kind) {
    case SloObjective::Kind::latency:
      return o.histogram != nullptr ? o.histogram->count() : 0;
    case SloObjective::Kind::availability:
      return o.total != nullptr ? o.total->value() : 0;
  }
  return 0;
}

std::vector<SloStatus> SloEngine::evaluate(SimTime now) {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SloStatus> out;
  out.reserve(tracked_.size());
  for (auto& tp : tracked_) {
    Tracked& t = *tp;

    Tracked::Point p;
    p.total = total_count(t.o);
    // The instruments are independent atomics, so a sample taken
    // mid-observation can transiently show good > total; clamp rather than
    // report a >100% ratio.
    p.good = std::min(good_count(t.o), p.total);
    t.ring[t.next] = p;
    t.next = (t.next + 1) % t.ring.size();
    t.count = std::min(t.count + 1, t.ring.size());

    auto window_ratio = [&](std::size_t evals, std::uint64_t* events) -> double {
      const Tracked::Point then = t.at(evals);
      const std::uint64_t total = p.total - then.total;
      const std::uint64_t good = p.good - then.good;
      if (events != nullptr) *events = total;
      return total == 0 ? 1.0 : static_cast<double>(good) / static_cast<double>(total);
    };

    SloStatus s;
    s.name = t.o.name;
    s.target = t.o.target;
    s.short_ratio = window_ratio(kShortEvals, nullptr);
    s.long_ratio = window_ratio(kLongEvals, &s.window_total);
    s.short_burn = burn_rate(1.0 - s.short_ratio, t.o.target);
    s.long_burn = burn_rate(1.0 - s.long_ratio, t.o.target);
    const double slow_short_burn =
        burn_rate(1.0 - window_ratio(kSlowShortEvals, nullptr), t.o.target);

    s.fast_alert = s.short_burn >= kFastBurn && s.long_burn >= kFastBurn;
    s.slow_alert = slow_short_burn >= kSlowBurn && s.long_burn >= kSlowBurn;

    auto transition = [&](bool active, bool& latch, Counter* counter,
                          const char* severity, double burn) {
      if (active == latch) return;
      latch = active;
      if (active) counter->inc();
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %s severity=%s burn=%.2f target=%g",
                    t.o.name.c_str(), active ? "FIRING" : "cleared", severity,
                    burn, t.o.target);
      FlightRecorder::global().record(FlightKind::slo_burn, buf, 0, 0, now);
    };
    transition(s.fast_alert, t.fast_active, t.fast_alerts, "fast", s.short_burn);
    transition(s.slow_alert, t.slow_active, t.slow_alerts, "slow", s.long_burn);

    out.push_back(std::move(s));
  }
  last_ = out;
  return out;
}

std::string SloEngine::to_json() const {
  std::lock_guard<std::mutex> g(mu_);
  char buf[256];
  std::string out = "{\"windows\":{";
  std::snprintf(buf, sizeof buf,
                "\"eval_period_micros\":%lld,\"short_evals\":%zu,"
                "\"long_evals\":%zu,\"fast_burn\":%g,\"slow_burn\":%g},",
                static_cast<long long>(eval_period_micros_), kShortEvals,
                kLongEvals, kFastBurn, kSlowBurn);
  out += buf;
  out += "\"objectives\":[";
  for (std::size_t i = 0; i < last_.size(); ++i) {
    const SloStatus& s = last_[i];
    if (i != 0) out += ',';
    out += "{\"name\":\"";
    json_escape(out, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"target\":%g,\"short_ratio\":%.6f,\"long_ratio\":%.6f,"
                  "\"short_burn\":%.3f,\"long_burn\":%.3f,\"window_total\":%llu,"
                  "\"fast_alert\":%s,\"slow_alert\":%s}",
                  s.target, s.short_ratio, s.long_ratio, s.short_burn,
                  s.long_burn, static_cast<unsigned long long>(s.window_total),
                  s.fast_alert ? "true" : "false",
                  s.slow_alert ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace wdoc::obs
