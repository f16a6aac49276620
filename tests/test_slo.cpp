// obs::SloEngine: window algebra over cumulative rings (5- and
// 60-evaluation windows), burn-rate math, multi-window alert transitions
// (fire + clear), latency-threshold bucket rounding, availability
// objectives, and JSON rendering.
#include <gtest/gtest.h>

#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"

using namespace wdoc;
using namespace wdoc::obs;

namespace {

// The engine reports its period but never reads a clock: each test
// evaluates at explicit times one period apart.
constexpr std::int64_t kPeriodMicros = 1'000;

// Each test uses its own instrument names: the registry is process-global.
Histogram& fresh_hist(const std::string& name) {
  Histogram& h = MetricsRegistry::global().histogram(name);
  h.reset();
  return h;
}

TEST(SloEngine, LatencyObjectiveRoundsThresholdDownToBucketBoundary) {
  Histogram& h = fresh_hist("slo_test.round_hist");
  SloEngine eng(kPeriodMicros);
  SloObjective o;
  o.name = "slo_test.round";
  o.target = 0.5;
  o.kind = SloObjective::Kind::latency;
  o.histogram = &h;
  o.threshold_micros = 5'000;  // between bucket bounds 4096 and 8192
  eng.add(std::move(o));

  // 4000us is within the rounded-down boundary (<= 4096): good.
  // 5000us would satisfy the declared threshold but not the conservative
  // rounded one (it lands in the 8192 bucket): bad.
  h.observe(4'000);
  h.observe(5'000);
  auto st = eng.evaluate(SimTime::micros(1'000));
  ASSERT_EQ(st.size(), 1u);
  EXPECT_DOUBLE_EQ(st[0].long_ratio, 0.5);
  EXPECT_EQ(st[0].window_total, 2u);
}

TEST(SloEngine, FastBurnAlertFiresOncePerEpisodeAndClears) {
  Histogram& h = fresh_hist("slo_test.burn_hist");
  auto& fast_counter = MetricsRegistry::global().counter(
      "obs.slo.alerts", {{"slo", "slo_test.burn"}, {"severity", "fast"}});
  const auto fast0 = fast_counter.value();
  SloEngine eng(kPeriodMicros);
  SloObjective o;
  o.name = "slo_test.burn";
  o.target = 0.99;  // error budget 1%; fast-burn needs bad fraction >= 14.4%
  o.kind = SloObjective::Kind::latency;
  o.histogram = &h;
  o.threshold_micros = 1'000;
  eng.add(std::move(o));

  // Period 1: 50% bad -> burn 50 in every window.
  for (int i = 0; i < 10; ++i) h.observe(100);
  for (int i = 0; i < 10; ++i) h.observe(100'000);
  auto st = eng.evaluate(SimTime::micros(1'000));
  EXPECT_TRUE(st[0].fast_alert);
  EXPECT_GE(st[0].short_burn, 14.4);
  EXPECT_EQ(fast_counter.value(), fast0 + 1);

  // Period 2: still burning -> latched, no second count.
  for (int i = 0; i < 10; ++i) h.observe(100'000);
  st = eng.evaluate(SimTime::micros(2'000));
  EXPECT_TRUE(st[0].fast_alert);
  EXPECT_EQ(fast_counter.value(), fast0 + 1);

  // Healthy traffic: the alert clears once the 5-evaluation short window
  // holds no bad events, and 60 healthy evaluations fill the long window.
  for (int p = 3; p <= 62; ++p) {
    for (int i = 0; i < 100; ++i) h.observe(100);
    st = eng.evaluate(SimTime::micros(p * 1'000));
    if (p == 7) {
      EXPECT_FALSE(st[0].fast_alert);
      EXPECT_DOUBLE_EQ(st[0].short_ratio, 1.0);
      EXPECT_LT(st[0].long_ratio, 1.0);  // the episode is still in the long window
    }
  }
  EXPECT_FALSE(st[0].fast_alert);
  EXPECT_DOUBLE_EQ(st[0].long_ratio, 1.0);
  EXPECT_EQ(st[0].window_total, 6'000u);  // the last 60 evaluations only
  EXPECT_EQ(fast_counter.value(), fast0 + 1);  // clear does not re-count

  // A fresh episode fires again once it burns the long window too: 6,500
  // bad against 5,900 good is 52% bad, a burn of 52.
  for (int i = 0; i < 6'500; ++i) h.observe(100'000);
  st = eng.evaluate(SimTime::micros(63'000));
  EXPECT_TRUE(st[0].fast_alert);
  EXPECT_EQ(st[0].window_total, 12'400u);
  EXPECT_EQ(fast_counter.value(), fast0 + 2);
}

TEST(SloEngine, AlertTransitionsLeaveFlightEvents) {
  Histogram& h = fresh_hist("slo_test.flight_hist");
  auto& rec = FlightRecorder::global();
  const std::uint64_t recorded0 = rec.recorded();
  SloEngine eng(kPeriodMicros);
  SloObjective o;
  o.name = "slo_test.flight";
  o.target = 0.99;
  o.kind = SloObjective::Kind::latency;
  o.histogram = &h;
  o.threshold_micros = 1'000;
  eng.add(std::move(o));

  for (int i = 0; i < 10; ++i) h.observe(100'000);
  (void)eng.evaluate(SimTime::micros(1'000));

  bool found = false;
  for (const FlightEvent& ev : rec.events()) {
    if (ev.seq >= recorded0 && ev.kind == FlightKind::slo_burn &&
        ev.detail.find("slo_test.flight FIRING") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected a slo_burn flight event for the alert";
  EXPECT_STREQ(flight_kind_name(FlightKind::slo_burn), "slo_burn");
}

TEST(SloEngine, AvailabilityObjectiveUsesCounterRatio) {
  auto& reg = MetricsRegistry::global();
  auto& total = reg.counter("slo_test.avail_total");
  auto& bad = reg.counter("slo_test.avail_bad");
  total.reset();
  bad.reset();
  SloEngine eng(kPeriodMicros);
  SloObjective o;
  o.name = "slo_test.avail";
  o.target = 0.999;
  o.kind = SloObjective::Kind::availability;
  o.total = &total;
  o.bad = &bad;
  eng.add(std::move(o));

  total.inc(1000);
  bad.inc(2);  // 0.2% bad -> burn 2, below both thresholds
  auto st = eng.evaluate(SimTime::micros(1'000));
  EXPECT_FALSE(st[0].fast_alert);
  EXPECT_FALSE(st[0].slow_alert);
  EXPECT_NEAR(st[0].long_burn, 2.0, 0.01);

  total.inc(1000);
  bad.inc(200);  // 20% bad this window -> fast burn
  st = eng.evaluate(SimTime::micros(2'000));
  EXPECT_TRUE(st[0].fast_alert);
}

TEST(SloEngine, EmptyWindowCountsAsMeetingTheObjective) {
  Histogram& h = fresh_hist("slo_test.idle_hist");
  SloEngine eng(kPeriodMicros);
  SloObjective o;
  o.name = "slo_test.idle";
  o.target = 0.99;
  o.kind = SloObjective::Kind::latency;
  o.histogram = &h;
  o.threshold_micros = 1'000;
  eng.add(std::move(o));
  auto st = eng.evaluate(SimTime::micros(1'000));
  EXPECT_DOUBLE_EQ(st[0].short_ratio, 1.0);
  EXPECT_DOUBLE_EQ(st[0].long_ratio, 1.0);
  EXPECT_FALSE(st[0].fast_alert);
}

TEST(SloEngine, JsonIsStableAndListedInDumpAll) {
  Histogram& h = fresh_hist("slo_test.json_hist");
  SloEngine eng(kPeriodMicros);
  for (const char* name : {"slo_test.json", "slo_test.\"json\"\n"}) {
    SloObjective o;
    o.name = name;
    o.target = 0.99;
    o.kind = SloObjective::Kind::latency;
    o.histogram = &h;
    o.threshold_micros = 1'000;
    eng.add(std::move(o));
  }
  (void)eng.evaluate(SimTime::micros(1'000));

  std::string a = eng.to_json();
  std::string b = eng.to_json();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rfind("{\"windows\":{\"eval_period_micros\":1000,\"short_evals\":5,"
                    "\"long_evals\":60,\"fast_burn\":14.4,\"slow_burn\":6},",
                    0),
            0u)
      << a;
  EXPECT_NE(a.find("\"name\":\"slo_test.json\""), std::string::npos);
  // Objective names are escaped like every other JSON string.
  EXPECT_NE(a.find("\"name\":\"slo_test.\\\"json\\\"\\n\""), std::string::npos) << a;
  EXPECT_NE(SloEngine::dump_all().find("slo_test.json"), std::string::npos);
}

}  // namespace