// Tests for the statistics helpers.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace wdoc {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-9);  // classic textbook set
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(-3.5);
  EXPECT_DOUBLE_EQ(s.mean(), -3.5);
  EXPECT_DOUBLE_EQ(s.min(), -3.5);
  EXPECT_DOUBLE_EQ(s.max(), -3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentiles, NearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.p50(), 50.0);
  EXPECT_DOUBLE_EQ(p.p90(), 90.0);
  EXPECT_DOUBLE_EQ(p.p99(), 99.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
}

TEST(Percentiles, UnsortedInsertions) {
  Percentiles p;
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.uniform01());
  for (double v : values) p.add(v);
  std::sort(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(p.p50(), values[499]);
  // Adding after a quantile query re-sorts transparently.
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 2.0);
}

TEST(Percentiles, EmptyIsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.p99(), 0.0);
}

TEST(Percentiles, ExactBelowReservoirCap) {
  // Below the cap the reservoir never kicks in: behaviour is identical to
  // the old exact sampler.
  Percentiles p(/*max_samples=*/1000);
  for (int i = 1000; i >= 1; --i) p.add(static_cast<double>(i));
  EXPECT_EQ(p.count(), 1000u);
  EXPECT_EQ(p.retained(), 1000u);
  EXPECT_DOUBLE_EQ(p.p50(), 500.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 1000.0);
}

TEST(Percentiles, ReservoirCapsMemoryAndStaysRepresentative) {
  constexpr std::size_t kCap = 512;
  Percentiles p(kCap);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) p.add(static_cast<double>(i));
  // Memory is bounded by the cap while count() tracks everything seen.
  EXPECT_EQ(p.retained(), kCap);
  EXPECT_EQ(p.count(), static_cast<std::size_t>(kN));
  EXPECT_EQ(p.max_samples(), kCap);
  // A uniform subsample of U[0, kN) keeps quantiles roughly in place:
  // with 512 samples the p50 standard error is ~2.2% of the range.
  EXPECT_NEAR(p.p50(), kN / 2.0, 0.15 * kN);
  EXPECT_NEAR(p.p90(), 0.9 * kN, 0.15 * kN);
  // Every retained value really was an input.
  EXPECT_GE(p.quantile(0.0), 0.0);
  EXPECT_LT(p.quantile(1.0), static_cast<double>(kN));
}

TEST(Percentiles, ReservoirIsDeterministic) {
  Percentiles a(64), b(64);
  for (int i = 0; i < 10000; ++i) {
    a.add(static_cast<double>(i % 997));
    b.add(static_cast<double>(i % 997));
  }
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
}

TEST(Percentiles, DefaultCapIsLarge) {
  Percentiles p;
  EXPECT_EQ(p.max_samples(), Percentiles::kDefaultMaxSamples);
}

}  // namespace
}  // namespace wdoc
