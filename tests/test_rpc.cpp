// RpcTracker lifecycle tests: deadlines, capped backoff with deterministic
// jitter, retry budgets, terminal errors, duplicate suppression, and the
// attempt-timeout observer that feeds the failure detector.
#include <gtest/gtest.h>

#include "net/rpc.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"

namespace wdoc::net {
namespace {

TEST(BackoffPolicy, GrowsExponentiallyAndCaps) {
  BackoffPolicy p;
  p.initial = SimTime::millis(250);
  p.cap = SimTime::seconds(4);
  // The delay before jitter doubles per retry until the cap.
  EXPECT_EQ(p.capped(1), SimTime::millis(250));
  EXPECT_EQ(p.capped(2), SimTime::millis(500));
  EXPECT_EQ(p.capped(3), SimTime::millis(1000));
  EXPECT_EQ(p.capped(4), SimTime::millis(2000));
  EXPECT_EQ(p.capped(5), SimTime::seconds(4));
  EXPECT_EQ(p.capped(50), SimTime::seconds(4));  // capped forever
}

TEST(BackoffPolicy, JitterStaysWithinBoundsAndIsSeedDeterministic) {
  BackoffPolicy p;
  std::vector<std::int64_t> a, b;
  {
    Rng rng(99);
    for (std::uint32_t r = 1; r <= 8; ++r) a.push_back(p.delay(r, rng).as_micros());
  }
  {
    Rng rng(99);
    for (std::uint32_t r = 1; r <= 8; ++r) b.push_back(p.delay(r, rng).as_micros());
  }
  EXPECT_EQ(a, b);  // same seed, same delays, bit-for-bit
  Rng rng(7);
  for (std::uint32_t r = 1; r <= 8; ++r) {
    const double base = static_cast<double>(p.capped(r).as_micros());
    const double got = static_cast<double>(p.delay(r, rng).as_micros());
    EXPECT_GE(got, base * (1.0 - kBackoffJitter) - 1.0) << "retry " << r;
    EXPECT_LE(got, base * (1.0 + kBackoffJitter) + 1.0) << "retry " << r;
  }
}

TEST(RpcOptions, ValidateRejectsNonsense) {
  RpcOptions opts;
  EXPECT_TRUE(opts.validate().is_ok());  // documented defaults are valid

  RpcOptions zero_deadline;
  zero_deadline.deadline = SimTime::zero();
  EXPECT_EQ(zero_deadline.validate().code(), Errc::invalid_argument);

  RpcOptions inverted_cap;
  inverted_cap.backoff.cap = SimTime::millis(1);
  EXPECT_EQ(inverted_cap.validate().code(), Errc::invalid_argument);

  RpcOptions zero_initial;
  zero_initial.backoff.initial = SimTime::zero();
  EXPECT_EQ(zero_initial.validate().code(), Errc::invalid_argument);
}

struct TrackerFixture : ::testing::Test {
  TrackerFixture() : net(42), self(net.add_station()), rpc(net, self) {}

  SimNetwork net;
  StationId self;
  RpcTracker rpc;
};

TEST_F(TrackerFixture, CompletesOnceAndCancelledDeadlineDoesNotAdvanceTime) {
  RpcOptions opts;
  opts.deadline = SimTime::seconds(60);
  int fired = 0;
  Result<int> got = 0;
  ASSERT_TRUE(rpc.track<int>(
                    1, opts,
                    [&](Result<int> r, SimTime) {
                      ++fired;
                      got = std::move(r);
                    },
                    [](std::uint32_t) { return Status::ok(); })
                  .is_ok());
  EXPECT_TRUE(rpc.in_flight(1));
  net.schedule_after(SimTime::millis(100), [&] { EXPECT_TRUE(rpc.complete<int>(1, 7)); });
  net.run();
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), 7);
  EXPECT_FALSE(rpc.in_flight(1));
  EXPECT_EQ(rpc.pending(), 0u);
  EXPECT_EQ(rpc.stats().started, 1u);
  EXPECT_EQ(rpc.stats().completed, 1u);
  EXPECT_EQ(rpc.stats().attempt_timeouts, 0u);
  // The 60 s deadline timer was cancelled: it must not have dragged the
  // simulation clock forward (benches read now() after run()).
  EXPECT_EQ(net.now(), SimTime::millis(100));
}

TEST_F(TrackerFixture, RetriesAfterAttemptTimeoutThenCompletes) {
  static_assert(kMaxRetries >= 2, "the second retry must still be in budget");
  RpcOptions opts;
  opts.deadline = SimTime::seconds(1);
  int sends = 0;
  int fired = 0;
  ASSERT_TRUE(rpc.track<int>(
                    9, opts,
                    [&](Result<int> r, SimTime) {
                      ++fired;
                      EXPECT_TRUE(r.is_ok());
                    },
                    [&](std::uint32_t attempt) {
                      // Attempt 0 is the first send, then the 1-based retries.
                      EXPECT_EQ(attempt, static_cast<std::uint32_t>(sends));
                      ++sends;
                      if (attempt == 2) {
                        // The second retry finally "reaches" the server.
                        net.schedule_after(SimTime::millis(10),
                                           [&] { EXPECT_TRUE(rpc.complete<int>(9, 1)); });
                      }
                      return Status::ok();
                    })
                  .is_ok());
  net.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sends, 3);
  const RpcStats st = rpc.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.attempt_timeouts, 2u);
  EXPECT_EQ(st.exhausted, 0u);
}

TEST_F(TrackerFixture, ExhaustionDeliversTimeoutExactlyOnce) {
  RpcOptions opts;
  opts.deadline = SimTime::seconds(1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> observed;
  rpc.set_timeout_observer([&](std::uint64_t req, std::uint32_t attempt) {
    observed.emplace_back(req, attempt);
  });
  int fired = 0;
  Errc code = Errc::ok;
  ASSERT_TRUE(rpc.track<int>(
                    5, opts,
                    [&](Result<int> r, SimTime) {
                      ++fired;
                      ASSERT_FALSE(r.is_ok());
                      code = r.status().code();
                    },
                    [](std::uint32_t) { return Status::ok(); })
                  .is_ok());
  net.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(code, Errc::timeout);
  const RpcStats st = rpc.stats();
  EXPECT_EQ(st.attempt_timeouts, kMaxRetries + 1);  // every attempt timed out
  EXPECT_EQ(st.retries, kMaxRetries);
  EXPECT_EQ(st.exhausted, 1u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(rpc.pending(), 0u);
  // The observer saw every attempt timeout, in order.
  ASSERT_EQ(observed.size(), kMaxRetries + 1);
  for (std::uint32_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    EXPECT_EQ(observed[attempt], (std::pair<std::uint64_t, std::uint32_t>{5, attempt}));
  }
}

TEST_F(TrackerFixture, ResendRefusalDeliversUnreachable) {
  RpcOptions opts;
  opts.deadline = SimTime::seconds(1);
  int fired = 0;
  Errc code = Errc::ok;
  ASSERT_TRUE(rpc.track<int>(
                    6, opts,
                    [&](Result<int> r, SimTime) {
                      ++fired;
                      ASSERT_FALSE(r.is_ok());
                      code = r.status().code();
                    },
                    // The first send leaves; the route is gone by the retry.
                    [](std::uint32_t attempt) -> Status {
                      if (attempt == 0) return Status::ok();
                      return {Errc::not_found, "no route"};
                    })
                  .is_ok());
  net.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(code, Errc::unreachable);
  EXPECT_EQ(rpc.stats().exhausted, 1u);
}

TEST_F(TrackerFixture, DuplicateCompletionIsCountedAndIgnored) {
  RpcOptions opts;
  int fired = 0;
  ASSERT_TRUE(rpc.track<int>(
                    3, opts, [&](Result<int>, SimTime) { ++fired; },
                    [](std::uint32_t) { return Status::ok(); })
                  .is_ok());
  EXPECT_TRUE(rpc.complete<int>(3, 1));
  EXPECT_FALSE(rpc.complete<int>(3, 2));  // late duplicate: counted, dropped
  EXPECT_FALSE(rpc.complete<int>(777, 2));  // never tracked: same treatment
  net.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rpc.stats().duplicates, 2u);
}

TEST_F(TrackerFixture, RefusedFirstSendIsReturnedAndCountedNowhere) {
  obs::Counter& started = obs::MetricsRegistry::global().counter("rpc.started");
  const std::uint64_t started_before = started.value();
  RpcOptions opts;
  int fired = 0;
  int sends = 0;
  const Status s = rpc.track<int>(
      4, opts, [&](Result<int>, SimTime) { ++fired; },
      [&](std::uint32_t) -> Status {
        ++sends;
        return {Errc::unavailable, "no route"};
      });
  EXPECT_EQ(s.code(), Errc::unavailable);
  net.run();
  EXPECT_EQ(sends, 1);  // no retry either
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(rpc.pending(), 0u);
  // The request never left the station: not started, here or process-wide.
  EXPECT_EQ(rpc.stats().started, 0u);
  EXPECT_EQ(started.value() - started_before, 0u);
  // The deadline armed before the send was cancelled with it.
  EXPECT_EQ(net.now(), SimTime::zero());
}

TEST_F(TrackerFixture, FailDeliversTerminalErrorOnce) {
  RpcOptions opts;
  int fired = 0;
  Errc code = Errc::ok;
  ASSERT_TRUE(rpc.track<int>(
                    8, opts,
                    [&](Result<int> r, SimTime) {
                      ++fired;
                      code = r.status().code();
                    },
                    [](std::uint32_t) { return Status::ok(); })
                  .is_ok());
  rpc.fail(8, Error{Errc::not_found, "the root does not have it"});
  rpc.fail(8, Error{Errc::not_found, "again"});  // duplicate: counted
  net.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(code, Errc::not_found);
  EXPECT_EQ(rpc.stats().duplicates, 1u);
}

// Same seed, same scenario: the retry/backoff schedule is bit-identical, so
// the terminal failure lands at exactly the same simulated instant.
TEST(RpcDeterminism, SameSeedExhaustsAtTheSameInstant) {
  auto run_once = [] {
    net::SimNetwork net(1234);
    StationId self = net.add_station();
    RpcTracker rpc(net, self);
    RpcOptions opts;
    opts.deadline = SimTime::seconds(1);
    SimTime terminal = SimTime::zero();
    EXPECT_TRUE(rpc.track<int>(
                       1, opts, [&](Result<int>, SimTime t) { terminal = t; },
                       [](std::uint32_t) { return Status::ok(); })
                    .is_ok());
    net.run();
    return terminal.as_micros();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a, 0);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace wdoc::net
