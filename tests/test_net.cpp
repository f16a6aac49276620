// Network tests: simulator timing model (serialization + propagation +
// FIFO queueing), determinism, loss, stats, scheduling; and the threaded
// transport delivering the same Message types for real.
#include <gtest/gtest.h>

#include <atomic>

#include "net/sim_network.hpp"
#include "net/thread_transport.hpp"

namespace wdoc::net {
namespace {

Message make_msg(StationId from, StationId to, std::uint64_t size) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = "test";
  m.wire_size = size;
  return m;
}

TEST(SimNetwork, DeliversWithSerializationAndLatency) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e6;               // 1 MB/s
  link.down_bps = 8e6;
  link.latency = SimTime::millis(10);
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);

  SimTime delivered = SimTime::zero();
  net.set_handler(b, [&](const Message&) { delivered = net.now(); });
  // 1 MB at 1 MB/s: 1 s up + 1 s down + 20 ms propagation (both ends).
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  net.run();
  EXPECT_NEAR(delivered.as_seconds(), 2.02, 1e-6);
}

TEST(SimNetwork, UplinkSerializesSequentialSends) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e6;
  link.down_bps = 8e9;  // downlink effectively free
  link.latency = SimTime::zero();
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  StationId c = net.add_station(link);

  SimTime t_b, t_c;
  net.set_handler(b, [&](const Message&) { t_b = net.now(); });
  net.set_handler(c, [&](const Message&) { t_c = net.now(); });
  // Two 1 MB messages from the same sender: the second waits for the first
  // to clear the uplink (the star-broadcast penalty).
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, c, 1000000)).is_ok());
  net.run();
  EXPECT_NEAR(t_b.as_seconds(), 1.0, 0.01);
  EXPECT_NEAR(t_c.as_seconds(), 2.0, 0.01);
}

TEST(SimNetwork, DownlinkQueuesConcurrentArrivals) {
  SimNetwork net;
  StationLink fast;
  fast.up_bps = 8e9;
  fast.down_bps = 8e9;
  fast.latency = SimTime::zero();
  StationLink slow = fast;
  slow.down_bps = 8e6;  // 1 MB/s downlink
  StationId a = net.add_station(fast);
  StationId b = net.add_station(fast);
  StationId sink = net.add_station(slow);

  int received = 0;
  SimTime last;
  net.set_handler(sink, [&](const Message&) {
    ++received;
    last = net.now();
  });
  ASSERT_TRUE(net.send(make_msg(a, sink, 1000000)).is_ok());
  ASSERT_TRUE(net.send(make_msg(b, sink, 1000000)).is_ok());
  net.run();
  EXPECT_EQ(received, 2);
  EXPECT_NEAR(last.as_seconds(), 2.0, 0.01);  // second message queued behind first
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimNetwork net(seed);
    StationLink link;
    link.loss_rate = 0.3;
    StationId a = net.add_station(link);
    std::vector<StationId> receivers;
    for (int i = 0; i < 10; ++i) receivers.push_back(net.add_station(link));
    std::vector<std::uint64_t> order;
    for (StationId r : receivers) {
      net.set_handler(r, [&, r](const Message&) { order.push_back(r.value()); });
    }
    for (int round = 0; round < 5; ++round) {
      for (StationId r : receivers) {
        (void)net.send(make_msg(a, r, 1000 + static_cast<std::uint64_t>(round)));
      }
    }
    net.run();
    return order;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimNetwork, LossDropsMessages) {
  SimNetwork net(1);
  StationLink lossy;
  lossy.loss_rate = 1.0;
  StationId a = net.add_station(lossy);
  StationId b = net.add_station(lossy);
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  ASSERT_TRUE(net.send(make_msg(a, b, 100)).is_ok());
  net.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats(a).messages_dropped, 1u);
}

TEST(SimNetwork, OfflineStationsDropTraffic) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  ASSERT_TRUE(net.set_online(b, false).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 100)).is_ok());
  net.run();
  EXPECT_EQ(received, 0);
  ASSERT_TRUE(net.set_online(b, true).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 100)).is_ok());
  net.run();
  EXPECT_EQ(received, 1);
}

TEST(SimNetwork, UnknownStationsRejected) {
  SimNetwork net;
  StationId a = net.add_station();
  EXPECT_EQ(net.send(make_msg(a, StationId{99}, 1)).code(), Errc::not_found);
  EXPECT_EQ(net.send(make_msg(StationId{99}, a, 1)).code(), Errc::not_found);
}

TEST(SimNetwork, StatsAccounting) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  net.set_handler(b, [](const Message&) {});
  ASSERT_TRUE(net.send(make_msg(a, b, 500)).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 300)).is_ok());
  net.run();
  EXPECT_EQ(net.stats(a).messages_sent, 2u);
  EXPECT_EQ(net.stats(a).bytes_sent, 800u);
  EXPECT_EQ(net.stats(b).messages_received, 2u);
  EXPECT_EQ(net.stats(b).bytes_received, 800u);
  EXPECT_EQ(net.total_bytes_on_wire(), 800u);
  net.reset_stats();
  EXPECT_EQ(net.stats(a).messages_sent, 0u);
  EXPECT_EQ(net.total_messages(), 0u);
}

TEST(SimNetwork, PayloadSizeUsedWhenNoWireSize) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  net.set_handler(b, [](const Message&) {});
  Message m;
  m.from = a;
  m.to = b;
  m.type = "x";
  m.payload = Bytes(100, 0);
  ASSERT_TRUE(net.send(std::move(m)).is_ok());
  net.run();
  EXPECT_EQ(net.stats(a).bytes_sent, 164u);  // payload + 64B header
}

// Two timers at the SAME SimTime must fire in schedule order: the event
// queue breaks at-ties by seq, and the explicit-heap rewrite must preserve
// that strict (at, seq) total order.
TEST(SimNetwork, SameTimeEventsRunInScheduleOrder) {
  SimNetwork net;
  std::vector<int> order;
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(2); });
  net.schedule_at(SimTime::millis(5), [&] { order.push_back(0); });
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(3); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Two messages arriving at the same instant (identical links, identical
// size, sent back to back at t=0) deliver in send order.
TEST(SimNetwork, SameArrivalTimeDeliversInSendOrder) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  StationId c = net.add_station();
  std::vector<std::string> order;
  net.set_handler(c, [&](const Message& m) { order.push_back(m.type); });
  Message first;
  first.from = a;
  first.to = c;
  first.type = "first";
  Message second;
  second.from = b;
  second.to = c;
  second.type = "second";
  ASSERT_TRUE(net.send(std::move(first)).is_ok());
  ASSERT_TRUE(net.send(std::move(second)).is_ok());
  net.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(SimNetwork, ScheduledWorkRunsInTimeOrder) {
  SimNetwork net;
  std::vector<int> order;
  net.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  net.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net.now(), SimTime::millis(30));
}

TEST(SimNetwork, RunUntilStopsAtBoundary) {
  SimNetwork net;
  int fired = 0;
  net.schedule_at(SimTime::millis(10), [&] { ++fired; });
  net.schedule_at(SimTime::millis(50), [&] { ++fired; });
  net.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(net.now(), SimTime::millis(20));
  net.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimNetwork, MidRunLinkChange) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e6;
  link.down_bps = 8e9;
  link.latency = SimTime::zero();
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  SimTime t1, t2;
  net.set_handler(b, [&](const Message& m) {
    if (m.seq == 1) {
      t1 = net.now();
    } else {
      t2 = net.now();
    }
  });
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  net.run();
  // Degrade the uplink 10x; same transfer now takes 10x longer.
  StationLink degraded = link;
  degraded.up_bps = 8e5;
  ASSERT_TRUE(net.set_link(a, degraded).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  net.run();
  EXPECT_NEAR((t2 - t1).as_seconds(), 10.0, 0.1);
}

TEST(SimNetwork, JitterSpreadsDeliveries) {
  SimNetwork net(3);
  StationLink link;
  link.up_bps = 8e9;
  link.down_bps = 8e9;
  link.latency = SimTime::millis(10);
  link.jitter_max = SimTime::millis(50);
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  std::vector<double> arrivals;
  net.set_handler(b, [&](const Message&) { arrivals.push_back(net.now().as_millis()); });
  // Independent sends from time 0 (uplink is effectively free).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.send(make_msg(a, b, 10)).is_ok());
  }
  net.run();
  ASSERT_EQ(arrivals.size(), 50u);
  auto [lo, hi] = std::minmax_element(arrivals.begin(), arrivals.end());
  // Two jitter draws of up to 50 ms each on a 20 ms base: spread must be
  // well over the deterministic case (0) and below the 100 ms bound.
  EXPECT_GT(*hi - *lo, 10.0);
  EXPECT_LE(*hi, 20.0 + 100.0 + 1.0);
  EXPECT_GE(*lo, 20.0 - 0.5);
}

// --- ThreadTransport ------------------------------------------------------

TEST(ThreadTransport, DeliversToHandlerThread) {
  ThreadTransport transport;
  std::atomic<int> received{0};
  StationId b = transport.add_station([&](const Message&) { received++; });
  StationId a = transport.add_station([](const Message&) {});
  ASSERT_TRUE(transport.send(make_msg(a, b, 100)).is_ok());
  ASSERT_TRUE(transport.send(make_msg(a, b, 100)).is_ok());
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(received.load(), 2);
  EXPECT_EQ(transport.messages_delivered(), 2u);
  transport.shutdown();
}

TEST(ThreadTransport, PreservesFifoPerReceiver) {
  ThreadTransport transport;
  std::vector<std::uint64_t> seqs;
  std::mutex mu;
  StationId b = transport.add_station([&](const Message& m) {
    std::lock_guard<std::mutex> g(mu);
    seqs.push_back(m.seq);
  });
  StationId a = transport.add_station([](const Message&) {});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(transport.send(make_msg(a, b, 10)).is_ok());
  }
  ASSERT_TRUE(transport.quiesce());
  ASSERT_EQ(seqs.size(), 50u);
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  transport.shutdown();
}

TEST(ThreadTransport, UnknownReceiverRejected) {
  ThreadTransport transport;
  StationId a = transport.add_station([](const Message&) {});
  EXPECT_EQ(transport.send(make_msg(a, StationId{42}, 1)).code(), Errc::not_found);
  transport.shutdown();
}

TEST(ThreadTransport, NowAdvances) {
  ThreadTransport transport;
  SimTime t0 = transport.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(transport.now(), t0);
  transport.shutdown();
}

TEST(ThreadTransport, ShutdownIsIdempotent) {
  ThreadTransport transport;
  (void)transport.add_station([](const Message&) {});
  transport.shutdown();
  transport.shutdown();
}

// A worker that has just started may sit between its wait predicate and
// its wait when shutdown() notifies; the wakeup must not be lost.
TEST(ThreadTransport, ShutdownRightAfterAddStation) {
  for (int i = 0; i < 300; ++i) {
    ThreadTransport transport;
    (void)transport.add_station([](const Message&) {});
    transport.shutdown();
  }
}

}  // namespace
}  // namespace wdoc::net
