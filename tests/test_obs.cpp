// wdoc_obs: registry addressing/label semantics, histogram bucket
// boundaries, snapshot/JSON export stability, tracer span trees,
// multi-threaded increments (run under TSan via WDOC_SANITIZE=thread),
// snapshot wire roundtrips/merging, Chrome trace export, and the flight
// recorder ring.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

using namespace wdoc;
using namespace wdoc::obs;

namespace {

// Tests share the global registry with every other linked subsystem, so
// each uses test-local metric names.

TEST(MetricsRegistry, SameNameSameInstrument) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("obs_test.hits");
  Counter& b = reg.counter("obs_test.hits");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  b.inc(2);
  EXPECT_EQ(a.value(), 5u);
}

TEST(MetricsRegistry, LabelsAddressDistinctInstruments) {
  auto& reg = MetricsRegistry::global();
  Counter& read = reg.counter("obs_test.ops", {{"mode", "read"}});
  Counter& write = reg.counter("obs_test.ops", {{"mode", "write"}});
  EXPECT_NE(&read, &write);
  // Label order must not matter: std::map keys are sorted.
  Counter& ab = reg.counter("obs_test.multi", {{"a", "1"}, {"b", "2"}});
  Counter& ba = reg.counter("obs_test.multi", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(MetricsRegistry, ResetZeroesButKeepsIdentity) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("obs_test.reset_me");
  Gauge& g = reg.gauge("obs_test.reset_gauge");
  c.inc(7);
  g.set(-4);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(&c, &reg.counter("obs_test.reset_me"));  // reference survives
}

TEST(Histogram, BucketBoundaries) {
  // upper_bound(i) = 2^i; bucket 0 holds everything <= 1 (and negatives).
  EXPECT_EQ(Histogram::upper_bound(0), 1.0);
  EXPECT_EQ(Histogram::upper_bound(3), 8.0);
  EXPECT_TRUE(std::isinf(Histogram::upper_bound(Histogram::kBuckets - 1)));

  EXPECT_EQ(Histogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.5), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 1u);  // boundaries are inclusive
  EXPECT_EQ(Histogram::bucket_of(2.1), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 10u);
  EXPECT_EQ(Histogram::bucket_of(1025.0), 11u);
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, ObserveAndQuantile) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(3.0);    // bucket 2 (2 < v <= 4)
  for (int i = 0; i < 10; ++i) h.observe(1000.0);  // bucket 10
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 90 * 3.0 + 10 * 1000.0);
  EXPECT_EQ(h.bucket_count(2), 90u);
  EXPECT_EQ(h.bucket_count(10), 10u);
  EXPECT_EQ(h.quantile(0.50), 4.0);     // bucket 2's upper bound
  EXPECT_EQ(h.quantile(0.99), 1024.0);  // bucket 10's upper bound
}

TEST(Snapshot, JsonIsStableAndCompleteAcrossExports) {
  auto& reg = MetricsRegistry::global();
  reg.counter("obs_test.json_counter", {{"k", "v"}}).inc(42);
  reg.gauge("obs_test.json_gauge").set(-3);
  reg.histogram("obs_test.json_hist", {{"unit", "us"}}).observe(100.0);

  Snapshot snap = reg.snapshot();
  std::string a = to_json(snap);
  std::string b = to_json(reg.snapshot());
  EXPECT_EQ(a, b);  // same state -> byte-identical export

  EXPECT_NE(a.find("\"name\":\"obs_test.json_counter\""), std::string::npos);
  EXPECT_NE(a.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(a.find("\"value\":42"), std::string::npos);
  EXPECT_NE(a.find("\"value\":-3"), std::string::npos);
  // 100 lands in bucket (64, 128]: le=128.
  EXPECT_NE(a.find("\"le\":128"), std::string::npos);

  // The text table renders one row per instrument, sorted.
  std::string table = to_table(snap);
  EXPECT_NE(table.find("obs_test.json_counter{k=v}"), std::string::npos);

  // Snapshot keys are sorted, so diffs across runs are clean.
  for (std::size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_LT(snap.samples[i - 1].key(), snap.samples[i].key());
  }
}

TEST(Metrics, MultiThreadedIncrementsAreExact) {
  auto& reg = MetricsRegistry::global();
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  Counter& c = reg.counter("obs_test.mt_counter");
  Histogram& h = reg.histogram("obs_test.mt_hist");
  Gauge& g = reg.gauge("obs_test.mt_gauge");
  c.reset();
  h.reset();
  g.reset();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &c, &h, &g, t] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.add(1);
        h.observe(static_cast<double>(i % 1000));
        // Concurrent registration of the same key must be safe too.
        reg.counter("obs_test.mt_shared", {{"t", t % 2 ? "odd" : "even"}}).inc();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.counter("obs_test.mt_shared", {{"t", "odd"}}).value() +
                reg.counter("obs_test.mt_shared", {{"t", "even"}}).value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Tracer, SpanParentageAndClear) {
  Tracer& tr = Tracer::global();
  tr.set_enabled(true);
  tr.clear();

  std::uint64_t root = tr.begin("push", 0, SimTime::millis(10));
  ASSERT_NE(root, 0u);
  std::uint64_t child = tr.begin("hop", root, SimTime::millis(12));
  tr.end(child, SimTime::millis(15));
  tr.end(root, SimTime::millis(20));

  auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_TRUE(spans[0].finished);
  EXPECT_EQ(spans[1].name, "hop");
  EXPECT_EQ(spans[1].start, SimTime::millis(12));
  EXPECT_EQ(spans[1].end, SimTime::millis(15));

  // end() on a stale id from before clear() must be a no-op.
  tr.clear();
  std::uint64_t fresh = tr.begin("fresh", 0, SimTime::zero());
  tr.end(root, SimTime::seconds(99));
  auto after = tr.spans();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].id, fresh);
  EXPECT_FALSE(after[0].finished);

  tr.set_enabled(false);
  EXPECT_EQ(tr.begin("disabled", 0, SimTime::zero()), 0u);
  tr.clear();
}

TEST(Tracer, DrainMovesBufferAndInvalidatesOldIds) {
  Tracer& tr = Tracer::global();
  tr.set_enabled(true);
  tr.clear();

  std::uint64_t a = tr.begin("a", 0, SimTime::millis(1), /*station=*/7);
  tr.end(a, SimTime::millis(2));
  std::uint64_t b = tr.begin("b", a, SimTime::millis(3));

  auto drained = tr.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].station, 7u);
  EXPECT_TRUE(drained[0].finished);
  EXPECT_FALSE(drained[1].finished);
  EXPECT_EQ(tr.span_count(), 0u);

  // Ids from before the drain are stale: ending them must not touch the
  // fresh buffer.
  std::uint64_t c = tr.begin("c", 0, SimTime::millis(4));
  tr.end(b, SimTime::seconds(9));
  auto after = tr.spans();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].id, c);
  EXPECT_FALSE(after[0].finished);

  tr.set_enabled(false);
  tr.clear();
}

TEST(Tracer, AdoptAppendsFinishedRecordsAndIgnoresEnabledGate) {
  Tracer& tr = Tracer::global();
  tr.set_enabled(false);  // adopt must work anyway: promotion already decided
  tr.clear();

  std::vector<SpanRecord> batch(2);
  batch[0].id = Tracer::allocate_id();
  batch[0].trace_id = 77;
  batch[0].name = "root";
  batch[0].finished = true;
  batch[1].id = Tracer::allocate_id();
  batch[1].trace_id = 77;
  batch[1].parent = batch[0].id;
  batch[1].name = "child";
  batch[1].finished = true;
  EXPECT_EQ(tr.adopt(std::move(batch)), 2u);

  auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 77u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  tr.clear();
}

TEST(Tracer, CapacityDropsAreCounted) {
  Tracer& tr = Tracer::global();
  tr.set_enabled(true);
  tr.clear();
  auto& dropped_counter = MetricsRegistry::global().counter("obs.trace.dropped");
  const std::uint64_t dropped_before = dropped_counter.value();

  std::vector<SpanRecord> flood(Tracer::kMaxSpans);
  for (auto& s : flood) s.id = Tracer::allocate_id();
  EXPECT_EQ(tr.adopt(std::move(flood)), Tracer::kMaxSpans);

  // The buffer is full: begin() refuses (returns 0) and counts the drop.
  EXPECT_EQ(tr.begin("overflow", 0, SimTime::zero()), 0u);
  EXPECT_EQ(tr.dropped(), 1u);
  std::vector<SpanRecord> more(3);
  for (auto& s : more) s.id = Tracer::allocate_id();
  EXPECT_EQ(tr.adopt(std::move(more)), 0u);
  EXPECT_EQ(tr.dropped(), 4u);
  EXPECT_EQ(dropped_counter.value(), dropped_before + 4);

  tr.set_enabled(false);
  tr.clear();
}

// Workers emit spans while a collector repeatedly drains: every span id must
// end up in exactly one drained batch (run under TSan via WDOC_SANITIZE).
TEST(Tracer, ConcurrentDrainLosesNoSpans) {
  Tracer& tr = Tracer::global();
  tr.set_enabled(true);
  tr.clear();

  constexpr int kWorkers = 4;
  constexpr int kSpansPerWorker = 2000;
  std::atomic<bool> done{false};
  std::vector<std::vector<SpanRecord>> batches;
  std::thread collector([&] {
    while (!done.load(std::memory_order_acquire)) {
      batches.push_back(tr.drain());
    }
    batches.push_back(tr.drain());
  });

  std::vector<std::thread> workers;
  std::array<std::vector<std::uint64_t>, kWorkers> emitted;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kSpansPerWorker; ++i) {
        std::uint64_t id = tr.begin("w", 0, SimTime::micros(i), w);
        if (id != 0) {
          tr.end(id, SimTime::micros(i + 1));
          emitted[w].push_back(id);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  collector.join();

  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (const auto& b : batches) {
    for (const SpanRecord& s : b) {
      EXPECT_TRUE(seen.insert(s.id).second) << "span id drained twice";
      ++total;
    }
  }
  std::size_t expected = 0;
  for (const auto& e : emitted) {
    expected += e.size();
    for (std::uint64_t id : e) EXPECT_EQ(seen.count(id), 1u);
  }
  EXPECT_EQ(total, expected);
  tr.set_enabled(false);
  tr.clear();
}

TEST(Histogram, ExemplarRetainsMostRecentSampledTrace) {
  Histogram h;
  h.observe(3.0);                 // no exemplar
  EXPECT_EQ(h.exemplar(Histogram::bucket_of(3.0)), 0u);
  h.observe(3.0, 41);
  h.observe(3.0, 42);             // most recent wins
  h.observe(3.0);                 // unsampled observation must not clear it
  EXPECT_EQ(h.exemplar(Histogram::bucket_of(3.0)), 42u);
  h.reset();
  EXPECT_EQ(h.exemplar(Histogram::bucket_of(3.0)), 0u);
}

TEST(Snapshot, JsonCarriesExemplars) {
  auto& reg = MetricsRegistry::global();
  auto& h = reg.histogram("obs_test.exemplar_hist");
  h.reset();
  h.observe(100.0, 987654321);
  std::string json = to_json(reg.snapshot());
  EXPECT_NE(json.find("\"exemplar\":987654321"), std::string::npos);
}

// --- snapshot wire format / merging ------------------------------------------

MetricSample counter_sample(const std::string& name, const Labels& labels,
                            double v) {
  MetricSample s;
  s.name = name;
  s.labels = labels;
  s.kind = MetricSample::Kind::counter;
  s.value = v;
  return s;
}

TEST(Scrape, SnapshotRoundtripsThroughWireFormat) {
  auto& reg = MetricsRegistry::global();
  reg.counter("obs_test.wire_counter", {{"mode", "x"}}).inc(17);
  reg.gauge("obs_test.wire_gauge").set(-5);
  reg.histogram("obs_test.wire_hist").observe(100.0);
  Snapshot snap = reg.snapshot();

  auto decoded = decode_snapshot(encode_snapshot(snap));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded.value().samples.size(), snap.samples.size());
  // Everything the exporters consume survives the roundtrip byte-for-byte.
  EXPECT_EQ(to_json(decoded.value()), to_json(snap));
}

TEST(Scrape, DecodeRejectsTruncatedPayload) {
  Snapshot snap;
  snap.samples.push_back(counter_sample("c", {{"station", "1"}}, 2.0));
  Bytes wire = encode_snapshot(snap);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(decode_snapshot(wire).is_ok());
}

TEST(Scrape, WithLabelTagsEverySample) {
  Snapshot snap;
  snap.samples.push_back(counter_sample("b", {}, 1.0));
  snap.samples.push_back(counter_sample("a", {{"k", "v"}}, 2.0));
  Snapshot tagged = with_label(snap, "station", "9");
  for (const MetricSample& s : tagged.samples) {
    EXPECT_EQ(s.labels.at("station"), "9");
  }
  // Samples stay sorted by key after tagging.
  for (std::size_t i = 1; i < tagged.samples.size(); ++i) {
    EXPECT_LT(tagged.samples[i - 1].key(), tagged.samples[i].key());
  }
}

TEST(Scrape, MergeAddsSameKeyAndPassesThroughDisjoint) {
  Snapshot a;
  a.samples.push_back(counter_sample("hits", {{"station", "1"}}, 3.0));
  a.samples.push_back(counter_sample("hits", {{"station", "2"}}, 5.0));
  Snapshot b;
  b.samples.push_back(counter_sample("hits", {{"station", "2"}}, 7.0));
  b.samples.push_back(counter_sample("hits", {{"station", "3"}}, 11.0));

  merge_snapshot(a, b);
  ASSERT_EQ(a.samples.size(), 3u);
  EXPECT_EQ(a.samples[0].value, 3.0);   // station 1: only in a
  EXPECT_EQ(a.samples[1].value, 12.0);  // station 2: 5 + 7
  EXPECT_EQ(a.samples[2].value, 11.0);  // station 3: only in b
  EXPECT_EQ(counter_total(a, "hits"), 26.0);

  // Histograms merge their counts, sums, and buckets by bound.
  Histogram h1, h2;
  h1.observe(3.0);
  h2.observe(3.0);
  h2.observe(1000.0);
  auto hist_sample = [](const Histogram& h) {
    MetricSample s;
    s.name = "lat";
    s.kind = MetricSample::Kind::histogram;
    s.hist_count = h.count();
    s.hist_sum = h.sum();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket_count(i) > 0) {
        s.hist_buckets.emplace_back(Histogram::upper_bound(i), h.bucket_count(i));
      }
    }
    return s;
  };
  Snapshot ha, hb;
  ha.samples.push_back(hist_sample(h1));
  hb.samples.push_back(hist_sample(h2));
  merge_snapshot(ha, hb);
  ASSERT_EQ(ha.samples.size(), 1u);
  EXPECT_EQ(ha.samples[0].hist_count, 3u);
  EXPECT_DOUBLE_EQ(ha.samples[0].hist_sum, 1006.0);
  ASSERT_EQ(ha.samples[0].hist_buckets.size(), 2u);
  EXPECT_EQ(ha.samples[0].hist_buckets[0].second, 2u);  // bucket le=4: both
  EXPECT_EQ(ha.samples[0].hist_buckets[1].second, 1u);  // bucket le=1024: h2
}

// --- Chrome trace export -----------------------------------------------------

TEST(TraceExport, FinishedAndUnfinishedSpansRenderDistinctly) {
  std::vector<SpanRecord> spans;
  SpanRecord done;
  done.id = 41;
  done.station = 3;
  done.name = "push";
  done.start = SimTime::millis(10);
  done.end = SimTime::millis(25);
  done.finished = true;
  SpanRecord open;
  open.id = 42;
  open.parent = 41;
  open.station = 5;
  open.name = "hop";
  open.start = SimTime::millis(12);
  open.end = SimTime::millis(12);
  open.finished = false;
  spans.push_back(open);
  spans.push_back(done);

  std::string json = to_chrome_trace(spans);
  // Finished span: complete event with measured duration.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15000"), std::string::npos);
  // Unfinished span: explicit instant flagged unfinished — never a
  // zero-duration "X".
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"finished\":false"), std::string::npos);
  EXPECT_EQ(json.find("\"dur\":0"), std::string::npos);
  // Ids are rebased to the batch: spans 41/42 export as 1/2.
  EXPECT_NE(json.find("\"span\":1,\"parent\":0"), std::string::npos);
  EXPECT_NE(json.find("\"span\":2,\"parent\":1"), std::string::npos);
  // Parent-child linkage renders as a bound flow arrow pair.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // One process per station, named.
  EXPECT_NE(json.find("\"name\":\"station 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"station 5\""), std::string::npos);
}

TEST(TraceExport, OutputIsIndependentOfPriorTracerHistory) {
  SpanRecord s;
  s.id = 100;
  s.station = 1;
  s.name = "op";
  s.start = SimTime::millis(1);
  s.end = SimTime::millis(2);
  s.finished = true;
  SpanRecord shifted = s;
  shifted.id = 90000;  // same structure, different absolute id
  EXPECT_EQ(to_chrome_trace({s}), to_chrome_trace({shifted}));
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RecordsInGlobalSequenceOrder) {
  auto& fr = FlightRecorder::global();
  fr.clear();
  fr.record(FlightKind::deadlock, "txn 7 vs txn 9", /*station=*/0, /*actor=*/7);
  fr.record(FlightKind::replication, "docA 4/4", /*station=*/3, /*actor=*/0,
            SimTime::millis(12));
  fr.record(FlightKind::migration, "2 instances demoted", /*station=*/3);

  auto events = fr.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].kind, FlightKind::deadlock);
  EXPECT_EQ(events[0].actor, 7u);
  EXPECT_EQ(events[1].station, 3u);
  EXPECT_EQ(events[1].at, SimTime::millis(12));
  EXPECT_EQ(fr.recorded(), 3u);

  std::string dump = fr.dump();
  EXPECT_NE(dump.find("deadlock"), std::string::npos);
  EXPECT_NE(dump.find("docA 4/4"), std::string::npos);
  fr.clear();
  EXPECT_TRUE(fr.events().empty());
}

TEST(FlightRecorder, RingBoundsRetentionButCountsEverything) {
  auto& fr = FlightRecorder::global();
  fr.clear();
  const std::size_t total = FlightRecorder::kShards * FlightRecorder::kCapacity;
  for (std::size_t i = 0; i < total + 100; ++i) {
    fr.record(FlightKind::custom, "evt " + std::to_string(i));
  }
  EXPECT_EQ(fr.recorded(), total + 100);
  auto events = fr.events();
  EXPECT_EQ(events.size(), total);  // ring overwrote the oldest 100
  // The newest event is retained; the very first was overwritten.
  EXPECT_EQ(events.back().detail, "evt " + std::to_string(total + 99));
  EXPECT_NE(events.front().detail, "evt 0");
  fr.clear();
}

TEST(FlightRecorder, ConcurrentRecordingIsSafeAndComplete) {
  auto& fr = FlightRecorder::global();
  fr.clear();
  constexpr int kThreads = 8;
  constexpr int kEvents = 100;  // well under capacity: nothing overwritten
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fr, t] {
      for (int i = 0; i < kEvents; ++i) {
        fr.record(FlightKind::lock_wait, "t" + std::to_string(t),
                  /*station=*/0, /*actor=*/static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  auto events = fr.events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kEvents);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  fr.clear();
}

}  // namespace
