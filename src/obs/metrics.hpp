// wdoc_obs — process-wide metrics registry.
//
// Counters, gauges, and fixed-bucket log-scale histograms, addressed by
// (name, label set). Registration/lookup takes a sharded mutex; the
// instruments themselves are plain atomics, so increments on hot paths are
// lock-free and safe under ThreadTransport worker threads. Instrument
// references stay valid for the life of the registry, so call sites may
// cache them.
//
// Two exporters: an aligned text table (examples) and a stable JSON
// snapshot (benches / CI trajectory files, see obs::to_json). Both emit
// entries in sorted key order so repeated exports of the same state are
// byte-identical.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wdoc::obs {

using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void sub(std::int64_t delta) { v_.fetch_sub(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Log-scale histogram with fixed power-of-two bucket boundaries: bucket i
// counts observations v with upper_bound(i-1) < v <= upper_bound(i), where
// upper_bound(i) = 2^i (bucket 0 covers v <= 1, the last bucket covers
// everything above 2^(kBuckets-2), i.e. +inf). Negative observations clamp
// to bucket 0. The unit is whatever the call site observes (we use
// microseconds for latencies); boundaries are deterministic, so snapshots
// diff cleanly across runs.
//
// Each bucket additionally retains an *exemplar*: the trace id of the most
// recent sampled observation that landed in it (see obs/request_trace.hpp).
// A fat p99 bucket in an exported snapshot thereby links to one concrete
// promoted trace instead of an anonymous count. Exemplars are
// station-local: the scrape wire format and hierarchical merge carry only
// counts (a merged exemplar would name a trace the admin cannot resolve).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  // Upper bound of bucket i; +inf for the last bucket.
  [[nodiscard]] static double upper_bound(std::size_t i);
  // Bucket index an observation lands in.
  [[nodiscard]] static std::size_t bucket_of(double v);

  // `exemplar_trace_id`, when nonzero, is retained as the bucket's exemplar
  // (callers pass the trace id only for requests actually promoted to the
  // durable tracer, so exemplars always point at resolvable traces).
  void observe(double v, std::uint64_t exemplar_trace_id = 0);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Most recent sampled trace id observed into bucket i (0 = none yet).
  [[nodiscard]] std::uint64_t exemplar(std::size_t i) const {
    return exemplars_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplars_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// One instrument's exported state.
struct MetricSample {
  std::string name;
  Labels labels;
  enum class Kind { counter, gauge, histogram } kind = Kind::counter;
  double value = 0;               // counter / gauge
  std::uint64_t hist_count = 0;   // histogram
  double hist_sum = 0;
  std::vector<std::pair<double, std::uint64_t>> hist_buckets;  // (upper bound, count), nonzero only
  std::vector<std::uint64_t> hist_exemplars;  // aligned with hist_buckets; 0 = none

  // "name{k=v,k=v}" — the stable sort key used by every exporter.
  [[nodiscard]] std::string key() const;
};

struct Snapshot {
  std::vector<MetricSample> samples;  // sorted by key()
};

class MetricsRegistry {
 public:
  // The process-wide registry every subsystem records into.
  [[nodiscard]] static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(std::string_view name, const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, const Labels& labels = {});
  [[nodiscard]] Histogram& histogram(std::string_view name, const Labels& labels = {});

  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Entry {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;  // key -> instrument
  };
  static constexpr std::size_t kShards = 16;

  [[nodiscard]] Shard& shard_for(const std::string& key);
  [[nodiscard]] Entry& find_or_create(std::string_view name, const Labels& labels,
                                      MetricSample::Kind kind);

  std::array<Shard, kShards> shards_;
};

// --- exporters -------------------------------------------------------------

// Aligned text table, one instrument per row, sorted by key.
[[nodiscard]] std::string to_table(const Snapshot& snap);

// Stable JSON: {"counters":[...],"gauges":[...],"histograms":[...]},
// entries sorted by key; byte-identical for identical snapshots.
[[nodiscard]] std::string to_json(const Snapshot& snap);

// Snapshots the global registry and writes to_json() to `path`.
// Returns false (and logs) on I/O failure.
bool write_json_file(const std::string& path);

// Scans argv for "--metrics-json=<path>" and returns the path (empty if
// absent). If `strip` is set, the flag is removed from argv/argc so that
// downstream parsers (e.g. google-benchmark) never see it.
[[nodiscard]] std::string metrics_json_arg(int& argc, char** argv, bool strip = true);

}  // namespace wdoc::obs
