#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/result.hpp"

namespace wdoc::obs {

// --- Histogram --------------------------------------------------------------

double Histogram::upper_bound(std::size_t i) {
  WDOC_CHECK(i < kBuckets, "histogram bucket out of range");
  if (i == kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i));  // 2^i
}

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 1.0)) return 0;  // v <= 1, NaN, negatives
  int exp = 0;
  // frexp: v = frac * 2^exp with frac in [0.5, 1). v <= 2^i iff i >= exp,
  // except exact powers of two (frac == 0.5) which belong one bucket lower.
  double frac = std::frexp(v, &exp);
  std::size_t b = frac == 0.5 ? static_cast<std::size_t>(exp - 1)
                              : static_cast<std::size_t>(exp);
  return std::min(b, kBuckets - 1);
}

void Histogram::observe(double v, std::uint64_t exemplar_trace_id) {
  const std::size_t b = bucket_of(v);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_trace_id != 0) {
    exemplars_[b].store(exemplar_trace_id, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(std::isfinite(v) ? v : 0.0, std::memory_order_relaxed);
}

// --- keys -------------------------------------------------------------------

namespace {

std::string make_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {  // std::map: already sorted
      if (!first) key += ',';
      first = false;
      key += k;
      key += '=';
      key += v;
    }
    key += '}';
  }
  return key;
}

}  // namespace

std::string MetricSample::key() const { return make_key(name, labels); }

// --- MetricsRegistry --------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

MetricsRegistry::Shard& MetricsRegistry::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        const Labels& labels,
                                                        MetricSample::Kind kind) {
  std::string key = make_key(name, labels);
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> g(sh.mu);
  auto it = sh.entries.find(key);
  if (it == sh.entries.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case MetricSample::Kind::counter: e.counter = std::make_unique<Counter>(); break;
      case MetricSample::Kind::gauge: e.gauge = std::make_unique<Gauge>(); break;
      case MetricSample::Kind::histogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = sh.entries.emplace(std::move(key), std::move(e)).first;
  }
  WDOC_CHECK(it->second.kind == kind, "metric re-registered with different kind: " +
                                          it->first);
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, MetricSample::Kind::counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, MetricSample::Kind::gauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const Labels& labels) {
  return *find_or_create(name, labels, MetricSample::Kind::histogram).histogram;
}

namespace {

// Splits "name{k=v,...}" back into (name, labels) for the snapshot.
std::pair<std::string, Labels> parse_key(const std::string& key) {
  auto brace = key.find('{');
  if (brace == std::string::npos) return {key, {}};
  std::string name = key.substr(0, brace);
  Labels labels;
  std::string body = key.substr(brace + 1, key.size() - brace - 2);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    std::string item = body.substr(pos, comma - pos);
    auto eq = item.find('=');
    if (eq != std::string::npos) labels[item.substr(0, eq)] = item.substr(eq + 1);
    pos = comma + 1;
  }
  return {std::move(name), std::move(labels)};
}

}  // namespace

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> g(sh.mu);
    for (const auto& [key, entry] : sh.entries) {
      MetricSample s;
      auto [name, labels] = parse_key(key);
      s.name = std::move(name);
      s.labels = std::move(labels);
      s.kind = entry.kind;
      switch (entry.kind) {
        case MetricSample::Kind::counter:
          s.value = static_cast<double>(entry.counter->value());
          break;
        case MetricSample::Kind::gauge:
          s.value = static_cast<double>(entry.gauge->value());
          break;
        case MetricSample::Kind::histogram: {
          const Histogram& h = *entry.histogram;
          s.hist_count = h.count();
          s.hist_sum = h.sum();
          for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
            std::uint64_t c = h.bucket_count(i);
            if (c != 0) {
              s.hist_buckets.emplace_back(Histogram::upper_bound(i), c);
              s.hist_exemplars.push_back(h.exemplar(i));
            }
          }
          break;
        }
      }
      out.samples.push_back(std::move(s));
    }
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.key() < b.key(); });
  return out;
}

// --- exporters --------------------------------------------------------------

namespace {

// Fixed-notation formatting without trailing zeros; integers print bare.
std::string fmt_num(double v) {
  if (std::isinf(v)) return v > 0 ? "\"+inf\"" : "\"-inf\"";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void append_name_labels(std::string& out, const MetricSample& s) {
  out += "\"name\":\"";
  json_escape(out, s.name);
  out += "\",\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : s.labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape(out, k);
    out += "\":\"";
    json_escape(out, v);
    out += '"';
  }
  out += '}';
}

}  // namespace

std::string to_table(const Snapshot& snap) {
  std::size_t width = 4;
  for (const MetricSample& s : snap.samples) width = std::max(width, s.key().size());
  std::ostringstream os;
  char line[256];
  for (const MetricSample& s : snap.samples) {
    switch (s.kind) {
      case MetricSample::Kind::counter:
      case MetricSample::Kind::gauge:
        std::snprintf(line, sizeof line, "  %-*s %16.0f\n", static_cast<int>(width),
                      s.key().c_str(), s.value);
        break;
      case MetricSample::Kind::histogram:
        std::snprintf(line, sizeof line,
                      "  %-*s count=%llu mean=%.1f sum=%.0f buckets=%zu\n",
                      static_cast<int>(width), s.key().c_str(),
                      static_cast<unsigned long long>(s.hist_count),
                      s.hist_count ? s.hist_sum / static_cast<double>(s.hist_count) : 0.0,
                      s.hist_sum, s.hist_buckets.size());
        break;
    }
    os << line;
  }
  return os.str();
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n\"counters\":[";
  bool first = true;
  for (const MetricSample& s : snap.samples) {
    if (s.kind != MetricSample::Kind::counter) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += '{';
    append_name_labels(out, s);
    out += ",\"value\":" + fmt_num(s.value) + '}';
  }
  out += "\n],\n\"gauges\":[";
  first = true;
  for (const MetricSample& s : snap.samples) {
    if (s.kind != MetricSample::Kind::gauge) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += '{';
    append_name_labels(out, s);
    out += ",\"value\":" + fmt_num(s.value) + '}';
  }
  out += "\n],\n\"histograms\":[";
  first = true;
  for (const MetricSample& s : snap.samples) {
    if (s.kind != MetricSample::Kind::histogram) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += '{';
    append_name_labels(out, s);
    out += ",\"count\":" + fmt_num(static_cast<double>(s.hist_count));
    out += ",\"sum\":" + fmt_num(s.hist_sum);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < s.hist_buckets.size(); ++i) {
      const auto& [le, c] = s.hist_buckets[i];
      if (i != 0) out += ',';
      out += "{\"le\":" + fmt_num(le) + ",\"count\":" + fmt_num(static_cast<double>(c));
      if (i < s.hist_exemplars.size() && s.hist_exemplars[i] != 0) {
        out += ",\"exemplar\":" + std::to_string(s.hist_exemplars[i]);
      }
      out += '}';
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

bool write_json_file(const std::string& path) {
  std::string body = to_json(MetricsRegistry::global().snapshot());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    WDOC_ERROR("metrics: cannot open %s", path.c_str());
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) WDOC_ERROR("metrics: short write to %s", path.c_str());
  return ok;
}

std::string metrics_json_arg(int& argc, char** argv, bool strip) {
  constexpr std::string_view kFlag = "--metrics-json=";
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind(kFlag, 0) == 0) {
      path = std::string(arg.substr(kFlag.size()));
      if (strip) continue;
    }
    argv[out++] = argv[i];
  }
  if (strip) argc = out;
  return path;
}

}  // namespace wdoc::obs
