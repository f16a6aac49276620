#include "obs/scrape.hpp"

#include <algorithm>
#include <cmath>

namespace wdoc::obs {

namespace {

void encode_sample(Writer& w, const MetricSample& s) {
  w.str(s.name);
  w.u32(static_cast<std::uint32_t>(s.labels.size()));
  for (const auto& [k, v] : s.labels) {
    w.str(k);
    w.str(v);
  }
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.f64(s.value);
  w.u64(s.hist_count);
  w.f64(s.hist_sum);
  w.u32(static_cast<std::uint32_t>(s.hist_buckets.size()));
  for (std::size_t i = 0; i < s.hist_buckets.size(); ++i) {
    const auto& [le, c] = s.hist_buckets[i];
    // +inf has no finite encoding on the wire; the last bucket's bound is
    // reconstructed from the sentinel.
    w.boolean(std::isinf(le));
    w.f64(std::isinf(le) ? 0.0 : le);
    w.u64(c);
    // Bucket exemplar trace id (0 = none) rides along so a scraped
    // single-station snapshot renders the same JSON as a local one.
    w.u64(i < s.hist_exemplars.size() ? s.hist_exemplars[i] : 0);
  }
}

Result<MetricSample> decode_sample(Reader& r) {
  MetricSample s;
  auto name = r.str();
  if (!name) return name.error();
  s.name = std::move(name).value();
  auto nlabels = r.count(8);
  if (!nlabels) return nlabels.error();
  for (std::uint32_t i = 0; i < nlabels.value(); ++i) {
    auto k = r.str();
    if (!k) return k.error();
    auto v = r.str();
    if (!v) return v.error();
    s.labels.emplace(std::move(k).value(), std::move(v).value());
  }
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(MetricSample::Kind::histogram)) {
    return Error{Errc::corrupt, "bad metric kind"};
  }
  s.kind = static_cast<MetricSample::Kind>(kind.value());
  auto value = r.f64();
  auto hcount = r.u64();
  auto hsum = r.f64();
  if (!value || !hcount || !hsum) return Error{Errc::corrupt, "bad metric sample"};
  s.value = value.value();
  s.hist_count = hcount.value();
  s.hist_sum = hsum.value();
  auto nbuckets = r.count(17);
  if (!nbuckets) return nbuckets.error();
  s.hist_buckets.reserve(nbuckets.value());
  s.hist_exemplars.reserve(nbuckets.value());
  for (std::uint32_t i = 0; i < nbuckets.value(); ++i) {
    auto inf = r.boolean();
    if (!inf) return inf.error();
    auto le = r.f64();
    if (!le) return le.error();
    auto c = r.u64();
    if (!c) return c.error();
    auto ex = r.u64();
    if (!ex) return ex.error();
    s.hist_buckets.emplace_back(
        inf.value() ? std::numeric_limits<double>::infinity() : le.value(), c.value());
    s.hist_exemplars.push_back(ex.value());
  }
  return s;
}

}  // namespace

void encode_snapshot(Writer& w, const Snapshot& snap) {
  w.u32(static_cast<std::uint32_t>(snap.samples.size()));
  for (const MetricSample& s : snap.samples) encode_sample(w, s);
}

Result<Snapshot> decode_snapshot(Reader& r) {
  Snapshot out;
  auto n = r.count(30);  // a sample is at least ~30 bytes on the wire
  if (!n) return n.error();
  out.samples.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto s = decode_sample(r);
    if (!s) return s.error();
    out.samples.push_back(std::move(s).value());
  }
  return out;
}

void merge_snapshot(Snapshot& dst, const Snapshot& src) {
  Snapshot out;
  out.samples.reserve(dst.samples.size() + src.samples.size());
  std::size_t i = 0, j = 0;
  while (i < dst.samples.size() || j < src.samples.size()) {
    if (j >= src.samples.size() ||
        (i < dst.samples.size() && dst.samples[i].key() < src.samples[j].key())) {
      out.samples.push_back(std::move(dst.samples[i++]));
      continue;
    }
    if (i >= dst.samples.size() || src.samples[j].key() < dst.samples[i].key()) {
      out.samples.push_back(src.samples[j++]);
      continue;
    }
    // Same key: combine. Kind mismatches keep dst's kind — they can only
    // come from a misbehaving peer, and the merge must stay total.
    MetricSample merged = std::move(dst.samples[i++]);
    const MetricSample& other = src.samples[j++];
    // Exemplars are dropped on merge: a cross-station sum has no single
    // trace that explains the bucket, so naming one would mislead.
    merged.hist_exemplars.clear();
    merged.value += other.value;
    merged.hist_count += other.hist_count;
    merged.hist_sum += other.hist_sum;
    // Buckets are (upper bound, count) pairs sorted by bound; merge-add.
    std::vector<std::pair<double, std::uint64_t>> buckets;
    buckets.reserve(merged.hist_buckets.size() + other.hist_buckets.size());
    std::size_t a = 0, b = 0;
    while (a < merged.hist_buckets.size() || b < other.hist_buckets.size()) {
      if (b >= other.hist_buckets.size() ||
          (a < merged.hist_buckets.size() &&
           merged.hist_buckets[a].first < other.hist_buckets[b].first)) {
        buckets.push_back(merged.hist_buckets[a++]);
      } else if (a >= merged.hist_buckets.size() ||
                 other.hist_buckets[b].first < merged.hist_buckets[a].first) {
        buckets.push_back(other.hist_buckets[b++]);
      } else {
        buckets.emplace_back(merged.hist_buckets[a].first,
                             merged.hist_buckets[a].second + other.hist_buckets[b].second);
        ++a;
        ++b;
      }
    }
    merged.hist_buckets = std::move(buckets);
    out.samples.push_back(std::move(merged));
  }
  dst = std::move(out);
}

double counter_total(const Snapshot& snap, std::string_view name) {
  double total = 0;
  for (const MetricSample& s : snap.samples) {
    if (s.kind == MetricSample::Kind::counter && s.name == name) total += s.value;
  }
  return total;
}

}  // namespace wdoc::obs
