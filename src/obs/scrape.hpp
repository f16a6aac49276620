// wdoc_obs — cluster scrape support: snapshot wire format and merging.
//
// A metrics Snapshot travels the fabric as a length-prefixed sample list
// (obs.scrape_rsp payload). Stations tag their samples with a `station`
// label before replying, and intermediate tree nodes merge child responses
// into their own on the way back up, so the root (or the class
// administrator) ends up holding one cluster-wide snapshot whose shape is
// identical to a local MetricsRegistry::snapshot() — the existing text
// table / stable JSON exporters apply unchanged.
#pragma once

#include "common/serialize.hpp"
#include "obs/metrics.hpp"

namespace wdoc::obs {

// Appends every sample to `w`. Inverse of decode_snapshot.
void encode_snapshot(Writer& w, const Snapshot& snap);
[[nodiscard]] Result<Snapshot> decode_snapshot(Reader& r);

// Hierarchical aggregation: folds `src` into `dst`. Samples with the same
// (name, labels) key combine — counters and gauges add, histograms add
// their counts/sums/buckets; samples unique to either side pass through.
// Keys keep their sorted order, so merged snapshots export byte-stably.
void merge_snapshot(Snapshot& dst, const Snapshot& src);

// Sum of `name` counter values across all label sets in `snap` (0 when
// absent). Convenience for tests and summaries over per-station samples.
[[nodiscard]] double counter_total(const Snapshot& snap, std::string_view name);

}  // namespace wdoc::obs
