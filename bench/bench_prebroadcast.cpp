// E3 — prebroadcast_vs_ondemand: real-time demonstration feasibility
// (claim C1).
//
// A lecture is a timed schedule of BLOBs (playout deadlines every 2
// simulated minutes). Three strategies per student station:
//   push       — the instructor pre-broadcasts everything before class;
//   on-demand  — each BLOB is fetched from the instructor at its deadline;
//   prefetch-1 — on-demand with one-BLOB lookahead.
// Metrics: startup latency, stall count, total stall time. Paper shape:
// pre-broadcast plays stall-free where on-demand stalls on every large
// clip, because a 10 Mb/s link needs ~8.4 s per 10 MB BLOB.
#include <cstdio>

#include "sim_cluster.hpp"

using namespace wdoc;
using namespace wdoc::bench;

namespace {

struct PlaybackResult {
  double startup_s = 0;     // delay before the first item can play
  int stalls = 0;           // deadlines missed
  double stall_time_s = 0;  // total time spent waiting past deadlines
};

// Plays the manifest at `student`, fetching each blob from the instructor
// when `lookahead` items before its deadline (SIZE_MAX = everything was
// preloaded by a broadcast).
PlaybackResult play_on_demand(SimCluster& cluster, const dist::DocManifest& doc,
                              std::size_t student, std::size_t lookahead) {
  PlaybackResult out;
  auto& net = cluster.net();
  SimTime class_start = net.now();
  // Arrival time per blob index.
  std::vector<SimTime> arrival(doc.blobs.size(), SimTime::zero());
  std::vector<bool> arrived(doc.blobs.size(), false);

  // Issue the fetch for blob i at (deadline of i - lookahead items)'s time;
  // lookahead 0 = fetch exactly at the deadline.
  for (std::size_t i = 0; i < doc.blobs.size(); ++i) {
    std::size_t issue_at_item = i >= lookahead ? i - lookahead : 0;
    SimTime issue_time =
        class_start + SimTime::millis(doc.blobs[issue_at_item].playout_ms.value_or(0));
    net.schedule_at(issue_time, [&, i] {
      cluster.node(student)
          .fetch_blob(cluster.id(0), doc.doc_key, doc.blobs[i],
                      [&, i](Result<dist::BlobRef> r, SimTime at) {
                        if (r.is_ok()) {
                          arrival[i] = at;
                          arrived[i] = true;
                        }
                      })
          .expect("fetch_blob");
    });
  }
  net.run();

  // Score against deadlines.
  for (std::size_t i = 0; i < doc.blobs.size(); ++i) {
    SimTime deadline = class_start + SimTime::millis(doc.blobs[i].playout_ms.value_or(0));
    if (!arrived[i]) {
      out.stalls++;
      continue;
    }
    if (i == 0) out.startup_s = (arrival[0] - class_start).as_seconds();
    if (arrival[i] > deadline) {
      out.stalls++;
      out.stall_time_s += (arrival[i] - deadline).as_seconds();
    }
  }
  return out;
}

// Scale smoke (--n=<stations>): one chunked full-lecture pre-broadcast on a
// binary tree of the requested size. Exercises the O(log n) fabric and the
// zero-copy relay path at populations the E3 matrix never reaches; CI runs
// it at N=1023 (depth 9) under a wall-clock budget and diff-checks the
// payload-copy counters. Returns nonzero if any station misses the lecture.
int run_scale_smoke(std::size_t n) {
  std::printf("=== pre-broadcast scale smoke: N=%zu, binary tree ===\n", n);
  SimCluster cluster(n, 2, kCampusLink);
  // A modest lecture: the point is fan-out breadth, not per-link volume.
  auto doc = make_lecture("http://mmu.edu/lec-scale", 2ull << 20, cluster.id(0), 4);
  cluster.node(0).broadcast_push(doc).expect("push");
  cluster.net().run();
  const std::size_t delivered = cluster.count_materialized(doc.doc_key);
  std::printf("delivered %zu/%zu, sim makespan %.2f s\n", delivered, n,
              cluster.net().now().as_seconds());
  std::printf("payload copies: %llu (%llu bytes)\n",
              static_cast<unsigned long long>(net::Payload::copies_total()),
              static_cast<unsigned long long>(net::Payload::bytes_copied_total()));
  return delivered == n ? 0 : 1;
}

// Strips --n=<stations> from argv; 0 = not present.
std::size_t scale_arg(int& argc, char** argv) {
  std::size_t n = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<std::size_t>(std::strtoull(arg.c_str() + 4, nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  MetricsDump metrics(argc, argv);
  if (std::size_t n = scale_arg(argc, argv); n != 0) return run_scale_smoke(n);
  std::printf("=== E3: pre-broadcast vs on-demand lecture playback ===\n");
  std::printf("lecture: 15 BLOBs, deadline every 120 s; 10 Mb/s links\n\n");

  for (std::uint64_t blob_mb : {2ull, 10ull, 25ull}) {
    std::printf("BLOB size %llu MB (total %llu MB)\n",
                static_cast<unsigned long long>(blob_mb),
                static_cast<unsigned long long>(blob_mb * 15));
    std::printf("  %-22s %12s %8s %14s\n", "strategy", "startup(s)", "stalls",
                "stall time(s)");

    const std::size_t kStudent = 5;

    // Strategy 1a: chunked pipelined pre-broadcast (the default). Everything
    // is local before class starts; interior stations relay each verified
    // chunk before the next arrives.
    {
      SimCluster cluster(8, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", (blob_mb * 15) << 20, cluster.id(0), 15);
      cluster.node(0).broadcast_push(doc).expect("push");
      cluster.net().run();
      double preload_s = cluster.net().now().as_seconds();
      bool local = cluster.store(kStudent).has_materialized(doc.doc_key);
      // All deadlines met from the local copy: zero stalls by construction;
      // report the preload cost as context.
      std::printf("  %-22s %12.2f %8d %14.2f   (preload took %.1f s before class)\n",
                  "pre-broadcast", 0.0, local ? 0 : 15, 0.0, preload_s);
    }

    // Strategy 1b: the historical whole-manifest store-and-forward push —
    // each hop waits for the entire lecture before forwarding.
    {
      SimCluster cluster(8, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", (blob_mb * 15) << 20, cluster.id(0), 15);
      cluster.node(0).broadcast_push_store_forward(doc).expect("push");
      cluster.net().run();
      double preload_s = cluster.net().now().as_seconds();
      bool local = cluster.store(kStudent).has_materialized(doc.doc_key);
      std::printf("  %-22s %12.2f %8d %14.2f   (preload took %.1f s before class)\n",
                  "pre-broadcast (s&f)", 0.0, local ? 0 : 15, 0.0, preload_s);
    }

    // Strategy 2: pure on-demand at each deadline.
    {
      SimCluster cluster(8, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", (blob_mb * 15) << 20, cluster.id(0), 15);
      cluster.store(0).put_instance(doc, false).expect("seed instructor");
      PlaybackResult r = play_on_demand(cluster, doc, kStudent, 0);
      std::printf("  %-22s %12.2f %8d %14.2f\n", "on-demand", r.startup_s, r.stalls,
                  r.stall_time_s);
    }

    // Strategy 3: on-demand with one-item lookahead.
    {
      SimCluster cluster(8, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", (blob_mb * 15) << 20, cluster.id(0), 15);
      cluster.store(0).put_instance(doc, false).expect("seed instructor");
      PlaybackResult r = play_on_demand(cluster, doc, kStudent, 1);
      std::printf("  %-22s %12.2f %8d %14.2f\n", "on-demand+prefetch1", r.startup_s,
                  r.stalls, r.stall_time_s);
    }
    std::printf("\n");
  }

  // C1 at depth: the same 10 MB-per-BLOB lecture, but the student sits at
  // the deepest leaf of progressively taller binary trees. On-demand cost
  // is depth-independent (the fetch tunnels to the instructor), while the
  // pre-broadcast preload pays the tree — so this isolates how the chunked
  // relay keeps deep trees affordable where store-and-forward cannot.
  std::printf("depth scaling (10 MB BLOBs, deepest student, m=2)\n");
  std::printf("  %6s %6s %16s %18s %14s\n", "N", "depth", "chunked preload(s)",
              "s&f preload(s)", "on-demand stalls");
  for (std::size_t n : {8u, 63u, 255u, 1023u}) {
    const std::size_t student = n - 1;
    double chunked_s = 0, sf_s = 0;
    int stalls = 0;
    {
      SimCluster cluster(n, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", 150ull << 20, cluster.id(0), 15);
      cluster.node(0).broadcast_push(doc).expect("push");
      cluster.net().run();
      chunked_s = cluster.net().now().as_seconds();
      if (!cluster.store(student).has_materialized(doc.doc_key)) stalls = -1;
    }
    {
      SimCluster cluster(n, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", 150ull << 20, cluster.id(0), 15);
      cluster.node(0).broadcast_push_store_forward(doc).expect("push");
      cluster.net().run();
      sf_s = cluster.net().now().as_seconds();
    }
    {
      SimCluster cluster(n, 2, kCampusLink);
      auto doc = make_lecture("http://mmu.edu/lec", 150ull << 20, cluster.id(0), 15);
      cluster.store(0).put_instance(doc, false).expect("seed instructor");
      PlaybackResult r = play_on_demand(cluster, doc, student, 0);
      if (stalls == 0) stalls = r.stalls;
    }
    std::size_t depth = 0;
    for (std::size_t p = n; p > 1; p /= 2) ++depth;
    std::printf("  %6zu %6zu %16.1f %18.1f %14d\n", n, depth, chunked_s, sf_s,
                stalls);
  }
  std::printf("\n");

  std::printf("shape check: a 10 Mb/s link moves 10 MB in ~8.4 s, so on-demand\n"
              "startup grows with BLOB size while pre-broadcast stays stall-free;\n"
              "lookahead hides one transfer but not a bandwidth deficit.\n");
  return 0;
}
