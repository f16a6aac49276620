// E2 — broadcast_fanout: efficiency of the m-ary pre-broadcast (claim C2).
//
// Sweeps tree fan-out m for several class sizes N and reports the simulated
// makespan (time until the last station holds the lecture) and the
// instructor-uplink bytes. Paper shape to reproduce: moderate m beats both
// the chain (m=1) and the star (unicast from the instructor) once N grows,
// because the chain pays depth x serialization and the star serializes all
// N transfers through one uplink.
//
// --swarm runs only the E2b three-way strategy sweep (store-and-forward vs
// pipelined vs swarm mode) and enforces the swarm acceptance bars: makespan
// within 1.5x the bandwidth lower bound and every station materialized.
// CI drift-checks its --metrics-json dump against BENCH_swarm.json.
#include <cstdio>
#include <cstring>

#include "sim_cluster.hpp"

using namespace wdoc;
using namespace wdoc::bench;

namespace {

struct RunResult {
  double makespan_s = 0;
  double root_mb = 0;
  std::uint64_t depth = 0;
  bool complete = false;
};

enum class Strategy { store_forward, pipelined, swarm };

RunResult run_broadcast(std::size_t n, std::uint64_t m, std::uint64_t lecture_bytes,
                        Strategy strategy) {
  dist::StationConfig cfg;
  if (strategy == Strategy::swarm) {
    cfg.swarm.enabled = true;
    cfg.swarm.trees = static_cast<std::uint32_t>(m);
  }
  SimCluster cluster(n, m, kCampusLink, cfg);
  auto doc = make_lecture("http://mmu.edu/lecture", lecture_bytes, cluster.id(0));
  if (strategy == Strategy::store_forward) {
    cluster.node(0).broadcast_push_store_forward(doc).expect("push");
  } else {
    cluster.node(0).broadcast_push(doc).expect("push");
  }
  cluster.net().run();
  RunResult out;
  // Swarm gossip idles on for a few rounds after the last delivery, so
  // makespan is the slowest station's delivery time, not net.now().
  if (strategy == Strategy::swarm) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      out.makespan_s =
          std::max(out.makespan_s, cluster.node(i).last_delivery().as_seconds());
    }
  } else {
    out.makespan_s = cluster.net().now().as_seconds();
  }
  out.root_mb = static_cast<double>(cluster.net().stats(cluster.id(0)).bytes_sent) / 1e6;
  out.depth = dist::tree_depth(n, m);
  out.complete = cluster.count_materialized(doc.doc_key) == n;
  return out;
}

// E2b: the swarm acceptance sweep (ISSUE 10). One 10 MB lecture to N=63
// stations, three strategies on identical links. The bandwidth lower bound
// is the VoD-paper floor for any single-source distribution on homogeneous
// links: every receiver must pull all B bytes through its downlink, and the
// source must push all B bytes at least once through its uplink, so
// T* >= 8B / min(up, down). Swarm mode must land within 1.5x of it.
int run_swarm_sweep() {
  const std::size_t n = 63;
  const std::uint64_t m = 2;
  const std::uint64_t lecture_bytes = 10 << 20;
  const double bound_s = 8.0 * static_cast<double>(lecture_bytes) /
                         std::min(kCampusLink.up_bps, kCampusLink.down_bps);
  std::printf("=== E2b: strategy sweep at N=%zu, m=%llu (10 MB lecture) ===\n", n,
              static_cast<unsigned long long>(m));
  std::printf("bandwidth lower bound: %.2f s\n\n", bound_s);
  std::printf("  %18s %12s %12s %10s\n", "strategy", "makespan(s)", "vs bound",
              "complete");
  struct Row {
    const char* name;
    Strategy strategy;
  };
  const Row rows[] = {{"store-and-forward", Strategy::store_forward},
                      {"pipelined", Strategy::pipelined},
                      {"swarm", Strategy::swarm}};
  double swarm_ratio = 0;
  bool all_complete = true;
  for (const Row& row : rows) {
    RunResult r = run_broadcast(n, m, lecture_bytes, row.strategy);
    const double ratio = r.makespan_s / bound_s;
    std::printf("  %18s %12.2f %11.2fx %10s\n", row.name, r.makespan_s, ratio,
                r.complete ? "yes" : "NO");
    if (row.strategy == Strategy::swarm) swarm_ratio = ratio;
    all_complete = all_complete && r.complete;
  }
  std::printf("\n");
  if (!all_complete) {
    std::printf("FAIL: a strategy left stations without the lecture\n");
    return 1;
  }
  if (swarm_ratio > 1.5) {
    std::printf("FAIL: swarm makespan %.2fx the bandwidth bound (budget 1.5x)\n",
                swarm_ratio);
    return 1;
  }
  std::printf("swarm makespan within %.2fx of the bandwidth lower bound (<= 1.5x)\n",
              swarm_ratio);
  return 0;
}

// Strips --swarm from argv.
bool swarm_arg(int& argc, char** argv) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--swarm") == 0) {
      found = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return found;
}

}  // namespace

int main(int argc, char** argv) {
  MetricsDump metrics(argc, argv);
  if (swarm_arg(argc, argv)) return run_swarm_sweep();
  std::printf("=== E2: pre-broadcast makespan vs tree fan-out m ===\n");
  std::printf("10 MB lecture, 10 Mb/s station links, 30 ms RTT\n\n");
  const std::uint64_t lecture_bytes = 10 << 20;

  // 1023 at m=2 is a depth-9 tree — the regime the O(log n) event fabric
  // and zero-copy relay were built for.
  for (std::size_t n : {15u, 63u, 255u, 1023u}) {
    std::printf("N = %zu stations\n", n);
    std::printf("  %10s %8s %14s %14s %9s %18s %10s\n", "m", "depth",
                "store-fwd(s)", "pipelined(s)", "speedup", "root uplink(MB)",
                "complete");
    double chain = 0, best = 1e18, star = 0;
    std::uint64_t best_m = 1;
    for (std::uint64_t m : {1ull, 2ull, 3ull, 4ull, 8ull,
                            static_cast<unsigned long long>(n - 1)}) {
      RunResult sf = run_broadcast(n, m, lecture_bytes, Strategy::store_forward);
      RunResult pl = run_broadcast(n, m, lecture_bytes, Strategy::pipelined);
      const char* tag = m == 1 ? "chain" : (m == n - 1 ? "star" : "");
      std::printf("  %4llu %5s %8llu %14.2f %14.2f %8.1fx %18.1f %10s\n",
                  static_cast<unsigned long long>(m), tag,
                  static_cast<unsigned long long>(sf.depth), sf.makespan_s,
                  pl.makespan_s, sf.makespan_s / pl.makespan_s, pl.root_mb,
                  (sf.complete && pl.complete) ? "yes" : "NO");
      if (m == 1) chain = pl.makespan_s;
      if (m == n - 1) star = pl.makespan_s;
      if (pl.makespan_s < best) {
        best = pl.makespan_s;
        best_m = m;
      }
    }
    std::printf("  -> best m = %llu (pipelined): %.1fx faster than the chain, "
                "%.1fx faster than the star\n\n",
                static_cast<unsigned long long>(best_m), chain / best, star / best);
  }

  std::printf("model cross-check: estimate_makespan_s argmin (choose_m) per N\n");
  for (std::size_t n : {15u, 63u, 255u, 1023u}) {
    std::printf("  N=%5zu -> choose_m = %llu\n", n,
                static_cast<unsigned long long>(
                    dist::choose_m(n, lecture_bytes, kCampusLink.up_bps, 0.03)));
  }
  return 0;
}
