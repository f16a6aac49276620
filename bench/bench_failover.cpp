// E-failover: lecture recovery under faults (the rpc-lifecycle redesign's
// headline experiment).
//
// A 13-station m=3 tree distributes a lecture while (a) the root's links
// suffer an injected loss burst and (b) the interior station at tree
// position 2 crashes mid-push, orphaning the subtree at positions 5-7. The
// orphans' rpc attempt-timeouts drive the failure detector; after the
// threshold they reparent to the grandparent (the root, by the paper's
// ⌊(k−i−1)/m⌋+1 applied twice) and the repair loop pulls the lecture
// around the dead station. Metrics: rounds and simulated time to converge,
// failovers, the push's chunk resends, the rpc retries and timeouts of the
// fetches and chunk pulls, and repair traffic.
#include <cstdio>

#include "dist/lecture.hpp"
#include "net/fault.hpp"
#include "sim_cluster.hpp"

using namespace wdoc;
using namespace wdoc::bench;

namespace {

struct FailoverResult {
  int rounds = 0;             // repair passes until every online station holds it
  double recovery_s = 0;      // simulated time at convergence
  bool converged = false;
  std::uint64_t failovers = 0;
  std::uint64_t resends = 0;  // pushed chunks resent by their parent's cursor
  std::uint64_t retries = 0;
  std::uint64_t attempt_timeouts = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t wire_mb = 0;
};

FailoverResult run_drill(double loss, bool crash) {
  // Tight lifecycle knobs so recovery happens on a seconds scale.
  dist::StationConfig cfg;
  cfg.rpc.deadline = SimTime::millis(500);
  cfg.rpc.backoff.initial = SimTime::millis(100);
  cfg.rpc.backoff.cap = SimTime::seconds(1);
  // Payload-scaled deadlines use the real link speed, so a 4 MB pull gets
  // ~3.4 s per attempt instead of the conservative 1 Mb/s default.
  cfg.min_bandwidth_bps = kCampusLink.up_bps;

  SimCluster cluster(13, 3, kCampusLink, cfg, /*seed=*/4242);
  auto doc = make_lecture("http://mmu.edu/failover/lec", 4 << 20, cluster.id(0));
  cluster.store(0).put_instance(doc, false).expect("instructor copy");

  net::FaultPlan plan;
  if (loss > 0.0) {
    plan.loss_bursts.push_back(
        {cluster.id(0), loss, SimTime::millis(1), SimTime::seconds(30)});
  }
  if (crash) {
    // Station index 1 = tree position 2, parent of positions 5-7.
    plan.crashes.push_back({cluster.id(1), SimTime::millis(2), SimTime::zero()});
  }
  if (!plan.empty()) cluster.net().inject(plan).expect("inject");

  std::vector<dist::StationNode*> audience;
  for (std::size_t i = 1; i < cluster.size(); ++i) audience.push_back(&cluster.node(i));
  dist::LectureSession lecture(LectureId{1}, doc, cluster.node(0), audience);
  lecture.begin().expect("begin");
  cluster.net().run();

  auto online_converged = [&] {
    for (std::size_t i = 1; i < cluster.size(); ++i) {
      if (!cluster.node(i).online()) continue;
      if (!cluster.store(i).has_materialized(doc.doc_key)) return false;
    }
    return true;
  };

  FailoverResult r;
  while (!online_converged() && r.rounds < 60) {
    lecture.repair().expect("repair");
    cluster.net().run();
    ++r.rounds;
  }
  r.converged = online_converged();
  r.recovery_s = cluster.net().now().as_seconds();
  r.wire_mb = cluster.net().total_bytes_on_wire() >> 20;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    r.failovers += cluster.node(i).stats().failovers;
    r.resends += cluster.node(i).stats().chunk_retransmits;
    const net::RpcStats st = cluster.node(i).rpc_stats();
    r.retries += st.retries;
    r.attempt_timeouts += st.attempt_timeouts;
    r.exhausted += st.exhausted;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  MetricsDump metrics(argc, argv);
  std::printf("=== E-failover: crash + loss recovery on a 13-station m=3 tree ===\n");
  std::printf("4 MB lecture; rpc deadline 500 ms, 3 retries, backoff 100 ms..1 s\n\n");
  std::printf("  %-6s %-6s %8s %12s %10s %8s %8s %9s %10s %8s\n", "loss", "crash",
              "rounds", "recovery(s)", "failovers", "resends", "retries", "timeouts",
              "exhausted", "wire MB");

  auto& reg = obs::MetricsRegistry::global();
  for (double loss : {0.0, 0.1, 0.2}) {
    for (bool crash : {false, true}) {
      FailoverResult r = run_drill(loss, crash);
      std::printf("  %-6.2f %-6s %8d %12.2f %10llu %8llu %8llu %9llu %10llu %8llu%s\n",
                  loss, crash ? "yes" : "no", r.rounds, r.recovery_s,
                  static_cast<unsigned long long>(r.failovers),
                  static_cast<unsigned long long>(r.resends),
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.attempt_timeouts),
                  static_cast<unsigned long long>(r.exhausted),
                  static_cast<unsigned long long>(r.wire_mb),
                  r.converged ? "" : "   (DID NOT CONVERGE)");
      obs::Labels labels{{"loss", std::to_string(static_cast<int>(loss * 100))},
                         {"crash", crash ? "1" : "0"}};
      reg.gauge("failover.repair_rounds", labels).set(r.rounds);
      reg.gauge("failover.recovery_ms", labels)
          .set(static_cast<std::int64_t>(r.recovery_s * 1000.0));
      reg.gauge("failover.rpc_retries", labels)
          .set(static_cast<std::int64_t>(r.retries));
      reg.gauge("failover.failovers", labels)
          .set(static_cast<std::int64_t>(r.failovers));
    }
  }

  std::printf("\nshape check: without faults recovery is one push (0 rounds);\n"
              "loss adds chunk resends but the push still converges; a\n"
              "crashed interior station costs its orphans %u attempt-timeouts\n"
              "before they reparent to the grandparent and pull around it.\n",
              dist::kFailoverThreshold);
  return 0;
}
