// wdoc_suite: the benchmark driver. One workload per process, so registry
// counters read by the workload are exact.
//
//   wdoc_suite --workload=<name> [--seed=<n>] [--seconds=<s>] [--scale=<f>]
//              [--trace=<dir>] [--workdir=<dir>] [--setup-only]
//
// Prints one `<workload> <metric> <value> <unit>` line per metric, then a
// JSON summary as the last line. Exits 1 when an output check failed and 2
// on a usage error. --setup-only times the workload's setup, reports only
// setup_s and exits. run.py (next to this file) builds and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "suite.hpp"

using namespace wdoc::suite;

namespace {

const std::map<std::string, std::function<Report(const Options&)>>& workloads() {
  static const std::map<std::string, std::function<Report(const Options&)>> kWorkloads = {
      {"gateway", [](const Options& o) { return run_gateway(o); }},
      {"commit", [](const Options& o) { return run_commit(o); }},
      {"lecture_preload", [](const Options& o) { return run_lecture(o, false); }},
      {"lecture_swarm", [](const Options& o) { return run_lecture(o, true); }},
  };
  return kWorkloads;
}

bool take(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_json_metrics(const char* key, const std::map<std::string, Metric>& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}", first ? "" : ",", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (take(argv[i], "--workload", v)) {
      opt.workload = v;
    } else if (take(argv[i], "--seed", v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (take(argv[i], "--seconds", v)) {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--scale", v)) {
      opt.scale = std::strtod(v.c_str(), nullptr);
    } else if (take(argv[i], "--trace", v)) {
      opt.trace_dir = v;
    } else if (take(argv[i], "--workdir", v)) {
      opt.work_dir = v;
    } else if (std::strcmp(argv[i], "--setup-only") == 0) {
      opt.setup_only = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  auto it = workloads().find(opt.workload);
  if (it == workloads().end() || opt.seconds <= 0 || opt.scale <= 0 || opt.scale > 1) {
    std::fprintf(stderr, "usage: wdoc_suite --workload=<name> [--seed=<n>] [--seconds=<s>] "
                         "[--scale=<0..1>] [--trace=<dir>] [--workdir=<dir>] "
                         "[--setup-only]\nworkloads:");
    for (const auto& [name, fn] : workloads()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (opt.work_dir.empty()) opt.work_dir = ".";

  const Report r = it->second(opt);

  for (const auto* m : {&r.metrics, &r.layers}) {
    for (const auto& [name, metric] : *m) {
      std::printf("%s %s %.10g %s\n", opt.workload.c_str(), name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const std::string& e : r.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"errors\":[",
              opt.workload.c_str(), r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", json_escape(r.errors[i]).c_str());
  }
  std::printf("]");
  print_json_metrics("metrics", r.metrics);
  print_json_metrics("layers", r.layers);
  std::printf("}\n");
  return r.correct() ? 0 : 1;
}
