#include "suite.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace wdoc::suite {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double median_of_percentiles(std::vector<std::vector<double>> groups, double p) {
  std::vector<double> per_group;
  for (std::vector<double>& g : groups) {
    if (!g.empty()) per_group.push_back(percentile(std::move(g), p));
  }
  return median(std::move(per_group));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double layer_sum_ratio(const std::vector<double>& total,
                       const std::vector<std::vector<double>>& stages) {
  const double lo = percentile(total, 0.45);
  const double hi = percentile(total, 0.55);
  double typical = 0;
  for (const std::vector<double>& stage : stages) {
    std::vector<double> mid;
    for (std::size_t i = 0; i < total.size(); ++i) {
      if (total[i] >= lo && total[i] <= hi) mid.push_back(stage[i]);
    }
    typical += median(std::move(mid));
  }
  const double p50 = median(total);
  return p50 > 0 ? typical / p50 : 0;
}

bool write_chrome_trace(const std::string& path, const std::vector<TraceEvent>& events,
                        const std::map<std::string, double>& aggregates) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  std::int64_t origin = INT64_MAX;
  for (const TraceEvent& e : events) origin = std::min(origin, e.start_ns);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", e.name.c_str(), static_cast<unsigned long long>(e.tid),
                 static_cast<double>(e.start_ns - origin) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3);
  }
  std::fprintf(f, "\n],\"otherData\":{");
  bool first = true;
  for (const auto& [name, value] : aggregates) {
    std::fprintf(f, "%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace wdoc::suite
