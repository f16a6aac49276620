#include "common/sim_time.hpp"

#include <cstdio>

namespace wdoc {

std::string SimTime::to_string() const {
  char buf[48];
  if (us_ >= 1000000 || us_ <= -1000000) {
    std::snprintf(buf, sizeof buf, "%.3fs", as_seconds());
  } else if (us_ >= 1000 || us_ <= -1000) {
    std::snprintf(buf, sizeof buf, "%.3fms", as_millis());
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(us_));
  }
  return buf;
}

}  // namespace wdoc
