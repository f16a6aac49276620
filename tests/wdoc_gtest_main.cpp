// Shared gtest main for every wdoc test binary.
//
// Identical to GTest::gtest_main except that a failing test dumps the
// obs flight recorder to stderr, so the structured incident log (deadlocks,
// lock waits, watermark replications, migrations, repairs) from the failing
// run is part of its output. The banner names the first event the failing
// test recorded; the events before it are earlier tests'.
//
// When WDOC_FAIL_ARTIFACT_DIR is set (CI does this), a failing test also
// writes a durable failure artifact there: a Perfetto trace of whatever the
// span tracer holds, so a red run can be debugged from the uploaded
// artifacts without reproducing it locally.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/trace_export.hpp"

namespace {

void write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

class FlightRecorderOnFailure : public testing::EmptyTestEventListener {
 public:
  void OnTestStart(const testing::TestInfo&) override {
    first_event_ = wdoc::obs::FlightRecorder::global().recorded();
  }
  void OnTestEnd(const testing::TestInfo& info) override {
    if (info.result() == nullptr || !info.result()->Failed()) return;
    const std::string name =
        std::string(info.test_suite_name()) + "." + info.name();
    wdoc::obs::FlightRecorder::global().dump_to_stderr(
        ("flight recorder — " + name + " from event " + std::to_string(first_event_))
            .c_str());

    const char* dir = std::getenv("WDOC_FAIL_ARTIFACT_DIR");
    if (dir == nullptr || *dir == '\0') return;
    const std::string base = std::string(dir) + "/" + name;
    write_text_file(base + ".trace.json",
                    wdoc::obs::to_chrome_trace(
                        wdoc::obs::Tracer::global().spans(),
                        wdoc::obs::MetricsRegistry::global().snapshot()));
  }

 private:
  std::uint64_t first_event_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  testing::UnitTest::GetInstance()->listeners().Append(
      new FlightRecorderOnFailure);
  return RUN_ALL_TESTS();
}
