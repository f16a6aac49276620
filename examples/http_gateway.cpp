// Standalone HTTP gateway over a seeded virtual-library catalog: the binary
// behind the README curl walkthrough and the CI gateway smoke job. Serves
// until POST /admin/quit (or SIGINT/SIGTERM).
//
//   http_gateway [--port=8080] [--courses=500] [--seed=1]
//                [--workers=8] [--metrics-json=<path>]
//
// With --port=0 an ephemeral port is chosen and printed, which is what the
// smoke job scrapes. --help prints the usage line; an unknown flag or a
// value that is not a number prints it to stderr and exits 2, before any
// socket opens.
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "http/gateway.hpp"
#include "http/server.hpp"
#include "obs/metrics.hpp"
#include "storage/database.hpp"
#include "workload/library_corpus.hpp"

using namespace wdoc;

namespace {

std::atomic<bool> g_signalled{false};

constexpr const char* kUsage =
    "usage: http_gateway [--port=8080] [--courses=500] [--seed=1] [--workers=8] "
    "[--metrics-json=<path>]\n";

struct Flags {
  bool help = false;
  std::uint64_t port = 8080;
  std::uint64_t courses = 500;
  std::uint64_t seed = 1;
  std::uint64_t workers = 8;
  std::string metrics_path;
};

// The whole command line, or nothing when a flag is unknown or a number is
// not one (the port must also fit in 16 bits).
std::optional<Flags> parse_flags(int argc, char** argv) {
  Flags f;
  const std::pair<std::string_view, std::uint64_t*> numeric[] = {
      {"--port=", &f.port},
      {"--courses=", &f.courses},
      {"--seed=", &f.seed},
      {"--workers=", &f.workers}};
  constexpr std::string_view kMetrics = "--metrics-json=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      f.help = true;
      continue;
    }
    if (arg.starts_with(kMetrics)) {
      f.metrics_path = arg.substr(kMetrics.size());
      continue;
    }
    bool known = false;
    for (const auto& [name, value] : numeric) {
      if (!arg.starts_with(name)) continue;
      const std::string_view text = arg.substr(name.size());
      const char* end = text.data() + text.size();
      const auto parsed = std::from_chars(text.data(), end, *value);
      if (text.empty() || parsed.ec != std::errc{} || parsed.ptr != end) {
        return std::nullopt;
      }
      known = true;
    }
    if (!known) return std::nullopt;
  }
  if (f.port > 65535) return std::nullopt;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Flags> flags = parse_flags(argc, argv);
  if (!flags.has_value()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (flags->help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  workload::LibraryCorpusConfig corpus_cfg;
  corpus_cfg.courses = flags->courses;
  corpus_cfg.seed = flags->seed;
  const auto port = static_cast<std::uint16_t>(flags->port);
  const std::size_t workers = flags->workers;
  const std::string& metrics_path = flags->metrics_path;

  auto entries = workload::library_corpus(corpus_cfg);
  std::vector<library::VirtualLibrary> shards(corpus_cfg.shards);
  workload::populate_shards(shards, entries, corpus_cfg);
  auto db = storage::Database::in_memory();
  http::StorageDocumentSource docs(*db);
  for (const auto& e : entries) {
    docs.put(e.course_number, workload::course_document(e)).expect("put doc");
  }
  std::vector<library::VirtualLibrary*> shard_ptrs;
  for (auto& s : shards) shard_ptrs.push_back(&s);
  http::Gateway gateway(http::GatewayConfig{}, shard_ptrs, &docs);

  http::ServerConfig server_cfg;
  server_cfg.port = port;
  server_cfg.workers = workers;
  http::HttpServer server(server_cfg,
                          [&](const http::Request& req) { return gateway.handle(req); });
  server.start().expect("server start");

  std::signal(SIGINT, [](int) { g_signalled.store(true); });
  std::signal(SIGTERM, [](int) { g_signalled.store(true); });

  std::printf("wdoc gateway: %zu courses on %zu library shards\n", corpus_cfg.courses,
              corpus_cfg.shards);
  std::printf("listening on http://127.0.0.1:%u\n", server.port());
  std::printf("try:\n");
  std::printf("  curl 'http://127.0.0.1:%u/search?q=distributed+database&limit=5'\n",
              server.port());
  std::printf("  curl -X POST 'http://127.0.0.1:%u/check-out?course=%s&student=42'\n",
              server.port(), entries.front().course_number.c_str());
  std::printf("  curl 'http://127.0.0.1:%u/doc?course=%s'\n", server.port(),
              entries.front().course_number.c_str());
  std::printf("  curl -X POST 'http://127.0.0.1:%u/admin/quit'\n", server.port());
  std::fflush(stdout);

  while (!gateway.quit_requested() && !g_signalled.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  if (!metrics_path.empty()) {
    if (obs::write_json_file(metrics_path)) {
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   metrics_path.c_str());
    }
  }
  std::printf("gateway stopped\n");
  return 0;
}
