#include "obs/trace_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "common/json.hpp"
#include "common/log.hpp"

namespace wdoc::obs {

namespace {

void append_event_head(std::string& out, const char* ph, const std::string& name,
                       std::uint64_t pid, std::int64_t ts) {
  char buf[96];
  out += "{\"ph\":\"";
  out += ph;
  out += "\",\"name\":\"";
  json_escape(out, name);
  // tid == pid: one timeline row per station; the simulator is single
  // threaded, so stations are the only concurrency axis worth a track.
  std::snprintf(buf, sizeof buf, "\",\"pid\":%llu,\"tid\":%llu,\"ts\":%lld",
                static_cast<unsigned long long>(pid),
                static_cast<unsigned long long>(pid), static_cast<long long>(ts));
  out += buf;
}

}  // namespace

namespace {

// Span args: "span"/"parent" (rebased), plus "trace" when the span belongs
// to an end-to-end trace. Trace ids are NOT rebased: they are minted
// deterministically (per-seed at the HTTP edge, from transfer ids in the
// dist layer), so exports stay byte-identical for same-seed runs while the
// raw id still matches histogram-bucket exemplars and /debug/slo output.
void append_span_args(std::string& out, std::uint64_t span, std::uint64_t parent,
                      std::uint64_t trace_id) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"span\":%llu,\"parent\":%llu",
                static_cast<unsigned long long>(span),
                static_cast<unsigned long long>(parent));
  out += buf;
  if (trace_id != 0) {
    std::snprintf(buf, sizeof buf, ",\"trace\":%llu",
                  static_cast<unsigned long long>(trace_id));
    out += buf;
  }
}

}  // namespace

std::string to_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::vector<SpanRecord> sorted = spans;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::set<std::uint64_t> stations;
  for (const SpanRecord& s : sorted) {
    by_id[s.id] = &s;
    stations.insert(s.station);
  }
  // Ids are rebased so the first exported span is 1: the output depends
  // only on the drained spans themselves, never on how many spans the
  // global tracer recorded before them — identical runs export
  // byte-identical JSON. Parents outside this batch (drained earlier)
  // rebase to 0, i.e. root.
  const std::uint64_t base = sorted.empty() ? 0 : sorted.front().id - 1;
  auto rebase = [&](std::uint64_t id) -> std::uint64_t {
    return by_id.count(id) != 0 ? id - base : 0;
  };

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  // Process metadata: name each pid row after its station.
  for (std::uint64_t st : stations) {
    sep();
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%llu,\"tid\":%llu,"
                  "\"args\":{\"name\":\"station %llu\"}}",
                  static_cast<unsigned long long>(st),
                  static_cast<unsigned long long>(st),
                  static_cast<unsigned long long>(st));
    out += buf;
  }

  char buf[160];
  for (const SpanRecord& s : sorted) {
    sep();
    if (s.finished) {
      append_event_head(out, "X", s.name, s.station, s.start.as_micros());
      std::snprintf(buf, sizeof buf, ",\"dur\":%lld,\"args\":{",
                    static_cast<long long>((s.end - s.start).as_micros()));
      out += buf;
      append_span_args(out, s.id - base, rebase(s.parent), s.trace_id);
      out += "}}";
    } else {
      // Explicitly an instant: the span never ended (still open at export,
      // or its station died mid-operation) — flag it rather than faking a
      // zero-duration completed slice.
      append_event_head(out, "i", s.name, s.station, s.start.as_micros());
      out += ",\"s\":\"p\",\"args\":{";
      append_span_args(out, s.id - base, rebase(s.parent), s.trace_id);
      out += ",\"finished\":false}}";
    }

    // Cross-station parentage renders as a flow arrow from the parent's
    // slice to this one (one flow id per child span).
    auto pit = s.parent == 0 ? by_id.end() : by_id.find(s.parent);
    if (pit != by_id.end()) {
      const SpanRecord& p = *pit->second;
      sep();
      // The flow start must land inside the parent slice to bind to it, so
      // it is stamped at the parent's own start time.
      append_event_head(out, "s", "hop", p.station, p.start.as_micros());
      std::snprintf(buf, sizeof buf, ",\"id\":%llu,\"cat\":\"dist\"}",
                    static_cast<unsigned long long>(s.id - base));
      out += buf;
      sep();
      append_event_head(out, "f", "hop", s.station, s.start.as_micros());
      std::snprintf(buf, sizeof buf, ",\"id\":%llu,\"cat\":\"dist\",\"bp\":\"e\"}",
                    static_cast<unsigned long long>(s.id - base));
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

std::string to_chrome_trace(const std::vector<SpanRecord>& spans, const Snapshot& snap) {
  std::string out = to_chrome_trace(spans);
  // Splice exemplar instants in before the closing "]}\n". Each is the
  // bridge from a histogram bucket to the promoted trace behind it: a
  // Perfetto search for the "trace" value lands on the request's spans.
  std::string events;
  char buf[128];
  for (const MetricSample& s : snap.samples) {
    if (s.kind != MetricSample::Kind::histogram) continue;
    for (std::size_t i = 0; i < s.hist_buckets.size() && i < s.hist_exemplars.size();
         ++i) {
      if (s.hist_exemplars[i] == 0) continue;
      events += ",\n";
      append_event_head(events, "i", "exemplar:" + s.key(), 0, 0);
      const double le = s.hist_buckets[i].first;
      if (std::isinf(le)) {
        std::snprintf(buf, sizeof buf,
                      ",\"s\":\"g\",\"args\":{\"le\":\"+inf\",\"count\":%llu,"
                      "\"trace\":%llu}}",
                      static_cast<unsigned long long>(s.hist_buckets[i].second),
                      static_cast<unsigned long long>(s.hist_exemplars[i]));
      } else {
        std::snprintf(buf, sizeof buf,
                      ",\"s\":\"g\",\"args\":{\"le\":%.0f,\"count\":%llu,\"trace\":%llu}}",
                      le, static_cast<unsigned long long>(s.hist_buckets[i].second),
                      static_cast<unsigned long long>(s.hist_exemplars[i]));
      }
      events += buf;
    }
  }
  if (!events.empty()) {
    const std::string tail = "\n]}\n";
    out.replace(out.size() - tail.size(), tail.size(), events + tail);
  }
  return out;
}

bool write_trace_file(const std::string& path) {
  std::string body = to_chrome_trace(Tracer::global().drain(),
                                     MetricsRegistry::global().snapshot());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    WDOC_ERROR("trace: cannot open %s", path.c_str());
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) WDOC_ERROR("trace: short write to %s", path.c_str());
  return ok;
}

std::string trace_json_arg(int& argc, char** argv, bool strip) {
  constexpr std::string_view kFlag = "--trace-json=";
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind(kFlag, 0) == 0) {
      path = std::string(arg.substr(kFlag.size()));
      if (strip) continue;
    }
    argv[out++] = argv[i];
  }
  if (strip) argc = out;
  if (!path.empty()) Tracer::global().set_enabled(true);
  return path;
}

}  // namespace wdoc::obs
