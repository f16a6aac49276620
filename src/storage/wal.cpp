#include "storage/wal.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <set>

#include "common/hash.hpp"
#include "obs/metrics.hpp"

namespace wdoc::storage {

namespace {

// The zero tail (DESIGN.md §3d). sync() tops it up to kTailBytes past the
// log's end once fewer than kTailLowWater remain, so the file grows once per
// ~240 KiB of frames rather than on every commit.
constexpr std::uint64_t kTailLowWater = 16 << 10;
constexpr std::uint64_t kTailBytes = 256 << 10;
// Frames buffered in user space; append() writes them out before the buffer
// would outgrow this (a larger frame goes alone).
constexpr std::size_t kBufferBytes = 64 << 10;

// Every iovec of a top-up points at this one page.
constexpr std::size_t kZeroPageBytes = 4096;
const std::uint8_t kZeroPage[kZeroPageBytes] = {};

struct Scan {
  std::vector<LogRecord> records;
  std::uint64_t end = 0;  // offset just past the last intact frame
};

// Reads frames from the start of `f` until one is torn or fails its checksum.
//
// The zero tail that a crash leaves behind needs no case of its own. A zero
// header ends the scan: its length is 0, and the checksum of an empty payload
// is fnv1a64's offset basis, not 0. A header whose payload never reached the
// disk reads zeros as its payload, while its checksum covers a payload whose
// first byte, a LogKind, is never 0, so the zeros fail that checksum like any
// other corrupt frame.
Scan scan_frames(std::FILE* f) {
  Scan scan;
  for (;;) {
    std::uint8_t header[12];
    if (std::fread(header, 1, sizeof header, f) != sizeof header) break;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 8; ++i)
      checksum |= static_cast<std::uint64_t>(header[4 + i]) << (8 * i);
    if (len > (64u << 20)) break;  // implausible frame; treat as torn tail
    Bytes payload(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) break;
    if (fnv1a64(std::span<const std::uint8_t>(payload)) != checksum) break;
    auto rec = LogRecord::decode(payload);
    if (!rec) break;
    scan.records.push_back(std::move(rec).value());
    scan.end += sizeof header + len;
  }
  return scan;
}

void encode_row(Writer& w, const std::vector<Value>& row) {
  w.u32(static_cast<std::uint32_t>(row.size()));
  for (const Value& v : row) v.serialize(w);
}

Result<std::vector<Value>> decode_row(Reader& r) {
  auto n = r.count();
  if (!n) return n.error();
  std::vector<Value> row;
  row.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto v = Value::deserialize(r);
    if (!v) return v.error();
    row.push_back(std::move(v).value());
  }
  return row;
}

}  // namespace

LogRecord LogRecord::of(const Mutation& m, std::uint64_t txn) {
  LogRecord rec;
  switch (m.kind) {
    case MutationKind::insert: rec.kind = LogKind::insert; break;
    case MutationKind::update: rec.kind = LogKind::update; break;
    case MutationKind::erase: rec.kind = LogKind::erase; break;
  }
  rec.txn = txn;
  rec.table = m.table;
  rec.row = m.row;
  rec.before = m.before;
  rec.after = m.after;
  return rec;
}

Bytes LogRecord::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(txn);
  w.str(table);
  w.u64(row.value());
  encode_row(w, before);
  encode_row(w, after);
  w.boolean(schema.has_value());
  if (schema) schema->serialize(w);
  return w.take();
}

Result<LogRecord> LogRecord::decode(const Bytes& frame) {
  Reader r(frame);
  LogRecord rec;
  auto kind = r.u8();
  if (!kind) return kind.error();
  rec.kind = static_cast<LogKind>(kind.value());
  auto txn = r.u64();
  if (!txn) return txn.error();
  rec.txn = txn.value();
  auto table = r.str();
  if (!table) return table.error();
  rec.table = std::move(table).value();
  auto row = r.u64();
  if (!row) return row.error();
  rec.row = RowId{row.value()};
  auto before = decode_row(r);
  if (!before) return before.error();
  rec.before = std::move(before).value();
  auto after = decode_row(r);
  if (!after) return after.error();
  rec.after = std::move(after).value();
  auto has_schema = r.boolean();
  if (!has_schema) return has_schema.error();
  if (has_schema.value()) {
    auto s = Schema::deserialize(r);
    if (!s) return s.error();
    rec.schema = std::move(s).value();
  }
  return rec;
}

Wal::~Wal() { (void)close(); }

Result<std::vector<LogRecord>> Wal::open(const std::string& path) {
  WDOC_TRY(close());
  // A log that exists but cannot be read must not be truncated to nothing.
  Scan scan;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    scan = scan_frames(f);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) return Error{Errc::io_error, "cannot read WAL: " + path};
  } else if (errno != ENOENT) {
    return Error{Errc::io_error, "cannot read WAL: " + path};
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Error{Errc::io_error, "cannot open WAL: " + path};
  // Frames written after a torn one would sit past the prefix that recovery
  // reads, and be lost at the next open.
  if (::ftruncate(fd, static_cast<off_t>(scan.end)) != 0) {
    ::close(fd);
    return Error{Errc::io_error, "cannot truncate WAL: " + path};
  }
  std::lock_guard<std::mutex> g(mu_);
  fd_ = fd;
  end_ = file_size_ = scan.end;
  bytes_appended_ = 0;
  return std::move(scan.records);
}

Status Wal::close() {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) return Status::ok();
  Status s = write_buffer();
  if (s.is_ok() && ::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
    s = {Errc::io_error, "WAL truncate failed"};
  }
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  return s;
}

Status Wal::append(const LogRecord& record) {
  const Bytes payload = record.encode();
  Writer header;
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u64(fnv1a64(std::span<const std::uint8_t>(payload)));
  const std::size_t frame_bytes = header.size() + payload.size();
  {
    std::lock_guard<std::mutex> g(mu_);
    if (fd_ < 0) return {Errc::io_error, "WAL not open"};
    if (buffer_.size() + frame_bytes > kBufferBytes) WDOC_TRY(write_buffer());
    buffer_.insert(buffer_.end(), header.data().begin(), header.data().end());
    buffer_.insert(buffer_.end(), payload.begin(), payload.end());
    bytes_appended_ += frame_bytes;
  }
  static obs::Counter& c_appends =
      obs::MetricsRegistry::global().counter("storage.wal_appends");
  static obs::Counter& c_bytes =
      obs::MetricsRegistry::global().counter("storage.wal_bytes");
  c_appends.inc();
  c_bytes.inc(frame_bytes);
  return Status::ok();
}

Status Wal::sync() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (fd_ < 0) return {Errc::io_error, "WAL not open"};
    WDOC_TRY(write_buffer());
    if (file_size_ - end_ < kTailLowWater) WDOC_TRY(extend_tail());
  }
  static obs::Counter& c_fsyncs =
      obs::MetricsRegistry::global().counter("storage.wal_fsyncs");
  c_fsyncs.inc();
  return Status::ok();
}

Status Wal::truncate() {
  std::lock_guard<std::mutex> g(mu_);
  if (fd_ < 0) return {Errc::io_error, "WAL not open"};
  if (::ftruncate(fd_, 0) != 0) return {Errc::io_error, "WAL truncate failed"};
  buffer_.clear();
  end_ = file_size_ = bytes_appended_ = 0;
  return Status::ok();
}

std::uint64_t Wal::bytes_appended() const {
  std::lock_guard<std::mutex> g(mu_);
  return bytes_appended_;
}

Status Wal::write_buffer() {
  for (std::size_t done = 0; done < buffer_.size();) {
    const ssize_t n = ::pwrite(fd_, buffer_.data() + done, buffer_.size() - done,
                               static_cast<off_t>(end_ + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {Errc::io_error, "WAL write failed"};
    done += static_cast<std::size_t>(n);
  }
  end_ += buffer_.size();
  file_size_ = std::max(file_size_, end_);
  buffer_.clear();
  return Status::ok();
}

Status Wal::extend_tail() {
  // Zeros that are written, not fallocate'd: fallocate leaves unwritten
  // extents, and the first write into each one is journalled again.
  const std::uint64_t target = end_ + kTailBytes;
  iovec iov[kTailBytes / kZeroPageBytes];
  while (file_size_ < target) {
    int n = 0;
    for (std::uint64_t at = file_size_; at < target; at += iov[n++].iov_len) {
      iov[n].iov_base = const_cast<std::uint8_t*>(kZeroPage);
      iov[n].iov_len =
          static_cast<std::size_t>(std::min<std::uint64_t>(kZeroPageBytes, target - at));
    }
    const ssize_t written = ::pwritev(fd_, iov, n, static_cast<off_t>(file_size_));
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) return {Errc::io_error, "WAL tail write failed"};
    file_size_ += static_cast<std::uint64_t>(written);
  }
  return Status::ok();
}

Result<std::vector<LogRecord>> Wal::read_all(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::vector<LogRecord>{};  // no log yet
  Scan scan = scan_frames(f);
  std::fclose(f);
  return std::move(scan.records);
}

Status Wal::replay(const std::vector<LogRecord>& records, Catalog& catalog) {
  std::set<std::uint64_t> committed{0};  // autocommit pseudo-txn
  for (const LogRecord& rec : records) {
    if (rec.kind == LogKind::commit) committed.insert(rec.txn);
  }
  for (const LogRecord& rec : records) {
    if (!committed.contains(rec.txn)) continue;
    switch (rec.kind) {
      case LogKind::begin:
      case LogKind::commit:
      case LogKind::abort:
        break;
      case LogKind::create_table: {
        if (!rec.schema) return {Errc::corrupt, "create_table without schema"};
        WDOC_TRY(catalog.create_table(*rec.schema));
        break;
      }
      case LogKind::drop_table:
        WDOC_TRY(catalog.drop_table(rec.table));
        break;
      case LogKind::insert: {
        Table* t = catalog.table(rec.table);
        if (t == nullptr) return {Errc::corrupt, "replay insert into missing table"};
        WDOC_TRY(t->restore(rec.row, rec.after));
        break;
      }
      case LogKind::update: {
        Table* t = catalog.table(rec.table);
        if (t == nullptr) return {Errc::corrupt, "replay update of missing table"};
        WDOC_TRY(t->update(rec.row, rec.after));
        break;
      }
      case LogKind::erase: {
        Table* t = catalog.table(rec.table);
        if (t == nullptr) return {Errc::corrupt, "replay erase of missing table"};
        WDOC_TRY(t->erase(rec.row));
        break;
      }
    }
  }
  return Status::ok();
}

Status save_snapshot(const Catalog& catalog, const std::string& path) {
  Writer w;
  w.str("WDOCSNAP1");
  // Parents-first order so load_snapshot can re-create tables with their FK
  // targets already present. Cross-table FK cycles are not supported.
  auto names = catalog.table_names();
  std::vector<std::string> ordered;
  std::set<std::string> placed;
  while (ordered.size() < names.size()) {
    bool progressed = false;
    for (const std::string& name : names) {
      if (placed.contains(name)) continue;
      const Table* t = catalog.table(name);
      bool ready = true;
      for (const ForeignKey& fk : t->schema().foreign_keys()) {
        if (fk.parent_table != name && !placed.contains(fk.parent_table)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        ordered.push_back(name);
        placed.insert(name);
        progressed = true;
      }
    }
    if (!progressed) {
      return {Errc::unsupported, "snapshot: cyclic cross-table foreign keys"};
    }
  }
  names = std::move(ordered);
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table* t = catalog.table(name);
    t->schema().serialize(w);
    w.u64(t->row_count());
    t->scan([&](RowId id, const std::vector<Value>& row) {
      w.u64(id.value());
      encode_row(w, row);
      return true;
    });
  }
  Bytes body = w.take();
  Writer framed;
  framed.u64(fnv1a64(std::span<const std::uint8_t>(body)));
  framed.raw(body);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {Errc::io_error, "cannot write snapshot: " + path};
  const Bytes& buf = framed.data();
  bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return {Errc::io_error, "snapshot write failed"};
  return Status::ok();
}

Status load_snapshot(const std::string& path, Catalog& catalog) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {Errc::not_found, "no snapshot: " + path};
  Bytes buf;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  std::fclose(f);

  Reader framed(buf);
  auto checksum = framed.u64();
  if (!checksum) return checksum.status();
  std::span<const std::uint8_t> body(buf.data() + framed.position(),
                                     buf.size() - framed.position());
  if (fnv1a64(body) != checksum.value()) {
    return {Errc::corrupt, "snapshot checksum mismatch"};
  }
  Reader r(body);
  auto magic = r.str();
  if (!magic) return magic.status();
  if (magic.value() != "WDOCSNAP1") return {Errc::corrupt, "bad snapshot magic"};
  auto ntables = r.u32();
  if (!ntables) return ntables.status();
  for (std::uint32_t ti = 0; ti < ntables.value(); ++ti) {
    auto schema = Schema::deserialize(r);
    if (!schema) return schema.status();
    WDOC_TRY(catalog.create_table(schema.value()));
    Table* t = catalog.table(schema.value().table_name());
    auto nrows = r.u64();
    if (!nrows) return nrows.status();
    for (std::uint64_t i = 0; i < nrows.value(); ++i) {
      auto rid = r.u64();
      if (!rid) return rid.status();
      auto row = decode_row(r);
      if (!row) return row.status();
      WDOC_TRY(t->restore(RowId{rid.value()}, std::move(row).value()));
    }
  }
  return Status::ok();
}

}  // namespace wdoc::storage
