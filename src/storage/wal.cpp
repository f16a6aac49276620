#include "storage/wal.hpp"

#include "obs/metrics.hpp"

#include <set>

#include "common/hash.hpp"

namespace wdoc::storage {

namespace {

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

Wal::~Wal() { close(); }

Status Wal::open(const std::string& path, bool truncate) {
  close();
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) return {Errc::io_error, "cannot open WAL: " + path};
  path_ = path;
  bytes_appended_ = 0;
  return Status::ok();
}

void Wal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status Wal::append(const LogRecord& record) {
  if (file_ == nullptr) return {Errc::io_error, "WAL not open"};
  Bytes payload = record.encode();
  Writer frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u64(fnv1a64(std::span<const std::uint8_t>(payload)));
  frame.raw(payload);
  const Bytes& buf = frame.data();
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return {Errc::io_error, "WAL write failed"};
  }
  bytes_appended_ += buf.size();
  static obs::Counter& c_appends =
      obs::MetricsRegistry::global().counter("storage.wal_appends");
  static obs::Counter& c_bytes =
      obs::MetricsRegistry::global().counter("storage.wal_bytes");
  c_appends.inc();
  c_bytes.inc(buf.size());
  return Status::ok();
}

Status Wal::sync() {
  if (file_ == nullptr) return {Errc::io_error, "WAL not open"};
  if (std::fflush(file_) != 0) return {Errc::io_error, "WAL flush failed"};
  static obs::Counter& c_fsyncs =
      obs::MetricsRegistry::global().counter("storage.wal_fsyncs");
  c_fsyncs.inc();
  return Status::ok();
}

Result<std::vector<LogRecord>> Wal::read_all(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::vector<LogRecord>{};  // no log yet
  std::vector<LogRecord> out;
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
    out.push_back(std::move(rec).value());
  }
  std::fclose(f);
  return out;
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
