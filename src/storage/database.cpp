#include "storage/database.hpp"

namespace wdoc::storage {

namespace {

std::string snapshot_path(const std::string& dir) { return dir + "/snapshot.db"; }
std::string wal_path(const std::string& dir) { return dir + "/wal.log"; }

}  // namespace

std::unique_ptr<Database> Database::in_memory() {
  auto db = std::unique_ptr<Database>(new Database());
  db->catalog_.set_default_sink(db.get());
  return db;
}

Result<std::unique_ptr<Database>> Database::open(const std::string& dir) {
  auto db = std::unique_ptr<Database>(new Database());
  db->dir_ = dir;
  db->durable_ = true;

  Status snap = load_snapshot(snapshot_path(dir), db->catalog_);
  if (!snap.is_ok() && snap.code() != Errc::not_found) return Error(snap.error());

  // One scan of the log feeds replay and puts the writer right after the
  // last intact frame.
  auto records = db->wal_.open(wal_path(dir));
  if (!records) return records.error();
  WDOC_TRY(Wal::replay(records.value(), db->catalog_));

  db->catalog_.set_default_sink(db.get());
  return db;
}

void Database::on_mutation(const Mutation& m) {
  if (!durable_) return;
  // WAL write failure inside an observer cannot abort the already-applied
  // mutation; surface it loudly instead.
  Status s = wal_.append(LogRecord::of(m, /*txn=*/0));
  if (!s.is_ok()) WDOC_CHECK(false, "WAL append failed: " + s.message());
}

Status Database::create_table(Schema schema) {
  Schema copy = schema;
  WDOC_TRY(catalog_.create_table(std::move(schema)));
  if (durable_) {
    LogRecord rec;
    rec.kind = LogKind::create_table;
    rec.table = copy.table_name();
    rec.schema = std::move(copy);
    WDOC_TRY(wal_.append(rec));
  }
  return Status::ok();
}

Status Database::drop_table(const std::string& name) {
  WDOC_TRY(catalog_.drop_table(name));
  if (durable_) {
    LogRecord rec;
    rec.kind = LogKind::drop_table;
    rec.table = name;
    WDOC_TRY(wal_.append(rec));
  }
  return Status::ok();
}

Result<RowId> Database::insert(const std::string& table, std::vector<Value> row) {
  auto r = catalog_.insert(table, std::move(row));
  if (r) WDOC_TRY(maybe_checkpoint());
  return r;
}

Status Database::update(const std::string& table, RowId id, std::vector<Value> row) {
  WDOC_TRY(catalog_.update(table, id, std::move(row)));
  return maybe_checkpoint();
}

Status Database::update_column(const std::string& table, RowId id,
                               std::string_view column, Value v) {
  WDOC_TRY(catalog_.update_column(table, id, column, std::move(v)));
  return maybe_checkpoint();
}

Status Database::erase(const std::string& table, RowId id) {
  WDOC_TRY(catalog_.erase(table, id));
  return maybe_checkpoint();
}

Status Database::maybe_checkpoint() {
  if (!durable_ || auto_checkpoint_bytes_ == 0) return Status::ok();
  if (wal_.bytes_appended() < auto_checkpoint_bytes_) return Status::ok();
  return checkpoint();
}

Query Database::query(const std::string& table) const {
  const Table* t = catalog_.table(table);
  WDOC_CHECK(t != nullptr, "query() on missing table: " + table);
  return Query(*t);
}

Status Database::checkpoint() {
  if (!durable_) return Status::ok();
  WDOC_TRY(wal_.sync());
  WDOC_TRY(save_snapshot(catalog_, snapshot_path(dir_)));
  WDOC_TRY(wal_.truncate());
  return Status::ok();
}

Status Database::flush() {
  if (!durable_) return Status::ok();
  return wal_.sync();
}

Status Database::log(const LogRecord& rec) {
  if (!durable_) return Status::ok();
  return wal_.append(rec);
}

}  // namespace wdoc::storage
