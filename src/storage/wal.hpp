// Write-ahead log and snapshot persistence for the storage engine.
//
// The WAL stores logical records (insert/update/erase + txn markers) as
// checksummed frames; recovery reads the longest intact prefix and stops at
// the first torn or corrupt frame. A snapshot serializes the full catalog;
// `Database` (database.hpp) combines the two with checkpointing. DESIGN.md
// §3d describes the log's on-disk layout.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/serialize.hpp"
#include "storage/catalog.hpp"

namespace wdoc::storage {

enum class LogKind : std::uint8_t {
  begin = 1,
  commit = 2,
  abort = 3,
  insert = 4,
  update = 5,
  erase = 6,
  create_table = 7,
  drop_table = 8,
};

struct LogRecord {
  LogKind kind = LogKind::begin;
  std::uint64_t txn = 0;  // 0 = autocommit (always applied)
  std::string table;
  RowId row;
  std::vector<Value> before;  // update/erase
  std::vector<Value> after;   // insert/update
  std::optional<Schema> schema;  // create_table

  // The insert/update/erase record of an applied row mutation, logged by
  // transaction `txn` (0 = autocommit).
  [[nodiscard]] static LogRecord of(const Mutation& m, std::uint64_t txn);

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<LogRecord> decode(const Bytes& frame);
};

// Frames are written through one fd under one mutex: begin, DML and commit
// log from different threads under different engine locks (txn.cpp). Past
// the log's end the file keeps a run of zeros that sync() wrote ahead, so a
// commit's frames land in blocks that are already allocated and written, and
// an fdatasync of the file after it has no size change or block allocation
// to journal.
class Wal {
 public:
  Wal() = default;
  ~Wal();  // close()
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens the log at `path`, creating it if absent, and scans it once. Returns
  // the records of every intact frame. Whatever follows the last one (a torn
  // frame, or the zero tail a crash left behind) is truncated, and new frames
  // are written right after it.
  [[nodiscard]] Result<std::vector<LogRecord>> open(const std::string& path);
  // Writes buffered frames and truncates the zero tail, so a cleanly closed
  // log is exactly its frames.
  [[nodiscard]] Status close();

  // Buffers one frame in user space, writing the buffer out first when the
  // frame would not fit.
  [[nodiscard]] Status append(const LogRecord& record);
  // Hands every buffered frame to the kernel and tops the zero tail up when
  // it runs short. It does not fsync: the frames survive a process crash,
  // not a power loss.
  [[nodiscard]] Status sync();
  // Empties the log, buffered frames and zero tail included (a checkpoint).
  [[nodiscard]] Status truncate();

  // Bytes appended since open(); resets when the log is truncated.
  [[nodiscard]] std::uint64_t bytes_appended() const;

  // Reads every intact frame; a torn/corrupt tail ends the scan cleanly.
  [[nodiscard]] static Result<std::vector<LogRecord>> read_all(const std::string& path);

  // Replays a log into a catalog: ops from committed transactions (and
  // autocommit ops) are applied in log order.
  [[nodiscard]] static Status replay(const std::vector<LogRecord>& records, Catalog& catalog);

 private:
  // Both run with mu_ held.
  [[nodiscard]] Status write_buffer();
  [[nodiscard]] Status extend_tail();

  mutable std::mutex mu_;
  int fd_ = -1;
  Bytes buffer_;                 // frames not yet written; they start at end_
  std::uint64_t end_ = 0;        // file offset just past the last written frame
  std::uint64_t file_size_ = 0;  // [end_, file_size_) holds zeros
  std::uint64_t bytes_appended_ = 0;
};

// Snapshot of a full catalog (schemas + rows with their ids).
[[nodiscard]] Status save_snapshot(const Catalog& catalog, const std::string& path);
[[nodiscard]] Status load_snapshot(const std::string& path, Catalog& catalog);

}  // namespace wdoc::storage
