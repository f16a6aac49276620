// WAL + snapshot tests: record round-trips, replay semantics (committed vs
// uncommitted transactions), torn-tail tolerance, crash images that carry
// the zero tail, snapshot round-trips and durable Database reopen.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/hash.hpp"
#include "storage/database.hpp"

namespace wdoc::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("wdoc-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

Schema simple_schema() {
  return Schema("t",
                {Column{"k", ValueType::text, false, false, false},
                 Column{"v", ValueType::integer, true, false, false}},
                "k");
}

LogRecord insert_record(std::uint64_t row) {
  LogRecord rec;
  rec.kind = LogKind::insert;
  rec.table = "t";
  rec.row = RowId{row};
  rec.after = {Value("k" + std::to_string(row)), Value(static_cast<std::int64_t>(row))};
  return rec;
}

// The records recovery's own scan (Wal::open) finds in the log at `path`.
// It opens a copy: open() truncates whatever follows the last intact frame,
// and the log must stay as the test left it.
Result<std::vector<LogRecord>> recovered(const std::string& path) {
  const std::string copy = path + ".recovered";
  fs::copy_file(path, copy, fs::copy_options::overwrite_existing);
  Result<std::vector<LogRecord>> records = Wal().open(copy);
  fs::remove(copy);
  return records;
}

// The bytes of one frame: u32 payload length, u64 fnv1a64 of the payload
// (both little-endian), then the payload.
Bytes frame_of(const LogRecord& rec) {
  const Bytes payload = rec.encode();
  Writer w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a64(std::span<const std::uint8_t>(payload)));
  w.raw(payload);
  return w.take();
}

void write_at(const std::string& path, std::uint64_t offset, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void append_bytes(const std::string& path, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Six bytes of a frame header: a crash tore the frame after them.
const Bytes kTornHeader = {0x20, 0x00, 0x00, 0x00, 0x11, 0x22};

TEST(LogRecord, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.kind = LogKind::update;
  rec.txn = 42;
  rec.table = "scripts";
  rec.row = RowId{7};
  rec.before = {Value("old"), Value(1)};
  rec.after = {Value("new"), Value(2)};
  auto decoded = LogRecord::decode(rec.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().kind, LogKind::update);
  EXPECT_EQ(decoded.value().txn, 42u);
  EXPECT_EQ(decoded.value().table, "scripts");
  EXPECT_EQ(decoded.value().row, RowId{7});
  EXPECT_EQ(decoded.value().before[0].as_text(), "old");
  EXPECT_EQ(decoded.value().after[1].as_int(), 2);
}

TEST(LogRecord, SchemaPayloadRoundTrip) {
  LogRecord rec;
  rec.kind = LogKind::create_table;
  rec.table = "t";
  rec.schema = simple_schema();
  auto decoded = LogRecord::decode(rec.encode());
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_TRUE(decoded.value().schema.has_value());
  EXPECT_EQ(decoded.value().schema->table_name(), "t");
  EXPECT_EQ(decoded.value().schema->primary_key(), "k");
}

TEST(Wal, AppendAndRecover) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    for (int i = 0; i < 10; ++i) {
      LogRecord rec;
      rec.kind = LogKind::insert;
      rec.table = "t";
      rec.row = RowId{static_cast<std::uint64_t>(i + 1)};
      rec.after = {Value("k" + std::to_string(i)), Value(i)};
      ASSERT_TRUE(wal.append(rec).is_ok());
    }
    ASSERT_TRUE(wal.sync().is_ok());
  }
  auto records = recovered(path);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 10u);
  EXPECT_EQ(records.value()[3].after[0].as_text(), "k3");
}

TEST(Wal, TornTailIsIgnored) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    LogRecord rec;
    rec.kind = LogKind::insert;
    rec.table = "t";
    rec.row = RowId{1};
    rec.after = {Value("x"), Value(1)};
    ASSERT_TRUE(wal.append(rec).is_ok());
    ASSERT_TRUE(wal.sync().is_ok());
  }
  // Simulate a torn write: append garbage half-frame.
  append_bytes(path, kTornHeader);

  auto records = recovered(path);
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 1u);
}

TEST(Wal, FramesAppendedAfterATornTailSurviveTheNextOpen) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    for (std::uint64_t row = 1; row <= 3; ++row) {
      ASSERT_TRUE(wal.append(insert_record(row)).is_ok());
    }
  }
  append_bytes(path, kTornHeader);
  {
    Wal wal;
    auto recovered = wal.open(path);
    ASSERT_TRUE(recovered.is_ok());
    ASSERT_EQ(recovered.value().size(), 3u);
    // The torn bytes are gone, so the new frame follows the intact prefix
    // instead of hiding behind the tear.
    EXPECT_EQ(fs::file_size(path), 3 * frame_of(insert_record(1)).size());
    ASSERT_TRUE(wal.append(insert_record(4)).is_ok());
    ASSERT_TRUE(wal.sync().is_ok());
  }
  auto records = recovered(path);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 4u);
  EXPECT_EQ(records.value()[3].row, RowId{4});
}

TEST(Wal, AppendWritesWholeFramesOnceTheBufferIsFull) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  auto big = [](std::uint64_t row, std::size_t bytes) {
    LogRecord rec = insert_record(row);
    rec.after[0] = Value(std::string(bytes, 'x'));
    return rec;
  };
  Wal wal;
  ASSERT_TRUE(wal.open(path).is_ok());
  // 10 KB frames fill the 64 KiB buffer six at a time. A 100 KB frame
  // outgrows the buffer on its own and goes out with the next append.
  for (std::uint64_t row = 1; row <= 10; ++row) {
    ASSERT_TRUE(wal.append(big(row, 10'000)).is_ok());
  }
  ASSERT_TRUE(wal.append(big(11, 100'000)).is_ok());
  ASSERT_TRUE(wal.append(big(12, 10)).is_ok());
  // Before any sync, the file holds whole frames, in order: all but the
  // last, which is still buffered.
  auto written = recovered(path);
  ASSERT_TRUE(written.is_ok());
  ASSERT_EQ(written.value().size(), 11u);
  for (std::uint64_t row = 1; row <= 10; ++row) {
    EXPECT_EQ(written.value()[row - 1].encode(), big(row, 10'000).encode());
  }
  EXPECT_EQ(written.value()[10].encode(), big(11, 100'000).encode());
  ASSERT_TRUE(wal.sync().is_ok());
  auto synced = recovered(path);
  ASSERT_TRUE(synced.is_ok());
  ASSERT_EQ(synced.value().size(), 12u);
  EXPECT_EQ(synced.value()[11].row, RowId{12});
}

TEST(Wal, OpensFramesWrittenWithoutAZeroTail) {
  // Frames back to back and nothing after them, as a clean close leaves a
  // log, and as a writer without the zero tail left every log. Every record
  // comes back, and the next frame lands right after them.
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  Bytes log;
  for (std::uint64_t row = 1; row <= 4; ++row) {
    const Bytes frame = frame_of(insert_record(row));
    log.insert(log.end(), frame.begin(), frame.end());
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
  std::fclose(f);
  {
    Wal wal;
    auto records = wal.open(path);
    ASSERT_TRUE(records.is_ok());
    ASSERT_EQ(records.value().size(), 4u);
    for (std::uint64_t row = 1; row <= 4; ++row) {
      EXPECT_EQ(records.value()[row - 1].encode(), insert_record(row).encode());
    }
    ASSERT_TRUE(wal.append(insert_record(5)).is_ok());
  }
  const Bytes fifth = frame_of(insert_record(5));
  EXPECT_EQ(fs::file_size(path), log.size() + fifth.size());
  EXPECT_EQ(recovered(path).value().size(), 5u);
}

// --- crash images ------------------------------------------------------------
//
// sync() leaves zeros written ahead past the log's end, and only close()
// removes them, so a crash leaves them on disk. Each image below is a copy
// of wal.log taken after a sync while the Wal was still open.

class WalCrashImage : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kFrames = 5;

  // Appends and syncs kFrames frames, then copies the file while the log is
  // still open.
  void SetUp() override {
    Wal wal;
    ASSERT_TRUE(wal.open(path_).is_ok());
    for (std::uint64_t row = 1; row <= kFrames; ++row) {
      ASSERT_TRUE(wal.append(insert_record(row)).is_ok());
    }
    ASSERT_TRUE(wal.sync().is_ok());
    fs::copy_file(path_, image_);
    log_end_ = wal.bytes_appended();
  }

  // Opening the image recovers `frames` frames and cuts what follows them;
  // a frame appended after that recovery is there at the next one.
  void expect_recovers_then_appends(std::uint64_t frames) {
    {
      Wal wal;
      auto recovered = wal.open(image_);
      ASSERT_TRUE(recovered.is_ok());
      ASSERT_EQ(recovered.value().size(), frames);
      for (std::uint64_t i = 0; i < frames; ++i) {
        EXPECT_EQ(recovered.value()[i].encode(), insert_record(i + 1).encode());
      }
      ASSERT_TRUE(wal.append(insert_record(100)).is_ok());
      ASSERT_TRUE(wal.sync().is_ok());
      ASSERT_TRUE(wal.close().is_ok());
    }
    auto records = recovered(image_);
    ASSERT_TRUE(records.is_ok());
    ASSERT_EQ(records.value().size(), frames + 1);
    EXPECT_EQ(records.value().back().row, RowId{100});
  }

  TempDir dir_;
  std::string path_ = dir_.str() + "/wal.log";
  std::string image_ = dir_.str() + "/crash.log";
  std::uint64_t log_end_ = 0;
};

TEST_F(WalCrashImage, RecoversExactlyTheSyncedFrames) {
  EXPECT_EQ(log_end_, kFrames * frame_of(insert_record(1)).size());
  EXPECT_GT(fs::file_size(image_), log_end_) << "no zero tail in the crash image";
  auto records = recovered(image_);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), kFrames);
  expect_recovers_then_appends(kFrames);
}

TEST_F(WalCrashImage, HeaderWithoutItsPayloadEndsTheScan) {
  // The header of a sixth frame reached the disk over the zeros; its
  // payload did not.
  Bytes header = frame_of(insert_record(kFrames + 1));
  header.resize(12);
  write_at(image_, log_end_, header);
  EXPECT_EQ(recovered(image_).value().size(), kFrames);
  expect_recovers_then_appends(kFrames);
}

TEST_F(WalCrashImage, TornLastFrameEndsTheScan) {
  // Only the first half of the last frame reached the disk; the rest of it
  // reads as the zeros beneath.
  const std::uint64_t frame = frame_of(insert_record(kFrames)).size();
  const std::uint64_t torn_at = log_end_ - frame / 2;
  std::FILE* f = std::fopen(image_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Bytes lost(log_end_ - torn_at);
  std::fseek(f, static_cast<long>(torn_at), SEEK_SET);
  ASSERT_EQ(std::fread(lost.data(), 1, lost.size(), f), lost.size());
  std::fclose(f);
  ASSERT_NE(lost, Bytes(lost.size(), 0)) << "the torn half held only zeros";
  write_at(image_, torn_at, Bytes(lost.size(), 0));
  EXPECT_EQ(recovered(image_).value().size(), kFrames - 1);
  expect_recovers_then_appends(kFrames - 1);
}

TEST_F(WalCrashImage, FlippedByteInTheTailIsIgnored) {
  const std::uint64_t tail = fs::file_size(image_) - log_end_;
  for (std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{4}, tail / 2, tail - 1}) {
    write_at(image_, log_end_ + offset, {0x5a});
    EXPECT_EQ(recovered(image_).value().size(), kFrames) << "offset " << offset;
    write_at(image_, log_end_ + offset, {0x00});
  }
  write_at(image_, log_end_ + tail / 3, {0xa5});
  expect_recovers_then_appends(kFrames);
}

TEST_F(WalCrashImage, CleanCloseLeavesExactlyTheFrames) {
  Wal wal;
  ASSERT_TRUE(wal.open(path_).is_ok());
  ASSERT_TRUE(wal.append(insert_record(kFrames + 1)).is_ok());
  ASSERT_TRUE(wal.sync().is_ok());
  EXPECT_GT(fs::file_size(path_), log_end_);
  ASSERT_TRUE(wal.close().is_ok());
  EXPECT_EQ(fs::file_size(path_), log_end_ + frame_of(insert_record(kFrames + 1)).size());
}

TEST(Wal, CorruptChecksumStopsScan) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    for (int i = 0; i < 3; ++i) {
      LogRecord rec;
      rec.kind = LogKind::begin;
      rec.txn = static_cast<std::uint64_t>(i + 1);
      ASSERT_TRUE(wal.append(rec).is_ok());
    }
    ASSERT_TRUE(wal.sync().is_ok());
  }
  // Flip a byte in the middle of the file.
  auto size = fs::file_size(path);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  auto records = recovered(path);
  ASSERT_TRUE(records.is_ok());
  EXPECT_LT(records.value().size(), 3u);
}

TEST(Wal, ReplayAppliesOnlyCommittedTxns) {
  Catalog replayed;
  std::vector<LogRecord> log;
  {
    LogRecord rec;
    rec.kind = LogKind::create_table;
    rec.table = "t";
    rec.schema = simple_schema();
    log.push_back(rec);
  }
  auto dml = [&](LogKind kind, std::uint64_t txn, std::uint64_t row,
                 std::vector<Value> after) {
    LogRecord rec;
    rec.kind = kind;
    rec.txn = txn;
    rec.table = "t";
    rec.row = RowId{row};
    rec.after = std::move(after);
    log.push_back(rec);
  };
  // Autocommit insert (txn 0) always applies.
  dml(LogKind::insert, 0, 1, {Value("auto"), Value(1)});
  // Txn 5 commits.
  dml(LogKind::insert, 5, 2, {Value("committed"), Value(2)});
  {
    LogRecord rec;
    rec.kind = LogKind::commit;
    rec.txn = 5;
    log.push_back(rec);
  }
  // Txn 6 never commits.
  dml(LogKind::insert, 6, 3, {Value("lost"), Value(3)});

  ASSERT_TRUE(Wal::replay(log, replayed).is_ok());
  const Table* t = replayed.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 2u);
  EXPECT_TRUE(t->find_unique("k", Value("auto")).has_value());
  EXPECT_TRUE(t->find_unique("k", Value("committed")).has_value());
  EXPECT_FALSE(t->find_unique("k", Value("lost")).has_value());
}

TEST(Snapshot, RoundTripPreservesRowsAndIds) {
  TempDir dir;
  std::string path = dir.str() + "/snap.db";
  Catalog original;
  ASSERT_TRUE(original.create_table(simple_schema()).is_ok());
  std::vector<RowId> ids;
  for (int i = 0; i < 25; ++i) {
    ids.push_back(
        original.insert("t", {Value("k" + std::to_string(i)), Value(i)}).value());
  }
  // Punch holes so row ids are non-contiguous.
  ASSERT_TRUE(original.erase("t", ids[5]).is_ok());
  ASSERT_TRUE(original.erase("t", ids[6]).is_ok());
  ASSERT_TRUE(save_snapshot(original, path).is_ok());

  Catalog loaded;
  ASSERT_TRUE(load_snapshot(path, loaded).is_ok());
  const Table* t = loaded.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 23u);
  EXPECT_EQ(t->get(ids[5]), nullptr);
  EXPECT_EQ(t->get(ids[7])->at(0).as_text(), "k7");
  // Fresh inserts don't reuse snapshot row ids.
  RowId fresh = loaded.insert("t", {Value("new"), Value(99)}).value();
  EXPECT_GT(fresh, ids.back());
}

TEST(Snapshot, OrdersParentTablesFirst) {
  TempDir dir;
  std::string path = dir.str() + "/snap.db";
  Catalog original;
  // "a_child" sorts before "z_parent" alphabetically; the snapshot must
  // still create z_parent first.
  Schema parent("z_parent", {Column{"name", ValueType::text, false, false, false}},
                "name");
  Schema child("a_child",
               {Column{"id", ValueType::integer, false, true, false},
                Column{"p", ValueType::text, true, false, false}},
               "", {ForeignKey{"p", "z_parent", "name", RefAction::restrict}});
  ASSERT_TRUE(original.create_table(parent).is_ok());
  ASSERT_TRUE(original.create_table(child).is_ok());
  ASSERT_TRUE(original.insert("z_parent", {Value("p1")}).is_ok());
  ASSERT_TRUE(original.insert("a_child", {Value(1), Value("p1")}).is_ok());
  ASSERT_TRUE(save_snapshot(original, path).is_ok());
  Catalog loaded;
  ASSERT_TRUE(load_snapshot(path, loaded).is_ok());
  EXPECT_EQ(loaded.table("a_child")->row_count(), 1u);
}

TEST(Snapshot, DetectsCorruption) {
  TempDir dir;
  std::string path = dir.str() + "/snap.db";
  Catalog original;
  ASSERT_TRUE(original.create_table(simple_schema()).is_ok());
  ASSERT_TRUE(original.insert("t", {Value("x"), Value(1)}).is_ok());
  ASSERT_TRUE(save_snapshot(original, path).is_ok());
  // Corrupt one byte past the checksum header.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, 20, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
  Catalog loaded;
  EXPECT_EQ(load_snapshot(path, loaded).code(), Errc::corrupt);
}

TEST(Database, DurableReopenReplaysWal) {
  TempDir dir;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    ASSERT_TRUE(db.value()->insert("t", {Value("persisted"), Value(1)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  const Table* t = reopened.value()->catalog().table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->find_unique("k", Value("persisted")).has_value());
}

TEST(Database, CheckpointCollapsesWalIntoSnapshot) {
  TempDir dir;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db.value()->insert("t", {Value("k" + std::to_string(i)), Value(i)}).is_ok());
    }
    ASSERT_TRUE(db.value()->checkpoint().is_ok());
    // Post-checkpoint mutation lands in the fresh WAL.
    ASSERT_TRUE(db.value()->insert("t", {Value("tail"), Value(99)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  // WAL now only holds the tail record.
  auto records = recovered(dir.str() + "/wal.log");
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 1u);

  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->catalog().table("t")->row_count(), 11u);
}

TEST(Database, CommitAfterTornTailSurvivesRecovery) {
  TempDir dir;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    ASSERT_TRUE(db.value()->insert("t", {Value("before"), Value(1)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  append_bytes(dir.str() + "/wal.log", kTornHeader);
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_EQ(db.value()->catalog().table("t")->row_count(), 1u);
    ASSERT_TRUE(db.value()->insert("t", {Value("after"), Value(2)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  const Table* t = reopened.value()->catalog().table("t");
  EXPECT_EQ(t->row_count(), 2u);
  EXPECT_TRUE(t->find_unique("k", Value("after")).has_value());
}

TEST(Database, EraseAndUpdateSurviveReopen) {
  TempDir dir;
  RowId victim;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    victim = db.value()->insert("t", {Value("victim"), Value(1)}).value();
    RowId keeper = db.value()->insert("t", {Value("keeper"), Value(2)}).value();
    ASSERT_TRUE(db.value()->erase("t", victim).is_ok());
    ASSERT_TRUE(db.value()->update_column("t", keeper, "v", Value(42)).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  const Table* t = reopened.value()->catalog().table("t");
  EXPECT_EQ(t->row_count(), 1u);
  auto keeper = t->find_unique("k", Value("keeper"));
  ASSERT_TRUE(keeper.has_value());
  EXPECT_EQ(t->get(*keeper)->at(1).as_int(), 42);
}

TEST(Database, AutoCheckpointCollapsesWal) {
  TempDir dir;
  auto db = Database::open(dir.str());
  ASSERT_TRUE(db.is_ok());
  ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
  db.value()->set_auto_checkpoint(2048);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.value()->insert("t", {Value("k" + std::to_string(i)), Value(i)}).is_ok());
  }
  // The WAL must have been collapsed at least once: far fewer records than
  // inserts remain, and the snapshot exists.
  auto records = recovered(dir.str() + "/wal.log");
  ASSERT_TRUE(records.is_ok());
  EXPECT_LT(records.value().size(), 200u);
  EXPECT_TRUE(fs::exists(dir.str() + "/snapshot.db"));
  // Reopen sees everything.
  db.value().reset();
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->catalog().table("t")->row_count(), 200u);
}

TEST(Database, InMemoryHasNoFiles) {
  auto db = Database::in_memory();
  ASSERT_TRUE(db->create_table(simple_schema()).is_ok());
  ASSERT_TRUE(db->insert("t", {Value("x"), Value(1)}).is_ok());
  EXPECT_FALSE(db->durable());
  EXPECT_TRUE(db->checkpoint().is_ok());  // no-op
}

}  // namespace
}  // namespace wdoc::storage
