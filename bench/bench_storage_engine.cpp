// E11 — storage_engine: throughput of the embedded relational substrate on
// the paper's own schema (the "MS SQL server behind ODBC" stand-in).
//
// Measures: script-row inserts, unique-name point lookups (hash/B-tree),
// indexed secondary lookups, range scans, FK-checked inserts, transactional
// updates, buffered WAL-on inserts, and durable commits.
#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "docmodel/schema_defs.hpp"
#include "obs/metrics.hpp"
#include "storage/sql.hpp"
#include "storage/txn.hpp"

using namespace wdoc;
using namespace wdoc::storage;

namespace {

std::vector<Value> script_row(std::size_t i) {
  return {Value("script-" + std::to_string(i)),
          Value("keywords multimedia database"),
          Value("author-" + std::to_string(i % 50)),
          Value("1.0"),
          Value(static_cast<std::int64_t>(1000 + i)),
          Value("description of course " + std::to_string(i)),
          Value::null(),
          Value(static_cast<std::int64_t>(2000 + i)),
          Value(static_cast<double>(i % 100))};
}

void BM_ScriptInsert(benchmark::State& state) {
  std::size_t i = 0;
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  for (auto _ : state) {
    auto r = db->insert(docmodel::kScriptTable, script_row(i++));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScriptInsert);

void BM_UniqueNameLookup(benchmark::State& state) {
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    db->insert(docmodel::kScriptTable, script_row(i)).expect("seed");
  }
  const Table* t = db->catalog().table(docmodel::kScriptTable);
  std::size_t i = 0;
  for (auto _ : state) {
    auto hit = t->find_unique("name", Value("script-" + std::to_string(i++ % n)));
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UniqueNameLookup)->Arg(1000)->Arg(100000);

void BM_SecondaryIndexLookup(benchmark::State& state) {
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    db->insert(docmodel::kScriptTable, script_row(i)).expect("seed");
  }
  const Table* t = db->catalog().table(docmodel::kScriptTable);
  std::size_t i = 0;
  for (auto _ : state) {
    auto hits = t->find_equal("author", Value("author-" + std::to_string(i++ % 50)));
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SecondaryIndexLookup)->Arg(10000);

void BM_RangeScan(benchmark::State& state) {
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  const std::size_t n = 10000;
  for (std::size_t i = 0; i < n; ++i) {
    db->insert(docmodel::kScriptTable, script_row(i)).expect("seed");
  }
  const Table* t = db->catalog().table(docmodel::kScriptTable);
  for (auto _ : state) {
    Value lo("script-3000"), hi("script-4000");
    std::size_t count = 0;
    t->scan_range("name", &lo, &hi, [&](RowId, const std::vector<Value>&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_RangeScan)->Unit(benchmark::kMicrosecond);

void BM_FkCheckedInsert(benchmark::State& state) {
  auto db = Database::in_memory();
  docmodel::install_schemas(*db).expect("schemas");
  db->insert(docmodel::kScriptTable, script_row(0)).expect("parent");
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = db->insert(docmodel::kImplementationTable,
                        {Value("http://mmu.edu/impl-" + std::to_string(i++)),
                         Value("script-0"), Value("author"), Value(1000),
                         Value(1)});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FkCheckedInsert);

void BM_TxnUpdateCommit(benchmark::State& state) {
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  std::vector<RowId> rows;
  for (std::size_t i = 0; i < 1000; ++i) {
    rows.push_back(db->insert(docmodel::kScriptTable, script_row(i)).expect("seed"));
  }
  TransactionManager mgr(*db);
  std::size_t i = 0;
  for (auto _ : state) {
    auto txn = mgr.begin();
    txn->update_column(docmodel::kScriptTable, rows[i++ % rows.size()],
                       "pct_complete", Value(50.0))
        .expect("update");
    txn->commit().expect("commit");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TxnUpdateCommit);

void BM_SqlPointSelect(benchmark::State& state) {
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  for (std::size_t i = 0; i < 10000; ++i) {
    db->insert(docmodel::kScriptTable, script_row(i)).expect("seed");
  }
  sql::Engine engine(*db);
  std::size_t i = 0;
  for (auto _ : state) {
    auto rs = engine.execute("SELECT name, pct_complete FROM wd_script WHERE name "
                             "= 'script-" +
                             std::to_string(i++ % 10000) + "'");
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SqlPointSelect);

void BM_SqlAggregateGroupBy(benchmark::State& state) {
  auto db = Database::in_memory();
  db->create_table(docmodel::script_schema()).expect("schema");
  for (std::size_t i = 0; i < 10000; ++i) {
    db->insert(docmodel::kScriptTable, script_row(i)).expect("seed");
  }
  sql::Engine engine(*db);
  for (auto _ : state) {
    auto rs = engine.execute(
        "SELECT author, COUNT(*), AVG(pct_complete) FROM wd_script GROUP BY author");
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SqlAggregateGroupBy)->Unit(benchmark::kMillisecond);

void BM_SqlJoin(benchmark::State& state) {
  auto db = Database::in_memory();
  docmodel::install_schemas(*db).expect("schemas");
  for (std::size_t i = 0; i < 500; ++i) {
    db->insert(docmodel::kScriptTable, script_row(i)).expect("script");
    for (int t = 0; t < 2; ++t) {
      db->insert(docmodel::kImplementationTable,
                 {Value("http://mmu.edu/s" + std::to_string(i) + "/t" +
                        std::to_string(t)),
                  Value("script-" + std::to_string(i)), Value("a"), Value(1),
                  Value(t + 1)})
          .expect("impl");
    }
  }
  sql::Engine engine(*db);
  for (auto _ : state) {
    auto rs = engine.execute(
        "SELECT wd_script.name, wd_implementation.starting_url FROM wd_script "
        "JOIN wd_implementation ON wd_script.name = wd_implementation.script_name "
        "WHERE wd_implementation.try_number = 2");
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SqlJoin)->Unit(benchmark::kMillisecond);

// Autocommit inserts into a database opened on disk. Each insert frames a
// WAL record into the log's user-space buffer and none is synced, so this
// is the cost of logging, not of durability.
void BM_BufferedWalInsert(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "wdoc-bench-durable").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto db = Database::open(dir).expect("open");
  db->create_table(docmodel::script_schema()).expect("schema");
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = db->insert(docmodel::kScriptTable, script_row(i++));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_BufferedWalInsert);

// One committer's durable transaction under the repo benchmark's flush
// policy (bench/suite/commit.cpp): begin -> update_column -> commit, then
// fdatasync of wal.log, because Wal::sync hands frames to the kernel and
// does not fsync. The fdatasync makes the figure the disk's: it is
// host-dependent.
void BM_DurableCommit(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "wdoc-bench-commit").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto db = Database::open(dir).expect("open");
  db->create_table(docmodel::script_schema()).expect("schema");
  std::vector<RowId> rows;
  for (std::size_t i = 0; i < 1000; ++i) {
    rows.push_back(db->insert(docmodel::kScriptTable, script_row(i)).expect("seed"));
  }
  db->flush().expect("flush");
  const int wal_fd = ::open((dir + "/wal.log").c_str(), O_RDONLY | O_CLOEXEC);
  if (wal_fd < 0 || ::fdatasync(wal_fd) != 0) {
    state.SkipWithError("cannot fdatasync wal.log");
  } else {
    TransactionManager mgr(*db);
    std::size_t i = 0;
    for (auto _ : state) {
      auto txn = mgr.begin();
      txn->update_column(docmodel::kScriptTable, rows[i % rows.size()], "pct_complete",
                         Value(static_cast<double>(i)))
          .expect("update");
      txn->commit().expect("commit");
      if (::fdatasync(wal_fd) != 0) {
        state.SkipWithError("fdatasync failed");
        break;
      }
      ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  }
  if (wal_fd >= 0) ::close(wal_fd);
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableCommit)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Strip --metrics-json=<path> before google-benchmark parses the rest.
  std::string metrics_path = obs::metrics_json_arg(argc, argv);
  std::printf("=== E11: relational substrate throughput on the paper schema ===\n\n");
  // Quick capacity sanity print: the full 11-table schema loaded with a
  // plausible department's worth of content.
  {
    auto db = Database::in_memory();
    docmodel::install_schemas(*db).expect("schemas");
    for (std::size_t i = 0; i < 200; ++i) {
      db->insert(docmodel::kScriptTable, script_row(i)).expect("script");
    }
    std::printf("schema installed: %zu tables, %zu rows seeded, %zu payload bytes\n\n",
                db->catalog().table_names().size(), db->catalog().total_rows(),
                db->catalog().total_payload_bytes());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!metrics_path.empty()) {
    if (obs::write_json_file(metrics_path)) {
      std::fprintf(stderr, "metrics snapshot written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write metrics snapshot to %s\n",
                   metrics_path.c_str());
    }
  }
  return 0;
}
