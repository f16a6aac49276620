// Durable commits on the paper schema. Each transaction is begin ->
// update_column(pct_complete) on one of 10,000 seeded wd_script rows drawn
// uniformly -> commit, on a Database opened on a fresh directory.
//
// Committer i draws only rows i, i + k, i + 2k, ... of k committers, so no
// two transactions ever wait for one row lock: the waits measured are the
// engine's own serialization. It also keeps the run clear of a lock-table
// bug: TransactionManager::release_all erases a row's lock entry while a
// waiter in acquire() still holds a reference to it (a heap use-after-free
// under AddressSanitizer whenever two committers meet on one row).
//
// Flush policy: a commit counts as durable once commit() has returned and
// the benchmark itself has called fdatasync on <dir>/wal.log. Wal::sync
// only flushes the stdio buffer, so this fdatasync is what makes the number
// honest; once the engine syncs for itself, the extra call finds a clean
// inode and costs little, so the number stays comparable.
//
// The run has two phases of opt.seconds / 2 each:
//   latency   1 committer: the per-commit write path without contention
//             gives p50_us and p90_us (begin -> durable).
//   capacity  kCommitters committers: lock, latch and sync waits, where
//             group commit would show, give ops_per_s (durable commits/s).
//             Fewer committers than vCPUs: the kernel thread that completes
//             each fdatasync needs a CPU too, and with one committer per
//             vCPU the run-to-run spread of commits/s doubled.
#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "docmodel/schema_defs.hpp"
#include "obs/metrics.hpp"
#include "storage/database.hpp"
#include "storage/txn.hpp"
#include "suite.hpp"

namespace wdoc::suite {
namespace {

using storage::Value;

constexpr std::size_t kRows = 10'000;
constexpr std::size_t kCommitters = 3;  // in the capacity phase
// Transactions per batch, split evenly across the committers. The engine
// keeps every finished transaction, undo images included, in its table and
// commit scans that table, so the cost of a commit grows with the history
// before it; a fixed batch on a fresh database gives every batch the same
// history whatever the run length. The batch is short because that scan is
// memory-bound and its speed drifts with the shared host: over ten runs,
// 10,000-transaction batches spread commits/s by 27% and p50 by 15%,
// 2,000-transaction batches by 15% and 8%.
constexpr std::size_t kBatchTxns = 2'000;

// A fresh database directory with the seeded rows, removed on destruction.
struct Env {
  ~Env() {
    mgr.reset();
    db.reset();
    if (wal_fd >= 0) ::close(wal_fd);
    std::filesystem::remove_all(dir);
  }

  std::string dir;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<storage::TransactionManager> mgr;
  std::vector<RowId> rows;
  std::vector<double> initial;  // pct_complete per row
  int wal_fd = -1;              // <dir>/wal.log, for the benchmark's fdatasync
};

std::unique_ptr<Env> make_env(const Options& opt) {
  auto env = std::make_unique<Env>();
  std::string tmpl = opt.work_dir + "/wdoc-commit-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::abort();
  }
  env->dir = tmpl;
  env->db = storage::Database::open(env->dir).expect("open database");
  env->db->create_table(docmodel::script_schema()).expect("create wd_script");
  const auto rows = static_cast<std::size_t>(static_cast<double>(kRows) * opt.scale);
  Rng rng(opt.seed);
  for (std::size_t i = 0; i < rows; ++i) {
    const double pct = static_cast<double>(rng.uniform(101));
    env->initial.push_back(pct);
    env->rows.push_back(
        env->db
            ->insert(docmodel::kScriptTable,
                     {Value("script-" + std::to_string(i)), Value("keywords multimedia database"),
                      Value("author-" + std::to_string(i % 50)), Value("1.0"),
                      Value(static_cast<std::int64_t>(1000 + i)),
                      Value("description of course " + std::to_string(i)), Value::null(),
                      Value(static_cast<std::int64_t>(2000 + i)), Value(pct)})
            .expect("seed row"));
  }
  env->db->flush().expect("flush");
  env->wal_fd = ::open((env->dir + "/wal.log").c_str(), O_RDONLY | O_CLOEXEC);
  if (env->wal_fd < 0 || ::fdatasync(env->wal_fd) != 0) {
    std::perror("wal.log");
    std::abort();
  }
  env->mgr = std::make_unique<storage::TransactionManager>(*env->db);
  return env;
}

// One acknowledged transaction. Stage stamps between start and durable are
// taken only in traced runs.
struct Txn {
  std::int64_t start = 0;
  std::int64_t begun = 0;
  std::int64_t updated = 0;
  std::int64_t committed = 0;
  std::int64_t durable = 0;
  std::uint32_t row = 0;
  std::uint32_t committer = 0;
  double value = 0;
};

struct Committer {
  std::vector<Txn> done;
  std::uint64_t failed = 0;
};

void commit_loop(Env& env, std::size_t id, std::size_t committers, std::size_t count,
                 std::uint64_t seed, bool traced, Committer& out) {
  Rng rng(seed * 31 + id);
  const std::size_t own_rows = env.rows.size() / committers;
  for (std::uint64_t k = 0; k < count; ++k) {
    Txn t;
    t.committer = static_cast<std::uint32_t>(id);
    t.row = static_cast<std::uint32_t>(id + committers * rng.uniform(own_rows));
    // Unique per transaction, exact in a double.
    t.value = static_cast<double>(id) * 1e12 + static_cast<double>(k) + 1000;
    t.start = now_ns();
    std::unique_ptr<storage::Txn> txn = env.mgr->begin();
    if (traced) t.begun = now_ns();
    Status s = txn->update_column(docmodel::kScriptTable, env.rows[t.row], "pct_complete",
                                  Value(t.value));
    if (traced) t.updated = now_ns();
    if (!s.is_ok()) {
      txn->abort();
      ++out.failed;
      continue;
    }
    if (!txn->commit().is_ok()) {
      ++out.failed;
      continue;
    }
    if (traced) t.committed = now_ns();
    if (::fdatasync(env.wal_fd) != 0) {
      ++out.failed;
      continue;
    }
    t.durable = now_ns();
    out.done.push_back(t);
  }
}

std::vector<double> stage_us(const std::vector<Txn>& txns, std::int64_t Txn::*to,
                             std::int64_t Txn::*from) {
  std::vector<double> out;
  out.reserve(txns.size());
  for (const Txn& t : txns) out.push_back(static_cast<double>(t.*to - t.*from) / 1e3);
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// Registry counters read around a batch's commit phase.
constexpr const char* kCounters[] = {"storage.txn_abort", "storage.txn_deadlocks",
                                     "storage.wal_appends", "storage.wal_bytes",
                                     "storage.wal_fsyncs"};

struct Batch {
  std::vector<Txn> txns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t wrong_rows = 0;  // rows not holding their last acknowledged value
  double wall_s = 0;           // first begin to last durable
  double replay_s = 0;         // Database::open of the directory afterwards
  std::map<std::string, double> counters;  // deltas of kCounters
};

Batch run_batch(Env& env, std::size_t committers, std::size_t count, const Options& opt) {
  Batch b;
  for (const char* c : kCounters) b.counters[c] = -static_cast<double>(counter(c));
  std::vector<Committer> results(committers);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < committers; ++i) {
      threads.emplace_back([&, i] {
        commit_loop(env, i, committers, count / committers, opt.seed, opt.traced(),
                    results[i]);
      });
    }
  }
  for (const char* c : kCounters) b.counters[c] += static_cast<double>(counter(c));
  std::int64_t first = INT64_MAX, end = 0;
  b.attempted = count / committers * committers;
  for (const Committer& c : results) {
    b.failed += c.failed;
    b.txns.insert(b.txns.end(), c.done.begin(), c.done.end());
    for (const Txn& t : c.done) {
      first = std::min(first, t.start);
      end = std::max(end, t.durable);
    }
  }
  b.wall_s = static_cast<double>(end - first) * 1e-9;

  // Every row must hold its last acknowledged value after a reopen. One
  // committer writes each row, in the order of its own list.
  env.mgr.reset();
  env.db.reset();
  const std::int64_t reopen = now_ns();
  auto db = storage::Database::open(env.dir).expect("reopen database");
  b.replay_s = static_cast<double>(now_ns() - reopen) * 1e-9;
  std::vector<const Txn*> last(env.rows.size(), nullptr);
  for (const Txn& t : b.txns) last[t.row] = &t;
  const storage::Table* table = db->catalog().table(docmodel::kScriptTable);
  const std::size_t pct = table->schema().column_index("pct_complete").value();
  for (std::size_t i = 0; i < env.rows.size(); ++i) {
    const std::vector<Value>* row = table->get(env.rows[i]);
    const double want = last[i] != nullptr ? last[i]->value : env.initial[i];
    if (row == nullptr || (*row)[pct].as_real() != want) ++b.wrong_rows;
  }
  return b;
}

// The batches of one phase: batches of `committers` on fresh databases
// until the next one would overrun `seconds`; always at least one. `env`
// holds a fresh database on entry or is null, and is used up.
struct Phase {
  std::vector<Txn> txns;  // traced runs only, so peak RSS does not follow commits/s
  std::vector<std::vector<double>> latency_us;  // begin -> durable, per batch
  std::vector<double> rate;                     // durable commits/s, per batch
  std::vector<double> replay_s;
  std::map<std::string, double> counters;
};

Phase run_phase(std::unique_ptr<Env> env, std::size_t committers, double seconds,
                const Options& opt, Report& r) {
  const auto count = static_cast<std::size_t>(static_cast<double>(kBatchTxns) * opt.scale);
  Phase ph;
  const std::int64_t start = now_ns();
  for (int batches = 1;; ++batches) {
    if (!env) env = make_env(opt);
    Batch b = run_batch(*env, committers, count, opt);
    env.reset();
    r.attempted += b.attempted;
    r.failed += b.failed;
    r.check(b.wrong_rows == 0,
            std::to_string(b.wrong_rows) + " rows lost their last acknowledged value");
    ph.latency_us.push_back(stage_us(b.txns, &Txn::durable, &Txn::start));
    if (!b.txns.empty()) ph.rate.push_back(static_cast<double>(b.txns.size()) / b.wall_s);
    if (opt.traced()) ph.txns.insert(ph.txns.end(), b.txns.begin(), b.txns.end());
    for (const auto& [name, v] : b.counters) ph.counters[name] += v;
    ph.replay_s.push_back(b.replay_s);
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed * (batches + 1) / batches > seconds) break;
  }
  return ph;
}

}  // namespace

Report run_commit(const Options& opt) {
  Report r;
  double setup_s = 0;
  std::unique_ptr<Env> env = timed_setup([&] { return make_env(opt); }, setup_s);
  r.metrics["setup_s"] = {setup_s, "s"};
  if (opt.setup_only) return r;

  const Phase serial = run_phase(std::move(env), 1, opt.seconds / 2, opt, r);
  const Phase capacity = run_phase(nullptr, kCommitters, opt.seconds / 2, opt, r);

  std::vector<double> latency;
  for (const std::vector<double>& b : serial.latency_us) {
    latency.insert(latency.end(), b.begin(), b.end());
  }
  r.metrics["p50_us"] = {percentile(latency, 0.50), "us"};
  r.metrics["p90_us"] = {median_of_percentiles(serial.latency_us, 0.90), "us"};
  r.metrics["ops_per_s"] = {median(capacity.rate), "1/s"};
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  if (!opt.traced()) return r;

  // Stages of the latency phase explain p50_us and p90_us; the waits of the
  // capacity phase explain ops_per_s.
  const std::vector<double> begin = stage_us(serial.txns, &Txn::begun, &Txn::start);
  const std::vector<double> update = stage_us(serial.txns, &Txn::updated, &Txn::begun);
  const std::vector<double> commit = stage_us(serial.txns, &Txn::committed, &Txn::updated);
  const std::vector<double> sync = stage_us(serial.txns, &Txn::durable, &Txn::committed);
  r.layers["txn.begin_p50_us"] = {percentile(begin, 0.5), "us"};
  r.layers["txn.update_p50_us"] = {percentile(update, 0.5), "us"};
  r.layers["txn.update_p99_us"] = {percentile(update, 0.99), "us"};
  r.layers["txn.commit_p50_us"] = {percentile(commit, 0.5), "us"};
  r.layers["txn.commit_p99_us"] = {percentile(commit, 0.99), "us"};
  r.layers["wal.fdatasync_p50_us"] = {percentile(sync, 0.5), "us"};
  r.layers["wal.fdatasync_p99_us"] = {percentile(sync, 0.99), "us"};
  r.layers["layer_sum_ratio"] = {layer_sum_ratio(latency, {begin, update, commit, sync}),
                                 "ratio"};
  const std::vector<Txn>& conc = capacity.txns;
  r.layers["txn.capacity.begin_p50_us"] = {
      percentile(stage_us(conc, &Txn::begun, &Txn::start), 0.5), "us"};
  r.layers["txn.capacity.update_p50_us"] = {
      percentile(stage_us(conc, &Txn::updated, &Txn::begun), 0.5), "us"};
  r.layers["txn.capacity.commit_p50_us"] = {
      percentile(stage_us(conc, &Txn::committed, &Txn::updated), 0.5), "us"};
  r.layers["wal.capacity.fdatasync_p50_us"] = {
      percentile(stage_us(conc, &Txn::durable, &Txn::committed), 0.5), "us"};

  std::map<std::string, double> counters = serial.counters;
  for (const auto& [name, v] : capacity.counters) counters[name] += v;
  std::vector<double> replay_s = serial.replay_s;
  replay_s.insert(replay_s.end(), capacity.replay_s.begin(), capacity.replay_s.end());
  const double commits = static_cast<double>(serial.txns.size() + conc.size());
  r.layers["txn.aborts"] = {counters["storage.txn_abort"], "count"};
  r.layers["txn.deadlocks"] = {counters["storage.txn_deadlocks"], "count"};
  r.layers["wal.appends_per_commit"] = {counters["storage.wal_appends"] / commits, "count"};
  r.layers["wal.bytes_per_commit"] = {counters["storage.wal_bytes"] / commits, "bytes"};
  r.layers["wal.syncs_per_commit"] = {counters["storage.wal_fsyncs"] / commits, "count"};
  r.layers["wal.replay_s"] = {median(replay_s), "s"};

  // A 1% sample of commits; the capacity phase's committers are threads
  // 101.. in the trace.
  std::vector<TraceEvent> events;
  for (const auto* phase : {&serial, &capacity}) {
    const std::uint64_t tid_base = phase == &serial ? 1 : 101;
    for (std::size_t i = 0; i < phase->txns.size(); i += 100) {
      const Txn& t = phase->txns[i];
      const std::uint64_t tid = tid_base + t.committer;
      events.push_back({"txn.begin", t.start, t.begun - t.start, tid});
      events.push_back({"txn.update", t.begun, t.updated - t.begun, tid});
      events.push_back({"txn.commit", t.updated, t.committed - t.updated, tid});
      events.push_back({"wal.fdatasync", t.committed, t.durable - t.committed, tid});
    }
  }
  r.check(write_chrome_trace(opt.trace_dir + "/" + opt.workload + ".trace.json", events, {}),
          "could not write the trace file");
  return r;
}

}  // namespace wdoc::suite
