#include "storage/txn.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"

namespace wdoc::storage {

const char* txn_lock_mode_name(TxnLockMode m) {
  switch (m) {
    case TxnLockMode::IS: return "IS";
    case TxnLockMode::IX: return "IX";
    case TxnLockMode::S: return "S";
    case TxnLockMode::X: return "X";
  }
  return "?";
}

bool txn_lock_compatible(TxnLockMode held, TxnLockMode wanted) {
  // Standard multigranularity compatibility matrix.
  static constexpr bool kCompat[4][4] = {
      // held:      IS     IX     S      X       wanted v
      /* IS */ {true, true, true, false},
      /* IX */ {true, true, false, false},
      /* S  */ {true, false, true, false},
      /* X  */ {false, false, false, false},
  };
  return kCompat[static_cast<int>(held)][static_cast<int>(wanted)];
}

namespace {

// Process-wide transaction/lock-wait metrics shared by every manager.
struct TxnMetrics {
  obs::Counter& begins;
  obs::Counter& commits;
  obs::Counter& aborts;
  obs::Counter& deadlocks;
  obs::Counter& lock_timeouts;

  static TxnMetrics& get() {
    static TxnMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new TxnMetrics{
          reg.counter("storage.txn_begin"),     reg.counter("storage.txn_commit"),
          reg.counter("storage.txn_abort"),     reg.counter("storage.txn_deadlocks"),
          reg.counter("storage.lock_timeouts"),
      };
    }();
    return *m;
  }
};

obs::Counter& lock_wait_counter(TxnLockMode mode) {
  // Magic statics: thread-safe one-time registration per mode.
  static obs::Counter& is =
      obs::MetricsRegistry::global().counter("storage.lock_waits", {{"mode", "IS"}});
  static obs::Counter& ix =
      obs::MetricsRegistry::global().counter("storage.lock_waits", {{"mode", "IX"}});
  static obs::Counter& sh =
      obs::MetricsRegistry::global().counter("storage.lock_waits", {{"mode", "S"}});
  static obs::Counter& ex =
      obs::MetricsRegistry::global().counter("storage.lock_waits", {{"mode", "X"}});
  switch (mode) {
    case TxnLockMode::IS: return is;
    case TxnLockMode::IX: return ix;
    case TxnLockMode::S: return sh;
    case TxnLockMode::X: return ex;
  }
  return ex;
}

// Upgrade lattice: result of holding `a` and additionally needing `b`.
TxnLockMode combine(TxnLockMode a, TxnLockMode b) {
  if (a == b) return a;
  auto is = [](TxnLockMode m, TxnLockMode probe) { return m == probe; };
  if (is(a, TxnLockMode::X) || is(b, TxnLockMode::X)) return TxnLockMode::X;
  // S + IX = SIX, which we conservatively round up to X (rare in our
  // workloads: a scan followed by writes to the same table).
  if ((a == TxnLockMode::S && b == TxnLockMode::IX) ||
      (a == TxnLockMode::IX && b == TxnLockMode::S)) {
    return TxnLockMode::X;
  }
  if (is(a, TxnLockMode::S) || is(b, TxnLockMode::S)) return TxnLockMode::S;
  if (is(a, TxnLockMode::IX) || is(b, TxnLockMode::IX)) return TxnLockMode::IX;
  return TxnLockMode::IS;
}

}  // namespace

// Sink that both records undo entries and forwards to the database WAL with
// the transaction's id.
class TransactionManager::UndoSink final : public MutationSink {
 public:
  UndoSink(TransactionManager* mgr, TxnId id) : mgr_(mgr), id_(id) {}

  void on_mutation(const Mutation& m) override {
    {
      std::lock_guard<std::mutex> g(mgr_->mu_);
      auto it = mgr_->txns_.find(id_.value());
      WDOC_CHECK(it != mgr_->txns_.end(), "mutation in finished txn");
      it->second.undo.push_back(m);
    }
    Status s = mgr_->db_.log(LogRecord::of(m, id_.value()));
    if (!s.is_ok()) WDOC_CHECK(false, "txn WAL append failed: " + s.message());
  }

 private:
  TransactionManager* mgr_;
  TxnId id_;
};

TransactionManager::TransactionManager(Database& db, std::chrono::milliseconds lock_timeout)
    : db_(db), lock_timeout_(lock_timeout) {}

TransactionManager::~TransactionManager() = default;

std::unique_ptr<Txn> TransactionManager::begin() {
  std::lock_guard<std::mutex> g(mu_);
  TxnId id = ids_.next();
  txns_[id.value()] = TxnState{};
  TxnMetrics::get().begins.inc();
  LogRecord rec;
  rec.kind = LogKind::begin;
  rec.txn = id.value();
  Status s = db_.log(rec);
  if (!s.is_ok()) WDOC_CHECK(false, "txn WAL begin failed");
  return std::unique_ptr<Txn>(new Txn(this, id));
}

std::size_t TransactionManager::active_txns() const {
  std::lock_guard<std::mutex> g(mu_);
  return txns_.size();
}

bool TransactionManager::would_deadlock(std::uint64_t waiter, const ResourceKey& key,
                                        TxnLockMode mode) {
  // DFS over the waits-for graph: waiter -> current holders blocking it,
  // then each waiting holder -> holders blocking *its* pending request.
  std::set<std::uint64_t> visited;
  std::vector<std::uint64_t> stack;

  auto blockers = [&](const ResourceKey& k, TxnLockMode m,
                      std::uint64_t self) -> std::vector<std::uint64_t> {
    std::vector<std::uint64_t> out;
    auto it = locks_.find(k);
    if (it == locks_.end()) return out;
    for (const auto& [holder, held] : it->second.holders) {
      if (holder != self && !txn_lock_compatible(held, m)) out.push_back(holder);
    }
    return out;
  };

  for (std::uint64_t b : blockers(key, mode, waiter)) stack.push_back(b);
  while (!stack.empty()) {
    std::uint64_t t = stack.back();
    stack.pop_back();
    if (t == waiter) return true;
    if (!visited.insert(t).second) continue;
    auto wit = waiting_.find(t);
    if (wit == waiting_.end()) continue;
    for (std::uint64_t b : blockers(wit->second.first, wit->second.second, t)) {
      stack.push_back(b);
    }
  }
  return false;
}

Status TransactionManager::acquire(TxnId txn, const ResourceKey& key, TxnLockMode mode) {
  std::unique_lock<std::mutex> g(mu_);
  auto state = txns_.find(txn.value());
  WDOC_CHECK(state != txns_.end(), "acquire on finished txn");

  TxnLockMode target = mode;
  if (auto lit = locks_.find(key); lit != locks_.end()) {
    auto held_it = lit->second.holders.find(txn.value());
    if (held_it != lit->second.holders.end()) {
      target = combine(held_it->second, mode);
      if (target == held_it->second) return Status::ok();  // already strong enough
    }
  }

  // Looks the entry up afresh on every call: while we wait, release_all
  // erases it once its last holder leaves.
  auto grantable = [&] {
    auto lit = locks_.find(key);
    if (lit == locks_.end()) return true;
    for (const auto& [holder, held] : lit->second.holders) {
      if (holder == txn.value()) continue;
      if (!txn_lock_compatible(held, target)) return false;
    }
    return true;
  };

  const auto deadline = std::chrono::steady_clock::now() + lock_timeout_;
  bool waited = false;
  while (!grantable()) {
    if (!waited) {
      waited = true;
      lock_wait_counter(target).inc();
      obs::FlightRecorder::global().record(
          obs::FlightKind::lock_wait,
          key.table + " " + txn_lock_mode_name(target) + " blocked by holder",
          /*station=*/0, /*actor=*/txn.value());
    }
    if (would_deadlock(txn.value(), key, target)) {
      ++deadlocks_;
      TxnMetrics::get().deadlocks.inc();
      obs::FlightRecorder::global().record(
          obs::FlightKind::deadlock,
          "cycle in waits-for graph acquiring " + key.table + " " +
              txn_lock_mode_name(target),
          /*station=*/0, /*actor=*/txn.value());
      return {Errc::deadlock,
              "txn " + std::to_string(txn.value()) + " would deadlock on " + key.table};
    }
    waiting_[txn.value()] = {key, target};
    auto wait_result = cv_.wait_until(g, deadline);
    waiting_.erase(txn.value());
    if (wait_result == std::cv_status::timeout && !grantable()) {
      TxnMetrics::get().lock_timeouts.inc();
      obs::FlightRecorder::global().record(
          obs::FlightKind::lock_wait,
          key.table + " " + txn_lock_mode_name(target) + " wait timed out",
          /*station=*/0, /*actor=*/txn.value());
      return {Errc::timeout,
              "txn " + std::to_string(txn.value()) + " lock timeout on " + key.table};
    }
  }
  locks_[key].holders[txn.value()] = target;
  state->second.held.insert(key);
  return Status::ok();
}

void TransactionManager::release_all(TxnId txn) {
  // Caller holds mu_.
  auto it = txns_.find(txn.value());
  if (it == txns_.end()) return;
  for (const ResourceKey& key : it->second.held) {
    auto lit = locks_.find(key);
    if (lit == locks_.end()) continue;
    lit->second.holders.erase(txn.value());
    if (lit->second.holders.empty()) locks_.erase(lit);
  }
  txns_.erase(it);
  cv_.notify_all();
}

Status TransactionManager::lock_table(TxnId txn, const std::string& table,
                                      TxnLockMode mode) {
  return acquire(txn, ResourceKey{table, 0}, mode);
}

Status TransactionManager::lock_row(TxnId txn, const std::string& table, RowId row,
                                    TxnLockMode mode) {
  WDOC_CHECK(row.valid(), "lock_row on invalid row");
  return acquire(txn, ResourceKey{table, row.value()}, mode);
}

Status TransactionManager::finish_commit(Txn& txn) {
  LogRecord rec;
  rec.kind = LogKind::commit;
  rec.txn = txn.id().value();
  WDOC_TRY(db_.log(rec));
  WDOC_TRY(db_.flush());
  // Lock order physical_mu_ then mu_, as in DML (whose UndoSink takes mu_
  // under the latch) and finish_abort.
  std::lock_guard<std::mutex> latch(physical_mu_);
  std::lock_guard<std::mutex> g(mu_);
  // Auto-checkpoint only when this is the sole active transaction: a
  // snapshot must not capture other transactions' uncommitted writes.
  // Holding mu_ keeps new transactions from beginning mid-snapshot.
  if (txns_.size() == 1) WDOC_TRY(db_.maybe_checkpoint());
  release_all(txn.id());
  TxnMetrics::get().commits.inc();
  return Status::ok();
}

void TransactionManager::finish_abort(Txn& txn) {
  std::vector<Mutation> undo;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = txns_.find(txn.id().value());
    WDOC_CHECK(it != txns_.end(), "abort of finished txn");
    undo = std::move(it->second.undo);
  }
  // Roll back through Table directly: constraint checks already passed for
  // the before-images, and FK cascades must not re-fire during undo.
  std::lock_guard<std::mutex> latch(physical_mu_);
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Table* t = db_.catalog().table(it->table);
    WDOC_CHECK(t != nullptr, "undo into missing table");
    switch (it->kind) {
      case MutationKind::insert: {
        Status s = t->erase(it->row);
        WDOC_CHECK(s.is_ok(), "undo insert failed: " + s.message());
        break;
      }
      case MutationKind::update: {
        Status s = t->update(it->row, it->before);
        WDOC_CHECK(s.is_ok(), "undo update failed: " + s.message());
        break;
      }
      case MutationKind::erase: {
        Status s = t->restore(it->row, it->before);
        WDOC_CHECK(s.is_ok(), "undo erase failed: " + s.message());
        break;
      }
    }
  }
  LogRecord rec;
  rec.kind = LogKind::abort;
  rec.txn = txn.id().value();
  (void)db_.log(rec);
  std::lock_guard<std::mutex> g(mu_);
  release_all(txn.id());
  TxnMetrics::get().aborts.inc();
}

// --- Txn --------------------------------------------------------------------

Txn::~Txn() {
  if (active_) abort();
}

Status Txn::update_column(const std::string& table, RowId id, std::string_view column,
                          Value v) {
  WDOC_CHECK(active_, "update_column on finished txn");
  WDOC_TRY(mgr_->lock_table(id_, table, TxnLockMode::IX));
  WDOC_TRY(mgr_->lock_row(id_, table, id, TxnLockMode::X));
  TransactionManager::UndoSink sink(mgr_, id_);
  std::lock_guard<std::mutex> latch(mgr_->physical_mu_);
  return mgr_->db_.catalog().update_column(table, id, column, std::move(v), &sink);
}

Status Txn::commit() {
  WDOC_CHECK(active_, "double commit");
  active_ = false;
  // Joins the ambient request trace (no-op outside one), so a gateway
  // request that commits shows the commit inside its span tree.
  obs::SpanScope span("txn.commit");
  return mgr_->finish_commit(*this);
}

void Txn::abort() {
  if (!active_) return;
  active_ = false;
  mgr_->finish_abort(*this);
}

}  // namespace wdoc::storage
