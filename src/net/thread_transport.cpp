#include "net/thread_transport.hpp"

namespace wdoc::net {

ThreadTransport::ThreadTransport() : start_(std::chrono::steady_clock::now()) {}

ThreadTransport::~ThreadTransport() { shutdown(); }

StationId ThreadTransport::add_station(MessageHandler handler) {
  std::lock_guard<std::mutex> g(mu_);
  StationId id = ids_.next();
  auto box = std::make_unique<Mailbox>();
  box->handler = std::move(handler);
  Mailbox* raw = box.get();
  box->worker = std::thread([this, raw] { worker_loop(raw); });
  stations_.emplace(id, std::move(box));
  return id;
}

void ThreadTransport::set_handler(StationId station, MessageHandler handler) {
  std::unique_lock<std::mutex> g(mu_);
  auto it = stations_.find(station);
  WDOC_CHECK(it != stations_.end(), "set_handler on unknown station");
  Mailbox* box = it->second.get();
  g.unlock();
  std::lock_guard<std::mutex> bg(box->mu);
  box->handler = std::move(handler);
}

Status ThreadTransport::send(Message msg) {
  Mailbox* box = nullptr;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = stations_.find(msg.to);
    if (it == stations_.end()) return {Errc::not_found, "unknown receiver"};
    box = it->second.get();
  }
  msg.seq = ++seq_;
  traffic_.messages_sent.inc();
  traffic_.bytes_sent.inc(msg.charged_size());
  {
    std::lock_guard<std::mutex> bg(box->mu);
    box->queue.push_back(Queued{std::move(msg), now(), nullptr});
  }
  box->cv.notify_one();
  return Status::ok();
}

SimTime ThreadTransport::now() const {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
  return SimTime::micros(us);
}

Fabric::TimerHandle ThreadTransport::schedule_on(StationId station, SimTime delta,
                                                 std::function<void()> fn) {
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard<std::mutex> g(timer_mu_);
    if (!timer_thread_.joinable()) {
      timer_thread_ = std::thread([this] { timer_loop(); });
    }
    timers_.push(Timer{std::chrono::steady_clock::now() +
                           std::chrono::microseconds(delta.as_micros()),
                       station, std::move(fn), cancel, ++timer_seq_});
  }
  timer_cv_.notify_one();
  return cancel;
}

bool ThreadTransport::is_online(StationId station) const {
  std::lock_guard<std::mutex> g(mu_);
  return stations_.contains(station);
}

void ThreadTransport::timer_loop() {
  std::unique_lock<std::mutex> g(timer_mu_);
  while (running_.load()) {
    if (timers_.empty()) {
      timer_cv_.wait(g, [&] { return !running_.load() || !timers_.empty(); });
      continue;
    }
    auto due = timers_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      timer_cv_.wait_until(g, due);  // re-check: earlier timer or shutdown
      continue;
    }
    Timer t = timers_.top();
    timers_.pop();
    g.unlock();
    if (!t.cancel->load()) {
      // Route through the station's mailbox so the callback runs on its
      // worker thread; the cancel flag is re-checked at execution time.
      Mailbox* box = nullptr;
      {
        std::lock_guard<std::mutex> sg(mu_);
        auto it = stations_.find(t.station);
        if (it != stations_.end()) box = it->second.get();
      }
      if (box != nullptr) {
        Queued item;
        item.enqueued_at = now();
        item.task = [fn = std::move(t.fn), cancel = t.cancel] {
          if (!cancel->load()) fn();
        };
        {
          std::lock_guard<std::mutex> bg(box->mu);
          box->queue.push_back(std::move(item));
        }
        box->cv.notify_one();
      }
    }
    g.lock();
  }
}

void ThreadTransport::worker_loop(Mailbox* box) {
  for (;;) {
    Queued item;
    MessageHandler handler;
    {
      std::unique_lock<std::mutex> g(box->mu);
      box->cv.wait(g, [&] { return !box->queue.empty() || !running_.load(); });
      if (box->queue.empty()) return;  // shutdown with empty queue
      item = std::move(box->queue.front());
      box->queue.pop_front();
      handler = box->handler;
      box->busy = true;
    }
    if (item.task) {
      // Due timer dispatched to this station: same thread as the handler,
      // no delivery accounting.
      item.task();
      {
        std::lock_guard<std::mutex> g(box->mu);
        box->busy = false;
      }
      box->cv.notify_all();
      continue;
    }
    const Message& msg = item.msg;
    traffic_.messages_received.inc();
    traffic_.bytes_received.inc(msg.charged_size());
    traffic_.delivery_latency_us.observe(
        static_cast<double>((now() - item.enqueued_at).as_micros()));
    if (handler) handler(msg);
    delivered_.fetch_add(1);
    {
      std::lock_guard<std::mutex> g(box->mu);
      box->busy = false;
    }
    box->cv.notify_all();
  }
}

bool ThreadTransport::quiesce(std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool idle = true;
    {
      std::lock_guard<std::mutex> g(mu_);
      for (const auto& [_, box] : stations_) {
        std::lock_guard<std::mutex> bg(box->mu);
        if (!box->queue.empty() || box->busy) {
          idle = false;
          break;
        }
      }
    }
    if (idle) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ThreadTransport::shutdown() {
  bool was_running = running_.exchange(false);
  if (!was_running) return;
  // Stop the timer thread first: pending timers are dropped, so no task can
  // land in a mailbox after the workers drain.
  std::thread timer;
  {
    std::lock_guard<std::mutex> g(timer_mu_);
    timer_cv_.notify_all();
    timer.swap(timer_thread_);
  }
  if (timer.joinable()) timer.join();
  std::lock_guard<std::mutex> g(mu_);
  for (auto& [_, box] : stations_) {
    // Notify under the mailbox lock: a worker that has checked its wait
    // predicate but not yet blocked would otherwise miss the wakeup, and
    // the join below would wait forever.
    std::lock_guard<std::mutex> bg(box->mu);
    box->cv.notify_all();
  }
  for (auto& [_, box] : stations_) {
    if (box->worker.joinable()) box->worker.join();
  }
}

}  // namespace wdoc::net
