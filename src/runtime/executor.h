#pragma once
/// \file executor.h
/// Fixed-size thread pool with a FIFO job queue and future-based results
/// — the execution substrate of the batch-estimation runtime (DESIGN.md
/// section 7).
///
/// Design rules that keep pooled runs equivalent to serial runs:
///
///  - The pool never owns randomness or provenance: every job derives its
///    own Rng stream (Rng::derive_stream) and opens its own ErrorContext
///    scope, so results are a pure function of (inputs, seed) and
///    independent of worker count and scheduling order.
///  - submit() returns a std::future; an exception thrown by the job is
///    captured into the future and rethrows in the consumer, never in the
///    worker (workers cannot die).
///  - Header-only so low-level layers (the synthesis drivers' multi-start
///    anneal) can use the pool without linking against ape_runtime.
///
/// The destructor drains the queue: jobs already submitted run to
/// completion before the workers join.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ape::runtime {

/// A requested worker count as a pool size: 0 (or less) picks the
/// hardware concurrency, at least 1.
inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

class Executor {
public:
  /// Create a pool of \p threads workers; 0 picks the hardware
  /// concurrency (at least 1).
  explicit Executor(int threads = 0) {
    threads = resolve_threads(threads);
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Executor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueue \p fn; the returned future yields its result (or rethrows
  /// its exception).
  template <class F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();  // packaged_task: exceptions land in the future
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ape::runtime
