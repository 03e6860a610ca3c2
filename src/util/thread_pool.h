// Fixed-size thread pool (the S8 campaign runner, gather_fuzz and the bench
// harness).
//
// The pool owns `jobs` worker threads for its whole lifetime.  Two entry
// points:
//
//   * submit(task)       -- queue one task; the returned future reports
//                           completion and propagates any exception thrown
//                           by the task.
//   * parallel_for(n,fn) -- run fn(0), ..., fn(n-1) across the pool and
//                           block until all are done.  Indices are handed
//                           out through a single atomic ticket counter, so
//                           work distribution involves no locks and -- more
//                           importantly -- no shared mutable state that
//                           could make results depend on scheduling.  The
//                           caller owns result placement by index, which is
//                           how the campaign layer guarantees output that
//                           is byte-identical for every jobs value.
//
// With jobs == 1 the single worker consumes tickets in order, reproducing
// strictly serial execution.
//
// Header-only and dependency-free (layer rank 0) so that src/config can
// shard derived-geometry fills across it without the config layer learning
// about the runner (gather-analyze rule R8).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace gather::util {

class thread_pool {
 public:
  /// Spawns `jobs` workers; 0 means one per hardware thread.
  explicit thread_pool(std::size_t jobs = 0) {
    const std::size_t n = jobs == 0 ? default_jobs() : jobs;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Drains every already-submitted task, then joins the workers.
  ~thread_pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Queue one task.  The future becomes ready when the task finishes and
  /// rethrows from get() anything the task threw.
  std::future<void> submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    auto future = packaged.get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(packaged));
    }
    cv_.notify_one();
    return future;
  }

  /// Run fn(i) for i in [0, count) across the pool; blocks until done.
  /// The first exception thrown by any fn(i) aborts the remaining indices
  /// and is rethrown here.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;

    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};
    std::exception_ptr first_error;  // gather-lint: guarded_by(error_mutex)
    std::mutex error_mutex;

    auto drain = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count || abort.load(std::memory_order_relaxed)) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
        }
      }
    };

    const std::size_t lanes = std::min(size(), count);
    std::vector<std::future<void>> done;
    done.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) done.push_back(submit(drain));
    for (auto& fut : done) fut.get();
    // The futures are joined, but take the (uncontended) lock anyway: the
    // read is then unconditionally ordered after every writer's release.
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Hardware concurrency with a floor of 1.
  [[nodiscard]] static std::size_t default_jobs() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::packaged_task<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and nothing left to drain
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();  // exceptions are captured into the task's future
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;  // gather-lint: guarded_by(mutex_)
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // gather-lint: guarded_by(mutex_)
};

}  // namespace gather::util
