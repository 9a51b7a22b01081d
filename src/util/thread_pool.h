// Work-queue thread pool and a deterministic parallel_for built on it.
//
// parallel_for decomposes [0, total) into fixed-size chunks whose boundaries
// depend only on (total, chunk_size) — never on the thread count — so a
// caller that accumulates per-chunk partial results and merges them in chunk
// order (or writes each index's result to its own slot) gets
// bitwise-identical output for any number of threads. This is the contract
// the Monte Carlo / ISLE sample loop (ssta/isle.cpp) and StatisticalGreedy's
// candidate scoring (opt/sizer_statistical.cpp) are built on; the rules are
// written up in docs/ARCHITECTURE.md, "Concurrency & determinism contracts".
//
// Exceptions thrown by a chunk body are captured and rethrown on the calling
// thread after all workers have drained (first one wins). dataflow_for runs
// a DAG's nodes on the same pool, each once its predecessors are done.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace statsizer::util {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// @p thread_count 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe: any thread, including pool workers, may
  /// submit concurrently. Tasks are responsible for their own error handling:
  /// an exception escaping a task is swallowed by the worker (parallel_for
  /// layers its own capture-and-rethrow on top of this).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle. Thread-safe,
  /// but must not be called from a pool worker (it would wait for itself).
  void wait_idle();

  /// Thread-safe (immutable after construction).
  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// hardware_concurrency clamped to >= 1.
  [[nodiscard]] static std::size_t default_thread_count();

  /// Lazily-created process-wide pool that parallel_for dispatches onto —
  /// repeated parallel regions reuse threads instead of paying spawn/join
  /// per call. It has default_thread_count() - 1 workers (at least 1): the
  /// calling thread drains chunks too, so that reaches hardware concurrency.
  /// Thread-safe (C++ static-local initialization).
  [[nodiscard]] static ThreadPool& shared();

  /// True when the calling thread is a worker of any ThreadPool (see
  /// region_threads). Thread-safe.
  [[nodiscard]] static bool in_worker();

  /// The fork-join behind parallel_for: queues @p helpers tasks that each
  /// call work(arg) on a worker, calls work(arg) on the calling thread, then
  /// retracts the helpers no worker has started and waits for the started
  /// ones to return. So work must leave nothing for a helper once the
  /// caller's call returns (parallel_for's chunk cursor is exhausted by
  /// then), and a region that the caller finishes alone never waits for a
  /// wake-up. Nothing is allocated: the tasks point at the caller's frame.
  /// work must not throw. Must not be called from a pool worker.
  void fork_join(std::size_t helpers, void (*work)(void*), void* arg);

 private:
  /// One fork_join call, on the caller's stack. unfinished counts its
  /// queued and running helpers; a helper's decrement, made under mutex_,
  /// is its last access to the region.
  struct Region {
    void (*work)(void*);
    void* arg;
    std::atomic<std::size_t> unfinished;
  };
  /// A queued task: a submitted function, or a helper of @p region.
  struct Task {
    std::function<void()> fn;
    Region* region = nullptr;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::condition_variable region_done_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Workers for a parallel region entered on the calling thread, and the one
/// place that decides it: 1 inside a pool worker (nested regions run inline,
/// so no worker waits on queued tasks), else @p threads (0 = default count).
[[nodiscard]] inline std::size_t region_threads(std::size_t threads) {
  if (ThreadPool::in_worker()) return 1;
  return threads == 0 ? ThreadPool::default_thread_count() : threads;
}

namespace detail {

/// Chunk geometry shared by the serial and parallel paths: boundaries are a
/// pure function of (total, chunk_size).
[[nodiscard]] inline std::size_t chunk_count(std::size_t total, std::size_t chunk_size) {
  return chunk_size == 0 ? 0 : (total + chunk_size - 1) / chunk_size;
}

}  // namespace detail

/// Runs body(begin, end, chunk_index) over [0, total) split into fixed
/// chunk_size pieces. chunk_index runs 0..chunk_count-1 in geometric order;
/// with threads <= 1, a single chunk, or when called from inside another
/// parallel region, everything executes inline on the calling thread.
/// Otherwise the caller plus up to threads - 1 helper tasks on the shared
/// pool pull chunks from an atomic cursor (actual concurrency is also capped
/// by the shared pool's size plus the caller; ThreadPool::fork_join, so a
/// helper no worker has started when the caller runs out of chunks is
/// retracted, not waited for). threads == 0 means
/// ThreadPool::default_thread_count(). Returns only after every started
/// helper has finished, so the body may capture caller-stack state by
/// reference.
///
/// Thread-safety contract for the body: it may run on the caller's thread or
/// any pool worker, concurrently with other chunks. Shared inputs must be
/// read-only for the duration of the call; mutable state must be per-chunk
/// (created inside the body) or written to slots no other chunk touches.
/// Determinism follows from the fixed chunk geometry: results assembled in
/// chunk order (or per-slot) are identical for any `threads` value.
template <typename Body>
void parallel_for(std::size_t total, std::size_t chunk_size, std::size_t threads,
                  Body&& body) {
  if (total == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  threads = region_threads(threads);
  const std::size_t chunks = detail::chunk_count(total, chunk_size);

  if (threads <= 1 || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(total, begin + chunk_size);
      body(begin, end, c);
    }
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the first chunk to throw

  auto drain = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(total, begin + chunk_size);
      try {
        body(begin, end, c);
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) error = std::current_exception();
      }
    }
  };

  using Drain = decltype(drain);
  const std::size_t helpers = std::min(threads, chunks) - 1;  // caller drains too
  ThreadPool::shared().fork_join(
      helpers, [](void* d) { (*static_cast<Drain*>(d))(); }, &drain);
  if (error) std::rethrow_exception(error);
}

/// Runs body(i) once for every node i in [0, done.size()), numbered in a
/// topological order: each_pred(i, visit) calls visit(p) for every node
/// p < i whose results body(i) reads. With threads <= 1 (or in a pool
/// worker) this is the serial loop; else the caller and up to threads - 1
/// pool helpers claim nodes in index order from one atomic cursor, and a
/// worker acquire-waits on each predecessor's flag in @p done (a bounded
/// spin, then yields) before running a node and release-stores its flag
/// after. Every claimed node is held by a running worker, so no wait
/// outlives the walk, and a body reads exactly the serial loop's inputs.
/// @p done is the caller's (a flag per node, any values): workers allocate
/// nothing. A body that throws flags its node failed and its dependents are
/// skipped; the lowest failed node's exception, the serial loop's, is
/// rethrown on the caller after the join.
template <typename Preds, typename Body>
void dataflow_for(std::span<std::atomic<std::uint8_t>> done, std::size_t threads,
                  Preds&& each_pred, Body&& body) {
  const std::size_t total = done.size();
  threads = std::min(region_threads(threads), total);
  if (threads <= 1) {
    for (std::size_t i = 0; i < total; ++i) body(i);
    return;
  }
  enum : std::uint8_t { kPending, kDone, kFailed };
  constexpr unsigned kSpins = 1024;  // about one node's work before yielding
  for (std::atomic<std::uint8_t>& flag : done) flag.store(kPending, std::memory_order_relaxed);
  std::atomic<std::size_t> cursor{0};
  std::mutex mutex;
  std::size_t first_failed = total;
  std::exception_ptr error;
  parallel_for(threads, 1, threads, [&](std::size_t, std::size_t, std::size_t) {
    for (std::size_t i; (i = cursor.fetch_add(1, std::memory_order_relaxed)) < total;) {
      bool ready = true;
      each_pred(i, [&](std::size_t p) {
        std::uint8_t state = kPending;
        for (unsigned spin = 0; (state = done[p].load(std::memory_order_acquire)) == kPending;
             ++spin) {
          if (spin >= kSpins) std::this_thread::yield();
        }
        ready = ready && state == kDone;
      });
      std::uint8_t state = kFailed;
      if (ready) {
        try {
          body(i);
          state = kDone;
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mutex);
          if (i < first_failed) {
            first_failed = i;
            error = std::current_exception();
          }
        }
      }
      done[i].store(state, std::memory_order_release);
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace statsizer::util
