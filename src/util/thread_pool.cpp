#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace statsizer::util {

namespace {
thread_local bool tls_in_pool_worker = false;
}  // namespace

std::size_t ThreadPool::default_thread_count() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::shared() {
  // parallel_for's caller drains chunks too, so one worker fewer than the
  // hardware's threads already reaches full concurrency; a spare worker
  // would only hold its own stack, arena and per-thread scratch.
  static ThreadPool pool(std::max<std::size_t>(1, default_thread_count() - 1));
  return pool;
}

bool ThreadPool::in_worker() { return tls_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) thread_count = default_thread_count();
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  tls_in_pool_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    try {
      task();
    } catch (...) {
      // Swallowed per the submit() contract; an escaped exception here would
      // std::terminate and a missed --active_ would wedge wait_idle.
    }
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) all_idle_.notify_all();
  }
}

}  // namespace statsizer::util
