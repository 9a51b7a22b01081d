#include "util/thread_pool.h"

#include <algorithm>
#include <deque>
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
    queue_.push_back(Task{std::move(task), nullptr});
  }
  task_ready_.notify_one();
}

void ThreadPool::fork_join(std::size_t helpers, void (*work)(void*), void* arg) {
  if (helpers == 0) {
    work(arg);
    return;
  }
  Region region{work, arg, {helpers}};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(Task{{}, &region});
  }
  if (helpers == 1) {
    task_ready_.notify_one();
  } else {
    task_ready_.notify_all();
  }
  work(arg);
  std::unique_lock<std::mutex> lock(mutex_);
  // The caller's work has claimed everything: a helper still queued would
  // find nothing, so it leaves the queue instead of being waited for.
  const std::size_t retracted =
      std::erase_if(queue_, [&](const Task& t) { return t.region == &region; });
  if (retracted > 0) {
    region.unfinished.fetch_sub(retracted, std::memory_order_relaxed);
    if (queue_.empty() && active_ == 0) all_idle_.notify_all();
  }
  if (region.unfinished.load(std::memory_order_acquire) == 0) return;
  // The started helpers are past their last claim or finishing it: spin
  // briefly before sleeping on their wake-up.
  lock.unlock();
  constexpr unsigned kSpins = 4096;
  for (unsigned spin = 0; spin < kSpins; ++spin) {
    if (region.unfinished.load(std::memory_order_acquire) == 0) return;
    if (spin >= kSpins / 4) std::this_thread::yield();
  }
  lock.lock();
  region_done_.wait(lock, [&] { return region.unfinished.load(std::memory_order_acquire) == 0; });
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
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    try {
      if (task.region != nullptr) {
        task.region->work(task.region->arg);
      } else {
        task.fn();
      }
    } catch (...) {
      // Swallowed per the submit() contract; an escaped exception here would
      // std::terminate and a missed --active_ would wedge wait_idle.
    }
    lock.lock();
    --active_;
    // The region's caller may return the moment it reads zero, so this is
    // the helper's last access to it; region_done_ belongs to the pool.
    if (task.region != nullptr &&
        task.region->unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      region_done_.notify_all();
    }
    if (queue_.empty() && active_ == 0) all_idle_.notify_all();
  }
}

}  // namespace statsizer::util
