#include "serve/job.h"

#include <algorithm>
#include <utility>

namespace statsizer::serve {

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

bool Job::done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

const Status& Job::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return done_; });
  return status_;
}

Status Job::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

void Job::cancel() { cancel_.cancel(); }

int Job::attempts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempts_;
}

std::chrono::milliseconds Job::retry_after() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retry_after_;
}

std::chrono::microseconds Job::queue_time() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_us_;
}

std::chrono::microseconds Job::run_time() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return run_us_;
}

void Job::finish(Status status) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    status_ = std::move(status);
    done_ = true;
  }
  done_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------------------

JobManager::JobManager(JobManagerOptions options)
    : options_(options), pool_(options.threads) {}

JobManager::~JobManager() {
  // Cancel everything still pending; the queued run_one tokens drain each
  // pending job to a terminal kCancelled. The pool destructor then joins
  // after the queue is empty.
  std::vector<JobRef> to_cancel;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // The priority queue has no iteration API; snapshotting via the
    // underlying container would need friend access. Cancelling via the
    // tokens is enough: mark by draining into a scratch copy.
    auto copy = pending_;
    while (!copy.empty()) {
      to_cancel.push_back(copy.top());
      copy.pop();
    }
  }
  for (const JobRef& job : to_cancel) job->cancel();
  wait_all();
}

JobRef JobManager::submit(std::function<void()> body, JobOptions options) {
  auto job = JobRef(new Job());
  job->priority_ = options.priority;
  job->cost_bytes_ = options.cost_bytes;
  job->submitted_at_ = std::chrono::steady_clock::now();
  if (options.deadline.count() > 0) {
    job->deadline_ = job->submitted_at_ + options.deadline;
  }
  job->body_ = std::move(body);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job->id_ = next_id_++;
    job->fault_scope_ = options.fault_scope.value_or(job->id_);

    const JobLimits& limits = options_.limits;
    const bool queue_full = pending_.size() >= limits.max_queue_depth;
    const bool cost_full =
        limits.max_inflight_bytes != 0 && stats_.inflight_bytes > 0 &&
        stats_.inflight_bytes + job->cost_bytes_ > limits.max_inflight_bytes;
    if (queue_full || cost_full) {
      ++stats_.shed;
      job->retry_after_ = limits.retry_after;
      job->body_ = nullptr;
      // finish() outside the manager lock would also work, but nothing can
      // be waiting on a job that was never returned; keep it simple.
      job->finish(Status::resource_exhausted(
          std::string("admission rejected: ") +
          (queue_full ? "queue depth " + std::to_string(pending_.size()) + " at limit"
                      : "in-flight cost at limit") +
          "; retry after " + std::to_string(limits.retry_after.count()) + "ms"));
      return job;
    }

    ++stats_.submitted;
    stats_.inflight_bytes += job->cost_bytes_;
    pending_.push(job);
    stats_.queue_depth = pending_.size();
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, pending_.size());
  }
  // One pool token per admitted job; the token runs whatever is the
  // highest-priority pending job at execution time.
  pool_.submit([this] { run_one(); });
  return job;
}

void JobManager::run_one() {
  JobRef job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return;  // stolen by a sibling token (cannot happen, but safe)
    job = pending_.top();
    pending_.pop();
    stats_.queue_depth = pending_.size();
    ++stats_.running;
  }
  job->started_at_ = std::chrono::steady_clock::now();
  job->queue_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
      job->started_at_ - job->submitted_at_);

  // Pre-run triage: cancellation and queue-expired deadlines resolve without
  // touching the body.
  if (job->cancel_.cancelled()) {
    retire(job, Status::cancelled("cancelled while queued"));
    return;
  }
  if (job->deadline_.has_value() && job->started_at_ >= *job->deadline_) {
    retire(job, Status::deadline_exceeded("deadline expired while queued"));
    return;
  }
  execute(job);
}

void JobManager::execute(const JobRef& job) {
  {
    const std::lock_guard<std::mutex> lock(job->mutex_);
    job->attempts_ = 1;
  }
  util::ExecContext exec;
  exec.cancel = job->cancel_;
  exec.deadline = job->deadline_;
  exec.faults = options_.faults;
  exec.fault_scope = job->fault_scope_;
  Status status;
  try {
    const util::ScopedExecContext scope(exec);
    util::checkpoint("serve/job/start");
    job->body_();
  } catch (const StatusError& e) {
    status = e.status();
  } catch (const std::exception& e) {
    status = Status::internal(std::string("job failed: ") + e.what());
  } catch (...) {
    status = Status::internal("job failed: unknown exception");
  }
  retire(job, std::move(status));
}

void JobManager::retire(const JobRef& job, Status status) {
  job->run_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - job->started_at_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stats_.running > 0) --stats_.running;
    stats_.inflight_bytes -= std::min(stats_.inflight_bytes, job->cost_bytes_);
    if (status.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
      if (status.code() == StatusCode::kCancelled) ++stats_.cancelled;
      if (status.code() == StatusCode::kDeadlineExceeded) ++stats_.deadline_exceeded;
    }
  }
  job->finish(std::move(status));
  idle_cv_.notify_all();
}

void JobManager::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_.empty() && stats_.running == 0; });
}

JobStats JobManager::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace statsizer::serve
