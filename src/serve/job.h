// Fault-isolated async job system: a priority queue + futures layer over
// util::ThreadPool with per-job error isolation, cooperative deadlines and
// cancellation, and bounded-queue admission control with graceful shedding.
//
// Layering: this header depends only on util/ — core::Flow's batch API and
// the serving layer (serve/session.h, serve/server.h, which sit *above*
// core) both build on it.
//
// Contract highlights:
//   - submit() never throws and never blocks on the queue: when admission
//     control rejects (queue depth or in-flight cost over limit) the
//     returned job is already terminal with kResourceExhausted and carries a
//     retry_after hint.
//   - Any exception escaping a job body is captured as that job's Status
//     (StatusError keeps its structured code; anything else becomes
//     kInternal). One poisoned job can never take down the manager or
//     perturb sibling jobs.
//   - Deadlines and cancellation are cooperative: the runner installs a
//     util::ExecContext for the body's duration, so every
//     util::checkpoint() inside the timing/SSTA kernels becomes a
//     cancellation point. Jobs whose deadline expires while still queued
//     complete kDeadlineExceeded without running.
//   - Every admitted body runs at most once: a failure, whatever its code,
//     is the job's terminal status.
//   - Priorities order the pending queue (higher first, FIFO within a
//     priority); they never preempt running jobs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "util/exec.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace statsizer::serve {

/// Admission-control limits. A submit that would exceed either bound is
/// shed immediately with kResourceExhausted.
struct JobLimits {
  /// Maximum number of pending (queued, not yet running) jobs.
  std::size_t max_queue_depth = 1024;
  /// Maximum summed JobOptions::cost_bytes of queued + running jobs;
  /// 0 = unlimited. A job whose own cost exceeds the bound is still admitted
  /// when the manager is otherwise empty (it could never run otherwise).
  std::size_t max_inflight_bytes = 0;
  /// Retry hint attached to shed jobs (Job::retry_after()).
  std::chrono::milliseconds retry_after{10};
};

struct JobManagerOptions {
  /// Worker threads (the manager owns its pool). 0 = hardware concurrency.
  std::size_t threads = 1;
  JobLimits limits;
  /// Deterministic fault plan installed for every job (not owned; must
  /// outlive the manager). nullptr = no injection.
  const util::FaultPlan* faults = nullptr;
};

struct JobOptions {
  /// Higher runs earlier; FIFO within equal priorities.
  int priority = 0;
  /// Cooperative deadline measured from submission; zero = none.
  std::chrono::milliseconds deadline{0};
  /// Admission-control cost estimate (e.g. bytes of working state the job
  /// will hold). 0 = free.
  std::size_t cost_bytes = 0;
  /// Fault-injection scope for this job; defaults to the job id (the
  /// submission sequence number), so a plan can poison job N specifically.
  std::optional<std::uint64_t> fault_scope;
};

/// Counters snapshot (JobManager::stats()). Monotonic except the gauges.
struct JobStats {
  std::uint64_t submitted = 0;   ///< admitted jobs (excludes shed)
  std::uint64_t completed = 0;   ///< terminal with ok status
  std::uint64_t failed = 0;      ///< terminal with non-ok status (any code)
  std::uint64_t cancelled = 0;   ///< subset of failed: kCancelled
  std::uint64_t deadline_exceeded = 0;  ///< subset of failed: kDeadlineExceeded
  std::uint64_t shed = 0;        ///< rejected by admission control
  /// Always 0: bodies run at most once. Kept for readers of the name
  /// (the server's status op reports it).
  std::uint64_t retried = 0;
  std::size_t queue_depth = 0;   ///< gauge: pending jobs
  std::size_t running = 0;       ///< gauge: executing jobs
  std::size_t inflight_bytes = 0;  ///< gauge: admitted cost
  std::size_t peak_queue_depth = 0;
};

class JobManager;

/// Shared handle to one submitted job. Thread-safe.
class Job {
 public:
  /// Job id: the submission sequence number (also the default fault scope).
  [[nodiscard]] std::uint64_t id() const { return id_; }

  [[nodiscard]] bool done() const;
  /// Blocks until terminal; returns the job's status.
  const Status& wait() const;
  /// Current status; meaningful once done() (ok() until then).
  [[nodiscard]] Status status() const;

  /// Requests cooperative cancellation. Queued jobs complete kCancelled
  /// without running; running jobs stop at their next checkpoint.
  void cancel();

  /// Body attempts: 1 once run, 0 for jobs that never ran.
  [[nodiscard]] int attempts() const;
  /// For shed jobs: the admission controller's suggested backoff.
  [[nodiscard]] std::chrono::milliseconds retry_after() const;
  /// Queue wait and body execution time (terminal jobs).
  [[nodiscard]] std::chrono::microseconds queue_time() const;
  [[nodiscard]] std::chrono::microseconds run_time() const;

 private:
  friend class JobManager;
  Job() = default;

  void finish(Status status);

  mutable std::mutex mutex_;
  mutable std::condition_variable done_cv_;
  Status status_;
  bool done_ = false;

  std::uint64_t id_ = 0;
  int priority_ = 0;
  int attempts_ = 0;
  std::size_t cost_bytes_ = 0;
  std::chrono::milliseconds retry_after_{0};
  std::uint64_t fault_scope_ = 0;
  util::CancelToken cancel_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::chrono::steady_clock::time_point submitted_at_;
  std::chrono::steady_clock::time_point started_at_;
  std::chrono::microseconds queue_us_{0};
  std::chrono::microseconds run_us_{0};
  std::function<void()> body_;
};

using JobRef = std::shared_ptr<Job>;

/// The manager. Owns its worker pool; destruction cancels still-pending
/// jobs (they complete kCancelled) and waits for running ones.
class JobManager {
 public:
  explicit JobManager(JobManagerOptions options = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Submits @p body. Never throws, never blocks: the result is either an
  /// admitted pending job or an already-terminal shed job
  /// (kResourceExhausted, retry_after() set).
  JobRef submit(std::function<void()> body, JobOptions options = {});

  /// Blocks until every admitted job is terminal.
  void wait_all();

  [[nodiscard]] JobStats stats() const;
  [[nodiscard]] std::size_t thread_count() const { return pool_.thread_count(); }

 private:
  void run_one();
  void execute(const JobRef& job);
  /// Terminal bookkeeping shared by every completion path.
  void retire(const JobRef& job, Status status);

  JobManagerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  struct QueueOrder {
    bool operator()(const JobRef& a, const JobRef& b) const {
      if (a->priority_ != b->priority_) return a->priority_ < b->priority_;
      return a->id_ > b->id_;  // FIFO within a priority
    }
  };
  std::priority_queue<JobRef, std::vector<JobRef>, QueueOrder> pending_;
  JobStats stats_;
  std::uint64_t next_id_ = 0;

  util::ThreadPool pool_;  // last member: workers must die before the queue
};

}  // namespace statsizer::serve
