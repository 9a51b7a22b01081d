// Cooperative execution control: cancellation tokens, deadlines, and the
// checkpoint() calls the long-running kernels are instrumented with.
//
// A job runner (serve::JobManager) builds an ExecContext — cancel token,
// absolute deadline, fault plan + scope — and installs it on the executing
// thread with ScopedExecContext. Library kernels call
// util::checkpoint("site/name") at coarse, value-neutral boundaries
// (wavefront levels, sample-loop batches, sizer iterations); the call
// is a thread-local pointer read when no context is installed, and otherwise
// applies fault-injection rules, then throws StatusError(kCancelled /
// kDeadlineExceeded) when the token or deadline says to stop.
//
// Checkpoints never change computed values — they only abort (by throwing)
// or stall (injected delay) — so instrumented kernels keep their bitwise
// determinism contracts untouched.
//
// Contexts do not propagate into ThreadPool workers: a checkpoint reached on
// a pool worker during a nested parallel_for is a no-op. Jobs that want
// cooperative control of their kernels run them with inner threads = 1 (the
// serving layer and run_monte_carlo_batch already do, to avoid
// oversubscription), in which case every checkpoint executes inline on the
// job's own thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/fault.h"
#include "util/status.h"

namespace statsizer::util {

/// Shared-handle cancellation flag: the controller keeps one copy, the
/// ExecContext another. Copyable; all copies observe the same flag.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  void cancel() { state_->cancelled.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
  };
  std::shared_ptr<State> state_;
};

/// Everything checkpoint() consults. Owned by the job runner for the
/// duration of one job attempt; installed thread-locally via
/// ScopedExecContext.
struct ExecContext {
  CancelToken cancel;
  /// Absolute cooperative deadline; nullopt = none.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Fault plan (not owned; may be nullptr) and the scope this execution
  /// reports to rule matching (the job system uses the job id).
  const FaultPlan* faults = nullptr;
  std::uint64_t fault_scope = 0;

  /// Per-site visit counts within this context. Only maintained while a
  /// non-empty plan is installed (the no-fault hot path never hashes site
  /// names). Lookup-only: never iterated, so the unordered container is
  /// determinism-safe.
  std::unordered_map<std::string, std::uint64_t> site_hits;

  /// Remaining time before the deadline; nullopt when no deadline is set.
  /// Clamped at zero.
  [[nodiscard]] std::optional<std::chrono::milliseconds> remaining() const;
};

/// RAII installer. Nesting is allowed (the previous context is restored on
/// destruction); installation is per-thread and never visible to pool
/// workers.
class ScopedExecContext {
 public:
  explicit ScopedExecContext(ExecContext& context);
  ~ScopedExecContext();

  ScopedExecContext(const ScopedExecContext&) = delete;
  ScopedExecContext& operator=(const ScopedExecContext&) = delete;

 private:
  ExecContext* previous_;
};

/// RAII suppressor: stashes the installed context (if any) and restores it on
/// destruction, so checkpoints in the covered region are no-ops. Recovery
/// paths use this — after a cancellation or deadline abort mid-mutation, the
/// cleanup re-analysis must run to completion even though the token is still
/// cancelled and the deadline still passed.
class ScopedExecSuspend {
 public:
  ScopedExecSuspend();
  ~ScopedExecSuspend();

  ScopedExecSuspend(const ScopedExecSuspend&) = delete;
  ScopedExecSuspend& operator=(const ScopedExecSuspend&) = delete;

 private:
  ExecContext* previous_;
};

/// The context installed on the calling thread, or nullptr.
[[nodiscard]] ExecContext* current_exec_context();

/// The cooperative control point. No-op without an installed context.
/// Otherwise: applies matching fault rules (delay, then structured throw),
/// then throws StatusError(kCancelled) if the token is cancelled, then
/// StatusError(kDeadlineExceeded) if the deadline has passed. @p site names
/// the instrumentation point (see the registry in docs/ARCHITECTURE.md).
void checkpoint(const char* site);

}  // namespace statsizer::util
