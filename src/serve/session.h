// serve::Session — one long-lived timing-as-a-service tenant.
//
// A Session caches the expensive per-design state (parsed/generated circuit,
// technology mapping, levelized TimingContext, and a committed
// timing::Analyzer base) across requests, so a what-if or yield query costs
// its engine evaluation instead of a full reload. Concurrent requests from
// many clients are served against that shared base:
//
//   - Read requests (what_if, yield, info) hold a shared lock. A what-if
//     opens a speculation against the committed base, scores it privately
//     (see timing/analyzer.h), and rolls it back — any number may be in
//     flight at once, each result is bitwise-identical to the same query
//     against an idle single-tenant Flow, and an aborted one (deadline,
//     cancel, fault) leaves the base untouched.
//   - Mutations (load, SDC changes, size) hold the exclusive lock. Every
//     mutation bumps the session epoch; responses carry the epoch they were
//     computed against, so clients can detect that a what-if raced a
//     commit.
//
// Loads and SDC changes are transactional: the new state is built in a
// scratch Flow and swapped in only after the DRC preflight admission gate
// passes, so a rejected or aborted load leaves the previous design
// serving. size() mutates in place and is NOT transactional under
// cancellation — resizes committed before the abort persist — but the
// session always recovers to a consistent, freshly analyzed state (the
// abort handler suspends the exec context, re-runs update() + analyze(),
// and bumps the epoch).
//
// Deadlines/cancellation: Session methods run under the caller's installed
// ExecContext (serve::JobManager installs one per job). Lock acquisition is
// not deadline-aware; the first checkpoint after acquisition observes an
// expired deadline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/flow.h"
#include "timing/analyzer.h"
#include "util/status.h"

namespace statsizer::serve {

struct SessionOptions {
  core::FlowOptions flow;
  /// What-if engine (timing::make_analyzer name).
  std::string engine = "fullssta";
};

/// One requested resize, by gate name (resolved against the loaded netlist).
struct ResizeRequest {
  std::string gate;
  std::uint16_t size = 0;
};

struct WhatIfReport {
  std::uint64_t epoch = 0;
  /// Speculative moments with the resizes applied.
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  /// Committed-base moments the speculation was scored against.
  double base_mean_ps = 0.0;
  double base_sigma_ps = 0.0;
};

struct SizeResult {
  std::uint64_t epoch = 0;  ///< epoch of the new (post-size) state
  core::OptimizationRecord record;
};

struct YieldResult {
  std::uint64_t epoch = 0;
  std::string engine;
  double yield = 0.0;
  double std_error = 0.0;
  std::uint64_t draws = 0;
  double clock_period_ps = 0.0;
};

struct SessionInfo {
  std::uint64_t epoch = 0;
  bool loaded = false;
  std::string circuit;
  std::uint64_t gates = 0;
  /// Committed-base moments (cached; no recompute).
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  double area_um2 = 0.0;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Loads a Table-1 workload (optionally running the deterministic + polish
  /// baseline so the design sits at its mean-delay optimum) and makes it the
  /// served design. DRC preflight is the admission gate: error-severity
  /// findings reject the load with kInvalidArgument and the previous design
  /// keeps serving.
  [[nodiscard]] Status load_workload(std::string_view name, bool run_baseline = false);
  /// Same, from a .bench or structural-Verilog file (core::Flow::load_file).
  [[nodiscard]] Status load_file(const std::string& path, bool run_baseline = false);

  /// Applies SDC text to the served design (exclusive; epoch bump). The DRC
  /// sweep re-runs as the admission gate; like loads, a rejected SDC leaves
  /// the previous constraints serving.
  [[nodiscard]] Status apply_sdc_text(std::string_view text);

  /// Scores the resizes against the committed base without mutating it.
  [[nodiscard]] StatusOr<WhatIfReport> what_if(const std::vector<ResizeRequest>& resizes);

  /// StatisticalGreedy at @p lambda on the served design (exclusive).
  [[nodiscard]] StatusOr<SizeResult> size(double lambda);

  /// Timing yield of the served design. @p clock_period_ps 0 = resolve from
  /// the installed SDC / options; @p engine "isle" or "mc".
  [[nodiscard]] StatusOr<YieldResult> yield(double clock_period_ps = 0.0,
                                            std::string_view engine = "isle");

  /// Cheap snapshot of the served design (cached base moments).
  [[nodiscard]] SessionInfo info() const;

  /// Rough per-request working-set estimate for admission control:
  /// proportional to the design size (0 when nothing is loaded).
  [[nodiscard]] std::uint64_t approx_cost_bytes() const;

 private:
  /// The shared load transaction: @p load fills a scratch Flow, which is
  /// installed only if the load, the DRC gate and the analysis all succeed.
  template <typename Load>
  [[nodiscard]] Status load_with(Load load, bool run_baseline);
  /// Builds the analyzer base for flow's current state. Caller holds the
  /// exclusive lock.
  void rebase(core::Flow& flow);

  SessionOptions options_;
  mutable std::shared_mutex mutex_;
  std::unique_ptr<core::Flow> flow_;              // null until first load
  std::unique_ptr<timing::Analyzer> analyzer_;    // committed base for flow_
  std::uint64_t epoch_ = 0;                       // guarded by mutex_
};

using SessionRef = std::shared_ptr<Session>;

}  // namespace statsizer::serve
