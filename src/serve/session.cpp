#include "serve/session.h"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "util/exec.h"

namespace statsizer::serve {

namespace {

/// Formats the first error-severity DRC finding as the admission-gate
/// rejection message.
Status preflight_rejection(const drc::DrcReport& report) {
  const drc::Diagnostic& d = *report.first_error();
  return Status::invalid_argument("preflight DRC failed [" +
                                  std::string(drc::rule_id(d.rule)) + "] " + d.message);
}

}  // namespace

Session::Session(SessionOptions options) : options_(std::move(options)) {}

Session::~Session() = default;

void Session::rebase(core::Flow& flow) {
  if (analyzer_ == nullptr) analyzer_ = flow.make_analyzer(options_.engine);
  (void)analyzer_->analyze(flow.timing());
}

template <typename Load>
Status Session::load_with(Load load, bool run_baseline) {
  util::checkpoint("serve/session/load");
  // Build the new state in a scratch Flow (no lock held: reads keep serving
  // the previous design). A failure anywhere — parse, DRC gate, abort —
  // discards the scratch and leaves the session untouched.
  auto scratch = std::make_unique<core::Flow>(options_.flow);
  std::unique_ptr<timing::Analyzer> analyzer;
  try {
    analyzer = scratch->make_analyzer(options_.engine);
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(e.what());
  }
  if (Status s = load(*scratch); !s.ok()) return s;
  if (scratch->preflight().has_errors()) return preflight_rejection(scratch->last_drc());
  if (run_baseline) (void)scratch->run_baseline();
  (void)analyzer->analyze(scratch->timing());

  const std::unique_lock<std::shared_mutex> lock(mutex_);
  flow_ = std::move(scratch);
  analyzer_ = std::move(analyzer);
  ++epoch_;
  return Status();
}

Status Session::load_workload(std::string_view name, bool run_baseline) {
  return load_with([name](core::Flow& flow) { return flow.load_table1(name); }, run_baseline);
}

Status Session::load_file(const std::string& path, bool run_baseline) {
  return load_with([&path](core::Flow& flow) { return flow.load_file(path); }, run_baseline);
}

Status Session::apply_sdc_text(std::string_view text) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  util::checkpoint("serve/session/sdc");
  if (flow_ == nullptr) return Status::invalid_argument("apply_sdc: no design loaded");
  // DRC admission gate: the candidate SDC is screened before anything is
  // installed, so a rejection leaves the session as it was. apply_sdc itself
  // installs only after a full parse and port resolution.
  const StatusOr<bench_format::Sdc> sdc = bench_format::read_sdc(text);
  if (!sdc.ok()) return sdc.status();
  const drc::DrcReport report = drc::run_drc(flow_->timing(), flow_->options().drc,
                                             &flow_->provenance(), &*sdc);
  if (report.has_errors()) return preflight_rejection(report);
  if (Status s = flow_->apply_sdc(text); !s.ok()) return s;
  try {
    flow_->timing().update();  // constraints feed arrivals/required times
    rebase(*flow_);
    ++epoch_;
    return Status();
  } catch (const StatusError& e) {
    // Aborted mid-refresh (deadline/cancel/fault): restore a consistent,
    // fully analyzed state with checkpoints suppressed, then report.
    const util::ScopedExecSuspend suspend;
    flow_->timing().update();
    rebase(*flow_);
    ++epoch_;
    return e.status();
  }
}

StatusOr<WhatIfReport> Session::what_if(const std::vector<ResizeRequest>& resizes) {
  if (resizes.empty()) return Status::invalid_argument("what_if: no resizes given");

  // Speculations score privately against the shared base (see the analyzer
  // contract), so any number run at once under the shared lock.
  const std::shared_lock<std::shared_mutex> lock(mutex_);

  util::checkpoint("serve/session/whatif");
  if (flow_ == nullptr) return Status::invalid_argument("what_if: no design loaded");

  const netlist::Netlist& nl = flow_->netlist();
  std::vector<timing::Resize> resolved;
  resolved.reserve(resizes.size());
  for (const ResizeRequest& r : resizes) {
    const netlist::GateId id = nl.find(r.gate);
    if (id == netlist::kNoGate) {
      return Status::invalid_argument("what_if: unknown gate '" + r.gate + "'");
    }
    const netlist::Gate& gate = nl.gate(id);
    if (gate.cell_group == netlist::kUnmapped ||
        r.size >= flow_->library().group(gate.cell_group).size_count()) {
      return Status::invalid_argument("what_if: size index " + std::to_string(r.size) +
                                      " out of range for gate '" + r.gate + "'");
    }
    resolved.push_back(timing::Resize{id, r.size});
  }

  try {
    const std::unique_ptr<timing::Speculation> spec = analyzer_->propose_resizes(resolved);
    const timing::Summary& speculative = spec->score();
    const timing::Summary& base = analyzer_->current();
    WhatIfReport report;
    report.epoch = epoch_;
    report.mean_ps = speculative.mean_ps;
    report.sigma_ps = speculative.sigma_ps;
    report.base_mean_ps = base.mean_ps;
    report.base_sigma_ps = base.sigma_ps;
    spec->rollback();
    return report;
  } catch (const std::logic_error& e) {  // std::invalid_argument included
    return Status::invalid_argument(std::string("what_if: ") + e.what());
  }
  // StatusError (cancellation, deadline, injected fault) propagates: an
  // aborted score leaves the shared base untouched.
}

StatusOr<SizeResult> Session::size(double lambda) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  util::checkpoint("serve/session/size");
  if (flow_ == nullptr) return Status::invalid_argument("size: no design loaded");
  try {
    core::OptimizationRecord record = flow_->optimize(lambda);
    rebase(*flow_);
    ++epoch_;
    SizeResult result;
    result.epoch = epoch_;
    result.record = std::move(record);
    return result;
  } catch (const StatusError& e) {
    // size() is not transactional under aborts: resizes committed before the
    // cancellation/deadline persist. Restore consistency (full re-analysis
    // with checkpoints suppressed), record the mutation in the epoch, and
    // surface the structured status.
    const util::ScopedExecSuspend suspend;
    flow_->timing().update();
    rebase(*flow_);
    ++epoch_;
    return e.status();
  } catch (const std::logic_error& e) {
    return Status::invalid_argument(std::string("size: ") + e.what());
  }
}

StatusOr<YieldResult> Session::yield(double clock_period_ps, std::string_view engine) {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  util::checkpoint("serve/session/yield");
  if (flow_ == nullptr) return Status::invalid_argument("yield: no design loaded");
  try {
    const core::YieldReport report = flow_->estimate_yield(clock_period_ps, engine);
    YieldResult result;
    result.epoch = epoch_;
    result.engine = report.engine;
    result.yield = report.yield();
    result.std_error = report.std_error();
    result.draws = report.draws();
    result.clock_period_ps = report.result.clock_period_ps;
    return result;
  } catch (const std::logic_error& e) {  // std::invalid_argument included
    return Status::invalid_argument(std::string("yield: ") + e.what());
  }
}

SessionInfo Session::info() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  SessionInfo info;
  info.epoch = epoch_;
  if (flow_ == nullptr) return info;
  info.loaded = true;
  info.circuit = flow_->netlist().name();
  info.gates = flow_->netlist().node_count();
  const timing::Summary& base = analyzer_->current();
  info.mean_ps = base.mean_ps;
  info.sigma_ps = base.sigma_ps;
  info.area_um2 = flow_->timing().area_um2();
  return info;
}

std::uint64_t Session::approx_cost_bytes() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  if (flow_ == nullptr) return 0;
  // Order-of-magnitude working set of one engine evaluation: a few hundred
  // bytes of pdf/moment state per node. Admission control only needs a
  // consistent relative measure, not an exact byte count.
  return static_cast<std::uint64_t>(flow_->netlist().node_count()) * 512;
}

}  // namespace statsizer::serve
