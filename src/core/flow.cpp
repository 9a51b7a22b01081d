#include "core/flow.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>

#include "bench_format/bench_reader.h"
#include "bench_format/sdc_reader.h"
#include "bench_format/verilog_reader.h"
#include "bench_format/verilog_writer.h"
#include "circuits/iscas_suite.h"

namespace statsizer::core {

Flow::Flow(FlowOptions options)
    : options_(std::move(options)),
      library_(liberty::build_synthetic_90nm(options_.library)),
      variation_(options_.variation) {}

Status Flow::adopt_circuit(netlist::Netlist nl) {
  // The structural DRC screen runs before Netlist::check(): its diagnostics
  // (named cycle witness, duplicated output with both drivers) subsume the
  // invariant checker's messages for the overlapping failures, and the
  // warnings (dangling outputs, dead cones) are kept for last_drc().
  last_drc_ = drc::check_netlist(nl, &provenance_);
  if (last_drc_.has_errors()) {
    const drc::Diagnostic& d = *last_drc_.first_error();
    return Status::invalid_argument(std::string(drc::rule_id(d.rule)) + ": " + d.message);
  }
  if (const Status s = nl.check(); !s.ok()) return s;
  auto owned = std::make_unique<netlist::Netlist>(std::move(nl));
  // An already-mapped netlist (e.g. read from structural Verilog, where each
  // instantiation names its cell and drive) keeps its bindings; everything
  // else goes through the mapper.
  if (!techmap::is_mapped(*owned, library_)) {
    if (const Status s = techmap::map_to_library(*owned, library_, options_.mapping);
        !s.ok()) {
      return s;
    }
  }
  netlist_ = std::move(owned);
  context_ = std::make_unique<sta::TimingContext>(*netlist_, library_, variation_,
                                                  options_.timing);
  sdc_.reset();
  sdc_file_.clear();
  return Status();
}

Status Flow::load_circuit(netlist::Netlist nl) {
  provenance_.clear();
  return adopt_circuit(std::move(nl));
}

Status Flow::load_table1(std::string_view name) {
  try {
    return load_circuit(circuits::make_table1_circuit(name));
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(e.what());
  }
}

Status Flow::load_bench_file(const std::string& path) {
  provenance_.clear();
  auto parsed = bench_format::read_bench_file(path, &provenance_);
  if (!parsed.ok()) return parsed.status();
  return adopt_circuit(std::move(parsed.value()));
}

Status Flow::load_verilog_file(const std::string& path) {
  provenance_.clear();
  auto parsed = bench_format::read_verilog_file(path, library_, &provenance_);
  if (!parsed.ok()) return parsed.status();
  return adopt_circuit(std::move(parsed.value()));
}

Status Flow::load_file(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  if (ext == ".bench") return load_bench_file(path);
  if (ext == ".v") return load_verilog_file(path);
  return Status::invalid_argument("unsupported extension '" + ext + "' (want .bench or .v): " +
                                  path);
}

namespace {

/// util::parse_lambda's rule for numbers passed through the API: finite, >= 0.
void require_non_negative(const char* where, const char* what, double value) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(std::string(where) + ": " + what +
                                " must be a finite number >= 0, got " + std::to_string(value));
  }
}

/// Resolves the parsed SDC's port names against the netlist into the sta
/// layer's dense constraint vectors. Lives here (not in bench_format) to
/// keep the format readers below the sta layer.
StatusOr<sta::TimingConstraints> to_constraints(const bench_format::Sdc& sdc,
                                                const netlist::Netlist& nl) {
  sta::TimingConstraints c;
  c.clock_period_ps = sdc.clock_period_ps;

  if (!sdc.input_delays.empty()) {
    c.input_arrival_ps.assign(nl.node_count(), 0.0);
    for (const auto& entry : sdc.input_delays) {
      if (entry.all_ports) {
        for (const netlist::GateId id : nl.inputs()) {
          c.input_arrival_ps[id] = entry.delay_ps;
        }
        continue;
      }
      for (const std::string& port : entry.ports) {
        const netlist::GateId id = nl.find(port);
        if (id == netlist::kNoGate || !nl.is_input(id)) {
          return Status::invalid_argument("set_input_delay: '" + port + "' is not a primary input of " +
                               nl.name());
        }
        c.input_arrival_ps[id] = entry.delay_ps;
      }
    }
  }

  if (!sdc.output_delays.empty()) {
    c.output_delay_ps.assign(nl.outputs().size(), 0.0);
    std::unordered_map<std::string_view, std::size_t> output_index;
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
      output_index.emplace(nl.outputs()[i].name, i);
    }
    for (const auto& entry : sdc.output_delays) {
      if (entry.all_ports) {
        for (double& d : c.output_delay_ps) d = entry.delay_ps;
        continue;
      }
      for (const std::string& port : entry.ports) {
        const auto it = output_index.find(port);
        if (it == output_index.end()) {
          return Status::invalid_argument("set_output_delay: '" + port + "' is not a primary output of " +
                               nl.name());
        }
        c.output_delay_ps[it->second] = entry.delay_ps;
      }
    }
  }
  return c;
}

}  // namespace

Status Flow::apply_sdc(std::string_view text) {
  if (!has_circuit()) return Status::invalid_argument("apply_sdc: no circuit loaded");
  return adopt_sdc(bench_format::read_sdc(text), "");
}

Status Flow::apply_sdc_file(const std::string& path) {
  if (!has_circuit()) return Status::invalid_argument("apply_sdc_file: no circuit loaded");
  return adopt_sdc(bench_format::read_sdc_file(path), path);
}

Status Flow::adopt_sdc(StatusOr<bench_format::Sdc> sdc, std::string file) {
  if (!sdc.ok()) return sdc.status();
  auto constraints = to_constraints(*sdc, *netlist_);
  if (!constraints.ok()) return constraints.status();
  context_->set_constraints(std::move(constraints.value()));
  sdc_ = std::move(sdc.value());
  sdc_file_ = std::move(file);
  return Status();
}

const drc::DrcReport& Flow::preflight() {
  if (!has_circuit()) throw std::logic_error("Flow::preflight: no circuit loaded");
  last_drc_ = drc::run_drc(*context_, options_.drc, &provenance_,
                           sdc_.has_value() ? &*sdc_ : nullptr, sdc_file_);
  return last_drc_;
}

void Flow::require_clean(const char* stage) {
  if (!options_.preflight) return;
  if (!preflight().has_errors()) return;
  const drc::Diagnostic& d = *last_drc_.first_error();
  throw std::logic_error(std::string(stage) + ": design fails preflight DRC [" +
                         std::string(drc::rule_id(d.rule)) + "] " + d.message);
}

Status Flow::write_verilog_file(const std::string& path) const {
  if (!has_circuit()) return Status::invalid_argument("write_verilog_file: no circuit loaded");
  return bench_format::write_verilog_file(*netlist_, library_, path);
}

opt::DeterministicSizerStats Flow::run_baseline() {
  if (!has_circuit()) throw std::logic_error("Flow::run_baseline: no circuit loaded");
  require_clean("Flow::run_baseline");
  // The paper's "original" is a circuit "obtained by optimizing ... with a
  // goal of minimizing the mean of the longest delay". Three stages:
  // load-balanced initial sizing (what synthesis emits), TILOS-style
  // critical-path sizing, then the statistical machinery at lambda = 0 —
  // pure mean optimization — until no further improvement.
  (void)opt::apply_initial_sizing(*context_, options_.initial_sizing);
  const opt::DeterministicSizerStats tilos =
      opt::size_for_mean_delay(*context_, options_.baseline);

  opt::StatisticalSizerOptions polish;
  polish.objective.lambda = 0.0;
  polish.threads = options_.sizer_threads;
  polish.confirm_engine = options_.confirm_engine;
  polish.score_engine = options_.score_engine;
  // Bounded effort on large circuits: the polish exists to put the baseline
  // at its E[max] optimum, and diminishing returns set in well before the
  // default cap on multi-thousand-gate netlists.
  polish.max_iterations = netlist_->logic_gate_count() > 1500 ? 50 : 150;
  polish.fullssta = options_.fullssta;
  (void)opt::size_statistically(*context_, polish);

  // Constrained-mode area recovery (paper section 2.1: "delay ... is
  // optimized first then area is recovered as far as possible without
  // violating a delay constraint"). This is what leaves off-critical gates
  // small — and why the mean-optimized circuit has the widest spread.
  // screen_engine stays on the criterion-based default (dsta for the
  // deterministic arrival guard, fassta for the statistical one).
  opt::AreaRecoveryOptions recovery;
  recovery.criterion = options_.recovery_criterion;
  recovery.tolerance = options_.recovery_tolerance;
  recovery.objective.lambda = 0.0;
  recovery.threads = options_.sizer_threads;
  recovery.confirm_engine = options_.confirm_engine;
  recovery.fullssta = options_.fullssta;
  (void)opt::recover_area(*context_, recovery);

  // Short re-polish so the baseline sits at (not merely near) its E[max]
  // optimum: the statistical runs should pay mean for variance, not find
  // leftover mean wins.
  if (options_.post_recovery_polish_iterations > 0) {
    polish.max_iterations = options_.post_recovery_polish_iterations;
    (void)opt::size_statistically(*context_, polish);
  }
  return tilos;
}

OptimizationRecord Flow::optimize(double lambda,
                                  const opt::StatisticalSizerOptions* overrides) {
  require_non_negative("Flow::optimize", "lambda", lambda);
  if (!has_circuit()) throw std::logic_error("Flow::optimize: no circuit loaded");
  require_clean("Flow::optimize");

  opt::StatisticalSizerOptions sizer = overrides != nullptr ? *overrides
                                                            : opt::StatisticalSizerOptions{};
  if (overrides == nullptr) {
    // Flow defaults apply only when the caller passed no overrides — an
    // explicit overrides struct carries its own engine configuration
    // (including fullssta options) untouched.
    sizer.threads = options_.sizer_threads;
    sizer.confirm_engine = options_.confirm_engine;
    sizer.score_engine = options_.score_engine;
    sizer.fullssta = options_.fullssta;
  }
  sizer.objective.lambda = lambda;

  const auto t0 = std::chrono::steady_clock::now();
  opt::StatisticalSizerStats stats = opt::size_statistically(*context_, sizer);

  // Constrained-mode cleanup: the optimizer's coordinated moves (population
  // bumps) oversize gates whose contribution to the achieved objective is
  // marginal; recover that area without giving the objective back. Recovery
  // guards and measures with the sizer's engines and FullSstaOptions, so its
  // exact budgets agree with the record reported below.
  opt::AreaRecoveryOptions recovery;
  recovery.criterion = opt::RecoveryCriterion::kStatisticalCost;
  recovery.objective = sizer.objective;
  recovery.tolerance = 0.002;
  recovery.threads = sizer.threads;
  recovery.screen_engine = sizer.score_engine;
  recovery.confirm_engine = sizer.confirm_engine;
  recovery.fullssta = sizer.fullssta;
  recovery.fassta = sizer.fassta;
  opt::AreaRecoveryStats recovered = opt::recover_area(*context_, recovery);
  // Statistical-criterion recovery always returns its confirm engine's exact
  // summary of the committed final state (bitwise what a fresh run_fullssta
  // would report), so the old post-recovery refresh is gone.
  stats.final_.mean_ps = recovered.final_summary.mean_ps;
  stats.final_.sigma_ps = recovered.final_summary.sigma_ps;
  stats.final_.area_um2 = context_->area_um2();
  const auto t1 = std::chrono::steady_clock::now();

  OptimizationRecord rec;
  rec.lambda = lambda;
  rec.before = stats.initial;
  rec.after = stats.final_;
  rec.mean_change = stats.initial.mean_ps > 0.0
                        ? stats.final_.mean_ps / stats.initial.mean_ps - 1.0
                        : 0.0;
  rec.sigma_change = stats.initial.sigma_ps > 0.0
                         ? stats.final_.sigma_ps / stats.initial.sigma_ps - 1.0
                         : 0.0;
  rec.area_change = stats.initial.area_um2 > 0.0
                        ? stats.final_.area_um2 / stats.initial.area_um2 - 1.0
                        : 0.0;
  rec.iterations = stats.iterations;
  rec.resizes = stats.resizes;
  rec.runtime_seconds = std::chrono::duration<double>(t1 - t0).count();
  // The recovery's final analysis already holds the pdf of this exact state.
  rec.output_pdf = std::move(recovered.final_summary.output_pdf);
  return rec;
}

YieldReport Flow::estimate_yield(double clock_period_ps, std::string_view engine) const {
  require_non_negative("Flow::estimate_yield", "clock_period_ps", clock_period_ps);
  if (!has_circuit()) throw std::logic_error("Flow::estimate_yield: no circuit loaded");
  ssta::IsleOptions isle = ssta::for_yield_engine(options_.isle, engine);
  if (clock_period_ps > 0.0) isle.clock_period_ps = clock_period_ps;
  YieldReport report;
  report.engine = engine;
  report.result = ssta::run_isle(*context_, isle);
  return report;
}

opt::CircuitStats Flow::analyze() const {
  if (!has_circuit()) throw std::logic_error("Flow::analyze: no circuit loaded");
  const ssta::FullSstaResult full = ssta::run_fullssta(*context_, options_.fullssta);
  opt::CircuitStats s;
  s.mean_ps = full.mean_ps;
  s.sigma_ps = full.sigma_ps;
  s.area_um2 = context_->area_um2();
  return s;
}

ssta::FullSstaResult Flow::full_analysis() const {
  if (!has_circuit()) throw std::logic_error("Flow::full_analysis: no circuit loaded");
  return ssta::run_fullssta(*context_, options_.fullssta);
}

std::unique_ptr<timing::Analyzer> Flow::make_analyzer(std::string_view name) const {
  timing::AnalyzerOptions analyzer_options;
  analyzer_options.fullssta = options_.fullssta;
  return timing::make_analyzer(name, analyzer_options);
}

}  // namespace statsizer::core
