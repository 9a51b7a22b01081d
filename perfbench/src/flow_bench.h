// The Table-1 flow recipe: read Verilog -> preflight -> run_baseline ->
// estimate_yield (isle, plus one mc cross-check) at the baseline's
// mean + 3 sigma -> optimize(lambda) with bench_table1's effort bounds ->
// estimate_yield (isle) at the same clock. run_flow makes exactly the public
// core::Flow calls a user makes; run_flow_staged replays the same recipe
// stage by stage through the public opt:: calls inside spans, and must end
// bitwise equal to run_flow.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/flow.h"

namespace perfbench {

struct FlowOutcome {
  // Phase wall times (seconds). flow_s spans the whole recipe, including
  // Flow construction, the Verilog read and the DRC preflight.
  double baseline_s = 0.0;
  double yield_s = 0.0;
  double optimize_s = 0.0;
  double flow_s = 0.0;

  statsizer::opt::CircuitStats original;  ///< baseline FULLSSTA summary
  double clock_ps = 0.0;                  ///< baseline mean + 3 sigma
  statsizer::core::YieldReport isle_base;
  statsizer::core::YieldReport mc_base;
  statsizer::core::YieldReport isle_final;
  statsizer::core::OptimizationRecord record;
  std::vector<std::uint16_t> baseline_sizes;
  std::vector<std::uint16_t> final_sizes;

  // Work counts (staged replay only): optimize()'s sizer, and the area
  // recoveries of run_baseline() and optimize().
  statsizer::opt::StatisticalSizerStats sizer;
  statsizer::opt::AreaRecoveryStats baseline_recovery;
  statsizer::opt::AreaRecoveryStats recovery;

  /// Seed-independent: sizes and moments. Seed-dependent: the yields.
  [[nodiscard]] std::string design_digest() const;
  [[nodiscard]] std::string yield_digest() const;
};

/// Gates that can be resized: logic gates with more than one size.
std::vector<statsizer::netlist::GateId> sizable_gates(const statsizer::core::Flow& flow);

/// Library-default flow options; only the yield estimator's seed varies.
statsizer::core::FlowOptions flow_options(std::uint64_t seed);

/// optimize()'s overrides: the flow's own sizer defaults (as Flow::optimize
/// applies them without overrides) plus bench_table1's effort bounds.
statsizer::opt::StatisticalSizerOptions sizer_overrides(const statsizer::core::FlowOptions& o,
                                                        std::size_t logic_gates);

/// @p between, when set, runs after each of the first four phases; its time
/// is left out of the phase and flow times.
FlowOutcome run_flow(const std::string& verilog_path, double lambda, std::uint64_t seed,
                     const std::function<void()>& between = {});

FlowOutcome run_flow_staged(const std::string& verilog_path, double lambda,
                            std::uint64_t seed, Tracer& tracer);

/// Times single layers from the outside on the baseline-sized design
/// (@p baseline_path) and the flow's input (@p design_path); adds the
/// per-layer metrics to @p report. Returns the median idle FULLSSTA what-if
/// time in microseconds.
double measure_layers(const std::string& design_path, const std::string& baseline_path,
                    std::uint64_t seed, Tracer& tracer, Report& report);

}  // namespace perfbench
