#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bench_format/bench_writer.h"
#include "circuits/generators.h"
#include "core/flow.h"
#include "sta/dsta.h"

namespace statsizer::core {
namespace {

TEST(Flow, LoadUnknownCircuitFails) {
  Flow flow;
  EXPECT_FALSE(flow.load_table1("c17").ok());
  EXPECT_FALSE(flow.has_circuit());
}

TEST(Flow, LoadTable1Circuit) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  EXPECT_TRUE(flow.has_circuit());
  EXPECT_EQ(flow.netlist().name(), "c432");
  EXPECT_GT(flow.netlist().logic_gate_count(), 100u);
}

TEST(Flow, AnalyzeRequiresCircuit) {
  Flow flow;
  EXPECT_THROW((void)flow.analyze(), std::logic_error);
  EXPECT_THROW((void)flow.run_baseline(), std::logic_error);
  EXPECT_THROW((void)flow.optimize(3.0), std::logic_error);
}

// The library applies util::parse_lambda's rule, like the CLIs and the
// server: a negative or non-finite lambda or clock is refused, never run or
// silently replaced by the resolved clock. A clock of 0 still resolves.
TEST(Flow, RejectsNegativeOrNonFiniteLambdaAndClock) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  const std::vector<std::uint16_t> sizes = flow.netlist().sizes();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -900.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_THROW((void)flow.optimize(bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)flow.estimate_yield(bad, "isle"), std::invalid_argument) << bad;
    EXPECT_THROW((void)flow.estimate_yield(bad, "mc"), std::invalid_argument) << bad;
  }
  EXPECT_EQ(flow.netlist().sizes(), sizes);
  EXPECT_NO_THROW((void)flow.estimate_yield(0.0, "isle"));
}

TEST(Flow, LoadBenchFileRoundTrip) {
  const auto nl = circuits::make_ripple_adder(6);
  const std::string path = ::testing::TempDir() + "/rca6.bench";
  ASSERT_TRUE(bench_format::write_bench_file(nl, path).ok());

  Flow flow;
  ASSERT_TRUE(flow.load_bench_file(path).ok());
  EXPECT_EQ(flow.netlist().inputs().size(), nl.inputs().size());
  EXPECT_EQ(flow.netlist().outputs().size(), nl.outputs().size());
  std::remove(path.c_str());
}

TEST(Flow, EndToEndShapeOnC432) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());
  const auto baseline = flow.run_baseline();
  EXPECT_LE(baseline.final_arrival_ps, baseline.initial_arrival_ps + 1e-9);

  const opt::CircuitStats original = flow.analyze();
  EXPECT_GT(original.mean_ps, 0.0);
  EXPECT_GT(original.sigma_ps, 0.0);
  EXPECT_GT(original.area_um2, 0.0);
  // Original sigma/mu lands in a plausible band for a shallow circuit.
  EXPECT_GT(original.sigma_over_mu(), 0.01);
  EXPECT_LT(original.sigma_over_mu(), 0.25);

  const OptimizationRecord rec = flow.optimize(9.0);
  // The headline effect: sigma drops, area rises, mean stays in a tight band.
  EXPECT_LT(rec.sigma_change, -0.05);
  EXPECT_GT(rec.area_change, 0.0);
  EXPECT_LT(std::abs(rec.mean_change), 0.25);
  EXPECT_NEAR(rec.before.mean_ps, original.mean_ps, 1e-6);
  // Record is self-consistent with a fresh analysis.
  const opt::CircuitStats after = flow.analyze();
  EXPECT_NEAR(rec.after.sigma_ps, after.sigma_ps, 1e-9);
  EXPECT_GT(rec.runtime_seconds, 0.0);
  // The output pdf in the record reflects the optimized circuit.
  EXPECT_NEAR(rec.output_pdf.mean(), after.mean_ps, 1e-9);
}

TEST(Flow, LambdaZeroDegeneratesToMeanOptimization) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("alu2").ok());
  (void)flow.run_baseline();
  const auto before = flow.analyze();
  const OptimizationRecord rec = flow.optimize(0.0);
  // Mean never increases under a pure-mean objective.
  EXPECT_LE(rec.after.mean_ps, before.mean_ps + 1e-6);
}

TEST(Flow, CustomVariationParamsFlowThrough) {
  FlowOptions options;
  options.variation.proportional_coeff = 0.05;  // nearly variation-free
  options.variation.random_floor_ps = 0.1;
  Flow quiet(options);
  ASSERT_TRUE(quiet.load_table1("alu2").ok());
  (void)quiet.run_baseline();

  Flow noisy;  // defaults: strong variation
  ASSERT_TRUE(noisy.load_table1("alu2").ok());
  (void)noisy.run_baseline();

  EXPECT_LT(quiet.analyze().sigma_over_mu(), noisy.analyze().sigma_over_mu());
}

TEST(Flow, OptimizeWithOverrides) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("alu2").ok());
  (void)flow.run_baseline();
  opt::StatisticalSizerOptions overrides;
  overrides.max_iterations = 1;
  const OptimizationRecord rec = flow.optimize(9.0, &overrides);
  EXPECT_LE(rec.iterations, 1u);
  EXPECT_DOUBLE_EQ(rec.lambda, 9.0);
}

TEST(Flow, OptimizeKeepsCallerFullSstaOverrides) {
  // Regression: optimize() used to overwrite overrides->fullssta with the
  // flow's own options after copying the struct, so a caller-supplied pdf
  // resolution silently reverted to the flow default. The record's output
  // pdf is produced by the engines the run actually used, so its size is a
  // direct witness of which options won.
  Flow flow;
  ASSERT_TRUE(flow.load_table1("alu2").ok());
  (void)flow.run_baseline();
  opt::StatisticalSizerOptions overrides;
  overrides.max_iterations = 1;
  overrides.fullssta.samples_per_pdf = 9;  // flow default: 13
  const OptimizationRecord rec = flow.optimize(3.0, &overrides);
  EXPECT_EQ(rec.output_pdf.size(), 9u);
  // And without overrides the flow's own options still apply.
  const OptimizationRecord defaulted = flow.optimize(3.0);
  EXPECT_EQ(defaulted.output_pdf.size(), 13u);
}

TEST(Flow, LoadReplacesCircuit) {
  Flow flow;
  ASSERT_TRUE(flow.load_table1("alu2").ok());
  const std::size_t first = flow.netlist().logic_gate_count();
  ASSERT_TRUE(flow.load_table1("c432").ok());
  EXPECT_NE(flow.netlist().logic_gate_count(), first);
  EXPECT_EQ(flow.netlist().name(), "c432");
}

TEST(Flow, LibraryIsFinalized) {
  Flow flow;
  EXPECT_GE(flow.library().groups().size(), 19u);
  EXPECT_TRUE(flow.library().find_cell("INV_X1").has_value());
}

}  // namespace
}  // namespace statsizer::core
