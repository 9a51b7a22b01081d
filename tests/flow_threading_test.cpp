// Threads are on by default (FlowOptions::sizer_threads and
// IsleOptions::threads default to 0 = hardware concurrency). This suite pins
// that the default flow is bitwise the serial one: baseline sizes, every
// OptimizationRecord field, and both yield estimators, on a Table-1 circuit
// and a small mesh fabric.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "core/flow.h"

namespace statsizer::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct FlowRun {
  std::vector<std::uint16_t> baseline_sizes;
  OptimizationRecord record;
  YieldReport isle;
  YieldReport mc;
};

FlowRun run_flow(const std::string& circuit, FlowOptions options) {
  options.isle.samples = 1024;
  Flow flow(options);
  const Status loaded =
      circuit == "mesh3x3x4"
          ? flow.load_circuit(circuits::make_mesh_interconnect({3, 3, 4}))
          : flow.load_table1(circuit);
  EXPECT_TRUE(loaded.ok()) << loaded.message();
  FlowRun r;
  (void)flow.run_baseline();
  r.baseline_sizes = flow.netlist().sizes();
  r.record = flow.optimize(3.0);
  r.isle = flow.estimate_yield(0.0, "isle");
  r.mc = flow.estimate_yield(0.0, "mc");
  return r;
}

void expect_stats_equal(const opt::CircuitStats& a, const opt::CircuitStats& b) {
  EXPECT_EQ(bits(a.mean_ps), bits(b.mean_ps));
  EXPECT_EQ(bits(a.sigma_ps), bits(b.sigma_ps));
  EXPECT_EQ(bits(a.area_um2), bits(b.area_um2));
}

void expect_yield_equal(const YieldReport& a, const YieldReport& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(bits(a.yield()), bits(b.yield()));
  EXPECT_EQ(bits(a.std_error()), bits(b.std_error()));
  EXPECT_EQ(a.draws(), b.draws());
  EXPECT_EQ(bits(a.result.ess), bits(b.result.ess));
}

class FlowThreading : public ::testing::TestWithParam<std::string> {};

TEST(FlowThreadingDefaults, SizerAndYieldUseHardwareConcurrency) {
  EXPECT_EQ(FlowOptions{}.sizer_threads, 0u);
  EXPECT_EQ(ssta::IsleOptions{}.threads, 0u);
}

TEST_P(FlowThreading, DefaultOptionsMatchSerialBitwise) {
  FlowOptions serial;
  serial.sizer_threads = 1;
  serial.isle.threads = 1;
  const FlowRun ref = run_flow(GetParam(), serial);
  const FlowRun def = run_flow(GetParam(), FlowOptions{});
  ASSERT_GT(ref.record.resizes, 0u) << "the optimizer did nothing: the test is vacuous";

  EXPECT_EQ(def.baseline_sizes, ref.baseline_sizes);

  // Every OptimizationRecord field but runtime_seconds (wall clock).
  const OptimizationRecord& a = def.record;
  const OptimizationRecord& b = ref.record;
  EXPECT_EQ(bits(a.lambda), bits(b.lambda));
  expect_stats_equal(a.before, b.before);
  expect_stats_equal(a.after, b.after);
  EXPECT_EQ(bits(a.mean_change), bits(b.mean_change));
  EXPECT_EQ(bits(a.sigma_change), bits(b.sigma_change));
  EXPECT_EQ(bits(a.area_change), bits(b.area_change));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(bits(a.output_pdf.origin()), bits(b.output_pdf.origin()));
  EXPECT_EQ(bits(a.output_pdf.step()), bits(b.output_pdf.step()));
  EXPECT_EQ(a.output_pdf.masses(), b.output_pdf.masses());

  expect_yield_equal(def.isle, ref.isle);
  expect_yield_equal(def.mc, ref.mc);
}

INSTANTIATE_TEST_SUITE_P(Circuits, FlowThreading, ::testing::Values("c432", "mesh3x3x4"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace statsizer::core
