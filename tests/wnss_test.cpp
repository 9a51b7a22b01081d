#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "opt/wnss.h"
#include "ssta/fullssta.h"
#include "techmap/mapper.h"

namespace statsizer::opt {
namespace {

using netlist::GateFunc;
using netlist::GateId;
using netlist::Netlist;
using sta::NodeMoments;

// ---------------------------------------------------------------------------
// pairwise responsibility (the tracer's comparison primitive)
// ---------------------------------------------------------------------------

TEST(MoreResponsible, DominantMeanWinsOutright) {
  // |alpha| >= 2.6: higher mean wins regardless of sigmas (paper eqs. 5/6).
  const NodeMoments high{100.0, 3.0};
  const NodeMoments low{50.0, 30.0};  // much fatter, but alpha is large
  // alpha = 50 / sqrt(9 + 900) = 1.66 -> NOT dominant; pick sigmas so it is.
  const NodeMoments low2{50.0, 10.0};  // alpha = 50 / sqrt(109) = 4.8
  EXPECT_TRUE(more_responsible(high, low2, 0.1, 0.1));
  EXPECT_FALSE(more_responsible(low2, high, 0.1, 0.1));
}

TEST(MoreResponsible, FatLowerMeanInputCanWin) {
  // The paper's Fig. 3 lesson: with overlapping distributions, the input
  // with the larger variance contribution wins even at a lower mean.
  const NodeMoments thin{320.0, 27.0};
  const NodeMoments fat{310.0, 45.0};
  EXPECT_TRUE(more_responsible(fat, thin, 0.1, 0.1));
  EXPECT_FALSE(more_responsible(thin, fat, 0.1, 0.1));
}

TEST(MoreResponsible, SymmetricTieIsStable) {
  const NodeMoments a{100.0, 10.0};
  // a vs a: either answer is consistent, but must not contradict itself.
  const bool ab = more_responsible(a, a, 0.1, 0.1);
  EXPECT_TRUE(ab);  // ties break toward the first argument (>=)
}

// ---------------------------------------------------------------------------
// tracing on constructed netlists
// ---------------------------------------------------------------------------

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

TEST(TraceWnss, ChainIsFullyTraced) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (int i = 0; i < 7; ++i) prev = nl.add_gate(GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  Bench b(std::move(nl));
  const auto full = ssta::run_fullssta(*b.ctx);
  const WnssTrace trace = trace_wnss(*b.ctx, full.node);
  EXPECT_EQ(trace.path.size(), 7u);
  EXPECT_EQ(trace.critical_output, b.nl.outputs()[0].driver);
}

TEST(TraceWnss, PathIsConnectedInputFirst) {
  Bench b(circuits::make_cla_adder(8));
  const auto full = ssta::run_fullssta(*b.ctx);
  const WnssTrace trace = trace_wnss(*b.ctx, full.node);
  ASSERT_FALSE(trace.path.empty());
  EXPECT_EQ(trace.path.back(), trace.critical_output);
  for (std::size_t i = 1; i < trace.path.size(); ++i) {
    const auto& fanins = b.nl.gate(trace.path[i]).fanins;
    EXPECT_NE(std::find(fanins.begin(), fanins.end(), trace.path[i - 1]), fanins.end())
        << "path not connected at position " << i;
  }
  // The first path gate's fanins are PIs (or at least include the walked one).
  for (const GateId g : trace.path) {
    EXPECT_TRUE(b.ctx->has_cell(g));  // only sizable gates on the path
  }
}

TEST(TraceWnss, PicksFatBranchOverThinBranch) {
  // Two parallel 2-gate branches into an AND: the fat branch is built from
  // minimum-size gates with a heavy load (big sigma); the thin branch uses
  // maximum-size gates (small sigma). Means are comparable; the tracer must
  // walk the fat branch.
  Netlist nl("fork");
  const GateId a = nl.add_input("a");
  const GateId b1 = nl.add_gate(GateFunc::kBuf, {a}, "fat1");
  const GateId b2 = nl.add_gate(GateFunc::kBuf, {b1}, "fat2");
  const GateId c1 = nl.add_gate(GateFunc::kBuf, {a}, "thin1");
  const GateId c2 = nl.add_gate(GateFunc::kBuf, {c1}, "thin2");
  const GateId join = nl.add_gate(GateFunc::kAnd, {b2, c2}, "join");
  nl.add_output("y", join);
  Bench bench(std::move(nl));
  // Fat branch: smallest drives. Thin branch: largest drives.
  const auto& group = bench.lib.group(bench.nl.gate(b1).cell_group);
  const auto big = static_cast<std::uint16_t>(group.size_count() - 1);
  bench.nl.gate(b1).size_index = 0;
  bench.nl.gate(b2).size_index = 0;
  bench.nl.gate(c1).size_index = big;
  bench.nl.gate(c2).size_index = big;
  bench.ctx->update();

  const auto full = ssta::run_fullssta(*bench.ctx);
  const WnssTrace trace = trace_wnss(*bench.ctx, full.node);
  ASSERT_EQ(trace.path.size(), 3u);
  EXPECT_EQ(bench.nl.gate(trace.path[0]).name, "fat1");
  EXPECT_EQ(bench.nl.gate(trace.path[1]).name, "fat2");
  EXPECT_EQ(bench.nl.gate(trace.path[2]).name, "join");
}

TEST(TraceWnss, CriticalOutputIsVarianceDominant) {
  // Two independent outputs: one driven by a long min-size chain (fat), one
  // by a short max-size chain (thin but slightly later mean is avoided by
  // construction). The tournament must start from the fat output.
  Netlist nl("two_outs");
  const GateId a = nl.add_input("a");
  GateId fat = a;
  for (int i = 0; i < 6; ++i) fat = nl.add_gate(GateFunc::kBuf, {fat}, "f" + std::to_string(i));
  GateId thin = a;
  for (int i = 0; i < 2; ++i) {
    thin = nl.add_gate(GateFunc::kBuf, {thin}, "t" + std::to_string(i));
  }
  nl.add_output("fat_o", fat);
  nl.add_output("thin_o", thin);
  Bench bench(std::move(nl));
  bench.ctx->update();
  const auto full = ssta::run_fullssta(*bench.ctx);
  const WnssTrace trace = trace_wnss(*bench.ctx, full.node);
  EXPECT_EQ(trace.critical_output, bench.nl.find("f5"));
}

TEST(TraceWnss, EmptyForNoOutputs) {
  Netlist nl("empty");
  (void)nl.add_input("a");
  Bench bench(std::move(nl));
  const auto full = ssta::run_fullssta(*bench.ctx);
  const WnssTrace trace = trace_wnss(*bench.ctx, full.node);
  EXPECT_TRUE(trace.path.empty());
  EXPECT_EQ(trace.critical_output, netlist::kNoGate);
}

TEST(TraceWnss, DeterministicAcrossRuns) {
  Bench b(circuits::make_cla_adder(8));
  const auto full = ssta::run_fullssta(*b.ctx);
  const WnssTrace t1 = trace_wnss(*b.ctx, full.node);
  const WnssTrace t2 = trace_wnss(*b.ctx, full.node);
  EXPECT_EQ(t1.path, t2.path);
}

}  // namespace
}  // namespace statsizer::opt
