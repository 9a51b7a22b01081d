// Area recovery on the timing::Analyzer what-if API: the contract (mirroring
// sizer_parallel_test) is that accepted downsizes, final sizes, and
// AreaRecoveryStats are bitwise-identical for any thread count, AND
// identical to the pre-port serial mutate-and-rerun loop
// (detail::recover_area_reference, kept below as the oracle). Plus the
// rollback accounting audit: AreaRecoveryStats must match the committed
// netlist even when a chunk's exact verification fails and rolls the chunk
// back wholesale.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "fassta/engine.h"
#include "liberty/synthetic.h"
#include "opt/area_recovery.h"
#include "opt/initial_sizing.h"
#include "opt/sizer_deterministic.h"
#include "ssta/fullssta.h"
#include "sta/dsta.h"
#include "techmap/mapper.h"

namespace statsizer::opt {
namespace {

using netlist::GateId;
using netlist::Netlist;

/// Accepted downsizes in statistical mode accumulate between exact
/// verifications; every kChunk the confirm engine re-checks the budgets.
/// Matches recover_area's chunk length.
constexpr std::size_t kChunk = 12;

/// Gates with shrink headroom, largest cells first (recover_area's visit
/// order).
std::vector<GateId> recovery_order(const sta::TimingContext& ctx) {
  const auto& nl = ctx.netlist();
  std::vector<GateId> order;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (ctx.has_cell(id) && nl.gate(id).size_index > 0) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](GateId a, GateId b) {
    return ctx.cell(a).area_um2 > ctx.cell(b).area_um2;
  });
  return order;
}

namespace detail {

/// The pre-port serial reference: per trial, mutate + full
/// TimingContext::update() + engine re-run. The tests below pin
/// recover_area's analyzer port against this loop's decisions bitwise.
AreaRecoveryStats recover_area_reference(sta::TimingContext& ctx,
                                         const AreaRecoveryOptions& options) {
  auto& nl = ctx.mutable_netlist();
  const fassta::Engine engine(ctx, options.fassta);
  const Objective& obj = options.objective;
  const bool statistical = options.criterion == RecoveryCriterion::kStatisticalCost;

  AreaRecoveryStats stats;
  ctx.update();
  stats.area_before_um2 = ctx.area_um2();

  double screen_sigma = 0.0;
  const auto screen = [&]() {
    if (!statistical) return run_dsta(ctx).max_arrival_ps;
    sta::NodeMoments m;
    (void)engine.run(&m);
    screen_sigma = m.sigma_ps;
    return obj.cost(m.mean_ps, m.sigma_ps);
  };
  const double screen_budget = screen() * (1.0 + options.tolerance);
  const double screen_sigma_budget = screen_sigma * (1.0 + options.sigma_tolerance);

  double exact_cost_budget = 0.0;
  double exact_sigma_budget = 0.0;
  if (statistical) {
    const ssta::FullSstaResult full = ssta::run_fullssta(ctx, options.fullssta);
    exact_cost_budget = obj.cost(full.mean_ps, full.sigma_ps) * (1.0 + options.tolerance);
    exact_sigma_budget = full.sigma_ps * (1.0 + options.sigma_tolerance);
  }
  const auto exact_ok = [&]() {
    const ssta::FullSstaResult full = ssta::run_fullssta(ctx, options.fullssta);
    return obj.cost(full.mean_ps, full.sigma_ps) <= exact_cost_budget &&
           full.sigma_ps <= exact_sigma_budget;
  };

  auto checkpoint = nl.sizes();
  std::size_t since_checkpoint = 0;
  bool stopped = false;

  for (std::size_t pass = 0; pass < kMaxRecoveryPasses && !stopped; ++pass) {
    const std::vector<GateId> order = recovery_order(ctx);

    std::size_t changed = 0;
    for (const GateId g : order) {
      auto& gate = nl.gate(g);
      while (gate.size_index > 0) {
        const std::uint16_t keep = gate.size_index;
        gate.size_index = static_cast<std::uint16_t>(keep - 1);
        ctx.update();
        ++stats.screen_trials;
        const double cost = screen();
        const bool ok = cost <= screen_budget &&
                        (!statistical || screen_sigma <= screen_sigma_budget);
        if (!ok) {
          gate.size_index = keep;
          ctx.update();
          break;
        }
        ++stats.downsizes;
        ++changed;
        if (statistical && ++since_checkpoint >= kChunk) {
          ++stats.exact_verifications;
          if (exact_ok()) {
            checkpoint = nl.sizes();
          } else {
            nl.set_sizes(checkpoint);
            ctx.update();
            stats.downsizes -= since_checkpoint;
            ++stats.chunk_rollbacks;
            stopped = true;
          }
          since_checkpoint = 0;
          if (stopped) break;
        }
      }
      if (stopped) break;
    }
    if (changed == 0) break;
  }

  if (statistical && since_checkpoint > 0 && !stopped) {
    ++stats.exact_verifications;
    if (!exact_ok()) {
      nl.set_sizes(checkpoint);
      ctx.update();
      stats.downsizes -= since_checkpoint;
      ++stats.chunk_rollbacks;
    }
  }

  ctx.update();
  stats.area_after_um2 = ctx.area_um2();
  return stats;
}

}  // namespace detail

/// How the bench creates shrink headroom before recovery runs.
enum class Headroom {
  kTilos,        ///< initial sizing + TILOS: fat critical path, recoverable sides
  kUniformBump,  ///< every gate bumped 3 sizes: the balanced-fabric case (TILOS
                 ///< leaves a parity fabric at minimum size — nothing to recover)
};

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, Headroom headroom = Headroom::kTilos) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
    (void)apply_initial_sizing(*ctx);
    if (headroom == Headroom::kTilos) {
      (void)size_for_mean_delay(*ctx);
    } else {
      for (GateId g = 0; g < nl.node_count(); ++g) {
        if (!ctx->has_cell(g)) continue;
        const auto& group = lib.group(nl.gate(g).cell_group);
        nl.gate(g).size_index = static_cast<std::uint16_t>(
            std::min<std::size_t>(group.size_count() - 1, nl.gate(g).size_index + 3u));
      }
      ctx->update();
    }
  }
};

/// Wide balanced XOR fabric (mirrors sizer_parallel_test): reconvergence-free
/// breadth, thousands of near-identical paths.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

struct RunResult {
  AreaRecoveryStats stats;
  std::vector<std::uint16_t> sizes;
};

AreaRecoveryOptions options_for(RecoveryCriterion criterion) {
  AreaRecoveryOptions opt;
  opt.criterion = criterion;
  opt.objective.lambda = 3.0;
  return opt;
}

RunResult run_once(Netlist nl, AreaRecoveryOptions opt, std::size_t threads,
                   Headroom headroom = Headroom::kTilos) {
  Bench b(std::move(nl), headroom);
  opt.threads = threads;
  RunResult r;
  r.stats = recover_area(*b.ctx, opt);
  r.sizes = b.nl.sizes();
  return r;
}

/// The accounting invariant the rollback audit pins: every counted downsize
/// is one committed size-index step, so the per-gate entry-to-exit drop must
/// sum to stats.downsizes — whatever mix of accepts, chunk commits, and
/// wholesale rollbacks produced the final netlist.
void expect_stats_match_netlist(const std::vector<std::uint16_t>& before,
                                const std::vector<std::uint16_t>& after,
                                const AreaRecoveryStats& stats) {
  ASSERT_EQ(before.size(), after.size());
  std::size_t steps = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_LE(after[i], before[i]) << "recovery upsized gate " << i;
    steps += before[i] - after[i];
  }
  EXPECT_EQ(stats.downsizes, steps);
}

void expect_identical(const RunResult& ref, const RunResult& r, std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(r.sizes, ref.sizes);
  EXPECT_EQ(r.stats.downsizes, ref.stats.downsizes);
  EXPECT_EQ(r.stats.screen_trials, ref.stats.screen_trials);
  EXPECT_EQ(r.stats.exact_verifications, ref.stats.exact_verifications);
  EXPECT_EQ(r.stats.chunk_rollbacks, ref.stats.chunk_rollbacks);
  // Bitwise-equal areas and final analysis (EXPECT_EQ, not EXPECT_DOUBLE_EQ:
  // the contract is exact identity, not 4-ULP closeness).
  EXPECT_EQ(r.stats.area_before_um2, ref.stats.area_before_um2);
  EXPECT_EQ(r.stats.area_after_um2, ref.stats.area_after_um2);
  EXPECT_EQ(r.stats.has_final_summary, ref.stats.has_final_summary);
  if (ref.stats.has_final_summary) {
    EXPECT_EQ(r.stats.final_summary.mean_ps, ref.stats.final_summary.mean_ps);
    EXPECT_EQ(r.stats.final_summary.sigma_ps, ref.stats.final_summary.sigma_ps);
  }
}

class AreaRecoveryParallel
    : public ::testing::TestWithParam<std::pair<int, RecoveryCriterion>> {
 protected:
  static Netlist circuit() {
    return GetParam().first == 0 ? circuits::make_cla_adder(8) : parity_fabric(16);
  }
  static Headroom headroom() {
    return GetParam().first == 0 ? Headroom::kTilos : Headroom::kUniformBump;
  }
  static AreaRecoveryOptions options() {
    AreaRecoveryOptions opt = options_for(GetParam().second);
    if (GetParam().first == 1) {
      // The balanced fabric has zero slack anywhere: budgets must absorb the
      // per-downsize delay/sigma deltas or nothing is recoverable at all.
      opt.tolerance = 0.05;
      opt.sigma_tolerance = 0.2;
    }
    return opt;
  }
};

TEST_P(AreaRecoveryParallel, IdenticalAcrossThreadCounts) {
  const RunResult ref = run_once(circuit(), options(), 1, headroom());
  EXPECT_GT(ref.stats.downsizes, 0u) << "no recovery headroom: the test is vacuous";
  EXPECT_GT(ref.stats.screen_trials, ref.stats.downsizes);
  for (const std::size_t threads : {2u, 8u, 0u}) {
    expect_identical(ref, run_once(circuit(), options(), threads, headroom()), threads);
  }
}

TEST_P(AreaRecoveryParallel, MatchesPrePortSerialLoop) {
  Bench legacy(circuit(), headroom());
  const auto before = legacy.nl.sizes();
  const AreaRecoveryStats ref = detail::recover_area_reference(*legacy.ctx, options());
  expect_stats_match_netlist(before, legacy.nl.sizes(), ref);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunResult ported = run_once(circuit(), options(), threads, headroom());
    EXPECT_EQ(ported.sizes, legacy.nl.sizes());
    EXPECT_EQ(ported.stats.downsizes, ref.downsizes);
    EXPECT_EQ(ported.stats.screen_trials, ref.screen_trials);
    EXPECT_EQ(ported.stats.exact_verifications, ref.exact_verifications);
    EXPECT_EQ(ported.stats.chunk_rollbacks, ref.chunk_rollbacks);
    EXPECT_EQ(ported.stats.area_before_um2, ref.area_before_um2);
    EXPECT_EQ(ported.stats.area_after_um2, ref.area_after_um2);
  }
}

TEST_P(AreaRecoveryParallel, OddScreenWindowsIdenticalToSerial) {
  // The thread count is the worker count of every FULLSSTA what-if's
  // cone walk (the statistical mode's chunk verifications; util::
  // dataflow_for): 3 and 5 workers split the cones' slots in ways no other
  // case does.
  const RunResult ref = run_once(circuit(), options(), 1, headroom());
  ASSERT_GT(ref.stats.downsizes, 0u);
  for (const std::size_t threads : {3u, 5u}) {
    expect_identical(ref, run_once(circuit(), options(), threads, headroom()), threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, AreaRecoveryParallel,
    ::testing::Values(std::pair(0, RecoveryCriterion::kDeterministicArrival),
                      std::pair(0, RecoveryCriterion::kStatisticalCost),
                      std::pair(1, RecoveryCriterion::kDeterministicArrival),
                      std::pair(1, RecoveryCriterion::kStatisticalCost)),
    [](const auto& info) {
      std::string name = info.param.first == 0 ? "cla_adder" : "parity_fabric";
      name += info.param.second == RecoveryCriterion::kDeterministicArrival
                  ? "_deterministic"
                  : "_statistical";
      return name;
    });

// The ISCAS-class equivalence demanded by the port: analyzer-vs-legacy on a
// reconvergent Table-1 workload, both criteria.
TEST(AreaRecoveryEquivalence, MatchesPrePortSerialLoopOnC432) {
  for (const RecoveryCriterion criterion :
       {RecoveryCriterion::kDeterministicArrival, RecoveryCriterion::kStatisticalCost}) {
    SCOPED_TRACE(criterion == RecoveryCriterion::kDeterministicArrival ? "deterministic"
                                                                       : "statistical");
    Bench legacy(circuits::make_table1_circuit("c432"));
    const AreaRecoveryStats ref =
        detail::recover_area_reference(*legacy.ctx, options_for(criterion));
    EXPECT_GT(ref.downsizes, 0u);

    const RunResult ported =
        run_once(circuits::make_table1_circuit("c432"), options_for(criterion), 4);
    EXPECT_EQ(ported.sizes, legacy.nl.sizes());
    EXPECT_EQ(ported.stats.downsizes, ref.downsizes);
    EXPECT_EQ(ported.stats.screen_trials, ref.screen_trials);
    EXPECT_EQ(ported.stats.area_after_um2, ref.area_after_um2);
  }
}

// Rollback accounting audit (the chunk-rollback bugfix): a dsta screen under
// the statistical criterion ignores sigma entirely, so on the upsized
// balanced fabric — where every downsize fattens the output sigma — the
// accurate budgets fail and the chunk rolls back wholesale; stats must still
// match the committed netlist exactly.
TEST(AreaRecoveryRollback, ForcedRollbackKeepsStatsConsistentWithNetlist) {
  const auto run = [](std::size_t threads) {
    Bench b(parity_fabric(16), Headroom::kUniformBump);
    const auto before = b.nl.sizes();
    AreaRecoveryOptions opt = options_for(RecoveryCriterion::kStatisticalCost);
    opt.screen_engine = "dsta";   // blind to sigma: accepts what FULLSSTA rejects
    opt.tolerance = 0.05;         // the deterministic screen accepts freely...
    opt.sigma_tolerance = 0.001;  // ...and the exact sigma cap refuses
    opt.threads = threads;
    RunResult r;
    r.stats = recover_area(*b.ctx, opt);
    expect_stats_match_netlist(before, b.nl.sizes(), r.stats);
    r.sizes = b.nl.sizes();

    // Guard == report: the returned summary is exactly what a fresh run of
    // the confirm engine's model reports for the committed netlist.
    EXPECT_TRUE(r.stats.has_final_summary);
    const ssta::FullSstaResult fresh = ssta::run_fullssta(*b.ctx, opt.fullssta);
    EXPECT_EQ(r.stats.final_summary.mean_ps, fresh.mean_ps);
    EXPECT_EQ(r.stats.final_summary.sigma_ps, fresh.sigma_ps);
    return r;
  };

  const RunResult ref = run(1);
  // The scenario must actually exercise the rollback path.
  ASSERT_GT(ref.stats.chunk_rollbacks, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    expect_identical(ref, run(threads), threads);
  }
}

// Guard-vs-report consistency (the engine-option drift bugfix): recovery's
// exact budgets and its returned summary use the caller's FullSstaOptions,
// not the defaults — a non-default pdf resolution flows through both.
TEST(AreaRecoveryOptions, ExactBudgetsUseCallerFullSstaOptions) {
  Bench b(circuits::make_cla_adder(8));
  AreaRecoveryOptions opt = options_for(RecoveryCriterion::kStatisticalCost);
  opt.fullssta.samples_per_pdf = 9;
  const AreaRecoveryStats stats = recover_area(*b.ctx, opt);

  ASSERT_TRUE(stats.has_final_summary);
  EXPECT_EQ(stats.final_summary.output_pdf.size(), 9u);
  const ssta::FullSstaResult fresh = ssta::run_fullssta(*b.ctx, opt.fullssta);
  EXPECT_EQ(stats.final_summary.mean_ps, fresh.mean_ps);
  EXPECT_EQ(stats.final_summary.sigma_ps, fresh.sigma_ps);

  // And the reference loop agrees when handed the same options: the bugfix
  // is the plumbing, not a behaviour change.
  Bench twin(circuits::make_cla_adder(8));
  const AreaRecoveryStats ref = detail::recover_area_reference(*twin.ctx, opt);
  EXPECT_EQ(stats.downsizes, ref.downsizes);
  EXPECT_EQ(b.nl.sizes(), twin.nl.sizes());
}

TEST(AreaRecoveryOptions, RejectsUnknownOrIncapableEngines) {
  Bench b(circuits::make_cla_adder(4));
  AreaRecoveryOptions opt;
  opt.screen_engine = "no-such-engine";
  EXPECT_THROW((void)recover_area(*b.ctx, opt), std::invalid_argument);

  AreaRecoveryOptions stat = options_for(RecoveryCriterion::kStatisticalCost);
  stat.confirm_engine = "no-such-engine";
  EXPECT_THROW((void)recover_area(*b.ctx, stat), std::invalid_argument);
}

// Deterministic-criterion recovery never touches FULLSSTA: no summary, and
// the area drop is real.
TEST(AreaRecoveryOptions, DeterministicCriterionReportsNoSummary) {
  const RunResult r = run_once(circuits::make_cla_adder(8),
                               options_for(RecoveryCriterion::kDeterministicArrival), 1);
  EXPECT_FALSE(r.stats.has_final_summary);
  EXPECT_GT(r.stats.downsizes, 0u);
  EXPECT_LT(r.stats.area_after_um2, r.stats.area_before_um2);
}

}  // namespace
}  // namespace statsizer::opt
