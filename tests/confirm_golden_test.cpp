// Cross-commit golden pins for the optimizer's exact confirmations. The
// identity suites (sizer_parallel_test, area_recovery_parallel_test,
// flow_threading_test) compare thread counts within one build, so a decision
// that moves between commits passes them all. These pins hold, bit for bit,
// what StatisticalGreedy, area recovery and Flow::optimize computed when
// they were recorded: final sizes, every stats field, the resize trajectory
// and the flow's sigma/area change. Each run folds its results into one
// FNV-1a digest over the exact bit patterns; the counters are pinned
// alongside so a moved pin says where it moved.
//
// The runs together reach every MoveSource and at least one chunk rollback,
// so every caller of the confirmation walk is pinned. A deliberate change of
// decisions re-pins here and says why in CHANGES.md.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "core/flow.h"
#include "liberty/synthetic.h"
#include "opt/area_recovery.h"
#include "opt/initial_sizing.h"
#include "opt/sizer_deterministic.h"
#include "opt/sizer_statistical.h"
#include "techmap/mapper.h"

namespace statsizer::opt {
namespace {

using netlist::GateId;
using netlist::Netlist;

/// FNV-1a over 64-bit words, byte by byte.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<std::uint16_t>& sizes) {
    add(std::uint64_t{sizes.size()});
    for (const std::uint16_t s : sizes) add(std::uint64_t{s});
  }
  void add(const CircuitStats& s) {
    add(s.mean_ps);
    add(s.sigma_ps);
    add(s.area_um2);
  }
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
    (void)apply_initial_sizing(*ctx);
  }
};

/// Wide balanced XOR fabric (mirrors sizer_parallel_test): per-gate greedy
/// stalls, so the sizer falls through to its sweeps and population bumps.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

Netlist circuit(const std::string& name) {
  if (name == "cla8") return circuits::make_cla_adder(8);
  if (name == "parity16") return parity_fabric(16);
  if (name == "parity32") return parity_fabric(32);
  return circuits::make_table1_circuit(name);
}

// ---------------------------------------------------------------------------
// size_statistically
// ---------------------------------------------------------------------------

struct SizerPin {
  const char* circuit;
  double lambda;
  std::size_t iterations;
  std::size_t resizes;
  std::size_t exact_resizes;
  std::size_t global_sweeps;
  std::size_t uniform_bump_rounds;
  std::size_t trajectory_events;
  std::uint64_t digest;  ///< sizes, trajectory and every stats field
};

constexpr SizerPin kSizerPins[] = {
    {"cla8", 3.0, 40, 184, 52, 4, 1, 184, 0x7de34d7d5cffb0edULL},
    {"cla8", 9.0, 47, 204, 51, 4, 1, 204, 0x4f76a58a10ffd623ULL},
    {"parity16", 3.0, 28, 45, 0, 1, 1, 45, 0xeaa481ceb3b87731ULL},
    {"parity16", 9.0, 22, 50, 0, 1, 1, 50, 0x243e9d8344e72b6aULL},
    {"c432", 3.0, 120, 457, 65, 1, 0, 457, 0xaf6e9e34f5c60fedULL},
    {"c432", 9.0, 120, 549, 47, 0, 0, 549, 0xd19ddb9a46f4fd13ULL},
    // A sigma weight high enough that whole-population bumps pay off.
    {"parity32", 60.0, 49, 123, 24, 4, 3, 123, 0x3260026bcaef1d26ULL},
};

TEST(ConfirmGolden, SizerRunsMatchTheirPins) {
  std::set<MoveSource> sources;
  for (const SizerPin& pin : kSizerPins) {
    SCOPED_TRACE(std::string(pin.circuit) + " lambda=" + std::to_string(pin.lambda));
    Bench b(circuit(pin.circuit));
    StatisticalSizerOptions opt;
    opt.objective.lambda = pin.lambda;
    opt.threads = 3;  // odd windows: the walk cuts its lists mid-window
    opt.record_trajectory = true;
    const StatisticalSizerStats stats = size_statistically(*b.ctx, opt);

    Digest d;
    d.add(b.nl.sizes());
    for (const ResizeEvent& e : stats.trajectory) {
      d.add(std::uint64_t{e.iteration});
      d.add(std::uint64_t{e.gate});
      d.add(std::uint64_t{e.from_size});
      d.add(std::uint64_t{e.to_size});
      d.add(std::uint64_t{static_cast<std::uint8_t>(e.source)});
      sources.insert(e.source);
    }
    for (const std::size_t n :
         {stats.iterations, stats.resizes, stats.fassta_evaluations, stats.exact_resizes,
          stats.global_sweeps, stats.uniform_bump_rounds, std::size_t{stats.constraints_met}}) {
      d.add(std::uint64_t{n});
    }
    d.add(stats.initial);
    d.add(stats.final_);

    EXPECT_EQ(stats.iterations, pin.iterations);
    EXPECT_EQ(stats.resizes, pin.resizes);
    EXPECT_EQ(stats.exact_resizes, pin.exact_resizes);
    EXPECT_EQ(stats.global_sweeps, pin.global_sweeps);
    EXPECT_EQ(stats.uniform_bump_rounds, pin.uniform_bump_rounds);
    EXPECT_EQ(stats.trajectory.size(), pin.trajectory_events);
    EXPECT_EQ(hex(d.h), hex(pin.digest));
  }
  // Every move source confirmed at least one move somewhere in the pins.
  for (const MoveSource s : {MoveSource::kPlan, MoveSource::kSingle, MoveSource::kExactFallback,
                             MoveSource::kGlobalSweep, MoveSource::kUniformBump}) {
    EXPECT_TRUE(sources.count(s) == 1) << "no pinned run reaches MoveSource "
                                       << static_cast<int>(s);
  }
}

// ---------------------------------------------------------------------------
// recover_area
// ---------------------------------------------------------------------------

struct RecoveryPin {
  const char* name;
  std::size_t downsizes;
  std::size_t screen_trials;
  std::size_t exact_verifications;
  std::size_t chunk_rollbacks;
  std::uint64_t digest;  ///< sizes, areas, stats and final summary
};

/// c432 after initial sizing and TILOS, both criteria; and the forced
/// rollback of area_recovery_parallel_test (a sigma-blind dsta screen on an
/// upsized parity fabric under a tight exact sigma cap).
constexpr RecoveryPin kRecoveryPins[] = {
    {"c432_deterministic", 48, 92, 0, 0, 0x808385e91432717aULL},
    {"c432_statistical", 27, 121, 3, 0, 0xa150f8625e0628afULL},
    {"parity16_forced_rollback", 0, 27, 1, 1, 0x7097a4091363645bULL},
};

AreaRecoveryStats run_recovery(const std::string& name, Bench& b) {
  AreaRecoveryOptions opt;
  opt.objective.lambda = 3.0;
  opt.threads = 3;
  if (name == "parity16_forced_rollback") {
    for (GateId g = 0; g < b.nl.node_count(); ++g) {
      if (!b.ctx->has_cell(g)) continue;
      const auto& group = b.lib.group(b.nl.gate(g).cell_group);
      b.nl.gate(g).size_index = static_cast<std::uint16_t>(
          std::min<std::size_t>(group.size_count() - 1, b.nl.gate(g).size_index + 3u));
    }
    b.ctx->update();
    opt.criterion = RecoveryCriterion::kStatisticalCost;
    opt.screen_engine = "dsta";
    opt.tolerance = 0.05;
    opt.sigma_tolerance = 0.001;
  } else {
    (void)size_for_mean_delay(*b.ctx);
    opt.criterion = name == "c432_statistical" ? RecoveryCriterion::kStatisticalCost
                                               : RecoveryCriterion::kDeterministicArrival;
  }
  return recover_area(*b.ctx, opt);
}

TEST(ConfirmGolden, RecoveryRunsMatchTheirPins) {
  std::size_t rollbacks = 0;
  for (const RecoveryPin& pin : kRecoveryPins) {
    SCOPED_TRACE(pin.name);
    const std::string name = pin.name;
    Bench b(circuit(name.rfind("parity16", 0) == 0 ? "parity16" : "c432"));
    const AreaRecoveryStats stats = run_recovery(name, b);

    Digest d;
    d.add(b.nl.sizes());
    for (const std::size_t n : {stats.downsizes, stats.screen_trials, stats.exact_verifications,
                                stats.chunk_rollbacks, std::size_t{stats.has_final_summary}}) {
      d.add(std::uint64_t{n});
    }
    d.add(stats.area_before_um2);
    d.add(stats.area_after_um2);
    d.add(stats.final_summary.mean_ps);
    d.add(stats.final_summary.sigma_ps);

    EXPECT_EQ(stats.downsizes, pin.downsizes);
    EXPECT_EQ(stats.screen_trials, pin.screen_trials);
    EXPECT_EQ(stats.exact_verifications, pin.exact_verifications);
    EXPECT_EQ(stats.chunk_rollbacks, pin.chunk_rollbacks);
    EXPECT_EQ(hex(d.h), hex(pin.digest));
    rollbacks += stats.chunk_rollbacks;
  }
  EXPECT_GT(rollbacks, 0u) << "no pinned run reaches a chunk rollback";
}

// ---------------------------------------------------------------------------
// Flow::optimize
// ---------------------------------------------------------------------------

TEST(ConfirmGolden, FlowOptimizeOnC432MatchesItsPin) {
  core::Flow flow;
  const Status loaded = flow.load_table1("c432");
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  (void)flow.run_baseline();
  const core::OptimizationRecord rec = flow.optimize(9.0);
  EXPECT_EQ(hex(std::bit_cast<std::uint64_t>(rec.sigma_change)), hex(0xbfe569f3f802141bULL));
  EXPECT_EQ(hex(std::bit_cast<std::uint64_t>(rec.area_change)), hex(0x3fea155555555540ULL));
  EXPECT_EQ(hex(std::bit_cast<std::uint64_t>(rec.mean_change)), hex(0xbfc83845a1b932bcULL));
  EXPECT_EQ(rec.iterations, 120u);
  EXPECT_EQ(rec.resizes, 508u);
}

}  // namespace
}  // namespace statsizer::opt
