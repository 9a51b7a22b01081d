// Wavefront propagation pins (ISSUE 5): TimingContext::update() and
// ssta::run_fullssta must be bitwise-identical across thread counts
// {1, 2, 8, 0} AND bitwise-identical to the pre-PR serial implementations,
// on cla_adder(8), parity_fabric(16), c432, and c880. The "pre-PR serial
// implementation" is reproduced here from first principles through the
// public API only (the same NLDM lookups, the same accumulation orders), so
// a regression in either the serial path or the wavefront path fails
// loudly. The what-if cone replay (the third wavefront kernel) is pinned
// through parallel-context FULLSSTA, FASSTA and DSTA speculations against
// serial-context references.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "liberty/synthetic.h"
#include "netlist/topo.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "sta/graph.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"

namespace statsizer {
namespace {

using netlist::GateId;
using netlist::Netlist;
using pdf::DiscretePdf;

/// Wide balanced XOR fabric (mirrors sizer_parallel_test): wide levels,
/// thousands of near-identical paths — the case the wavefront fans widest.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

Netlist circuit_for(int kind) {
  switch (kind) {
    case 0: return circuits::make_cla_adder(8);
    case 1: return parity_fabric(16);
    case 2: return circuits::make_table1_circuit("c432");
    default: return circuits::make_table1_circuit("c880");
  }
}

const char* circuit_name(int kind) {
  switch (kind) {
    case 0: return "cla_adder8";
    case 1: return "parity_fabric16";
    case 2: return "c432";
    default: return "c880";
  }
}

/// Mapped circuit + context under explicit TimingOptions. A deterministic
/// size staircase (gate id mod the group's size count) gives every run the
/// same non-trivial mix of loads and slews without an optimizer pass.
struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, sta::TimingOptions topt = {}) : nl(std::move(n)) {
    const Status s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    for (GateId g = 0; g < nl.node_count(); ++g) {
      auto& gate = nl.gate(g);
      if (gate.cell_group == netlist::kUnmapped) continue;
      const auto& group = lib.group(gate.cell_group);
      gate.size_index = static_cast<std::uint16_t>(g % group.size_count());
    }
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, topt);
  }
};

// ---------------------------------------------------------------------------
// The pre-PR serial reference, reproduced through the public API.
// ---------------------------------------------------------------------------

struct RefSnapshot {
  std::vector<double> load;
  std::vector<double> slew;
  std::vector<double> arc_delay;  ///< flattened in (gate, arc) order
  std::vector<double> arc_sigma;
  double area_um2 = 0.0;
};

/// Mirrors the pre-wavefront TimingContext::update() operation for
/// operation: one id-ordered pass accumulating loads (and the area), then
/// the Kahn-ordered slew/arc sweep.
RefSnapshot reference_update(const Netlist& nl, const liberty::Library& lib,
                             const sta::TimingContext& ctx) {
  const sta::TimingOptions& opt = ctx.options();
  const std::size_t n = nl.node_count();
  RefSnapshot ref;
  ref.load.assign(n, 0.0);
  ref.slew.assign(n, opt.primary_input_slew_ps);

  for (GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    if (g.po_count > 0) ref.load[id] += opt.primary_output_load_ff * g.po_count;
    if (g.cell_group == netlist::kUnmapped) continue;
    const liberty::Cell& c = lib.cell_for(g.cell_group, g.size_index);
    ref.area_um2 += c.area_um2;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      ref.load[g.fanins[i]] += c.input_cap_ff(i);
    }
  }

  std::vector<std::vector<double>> delay(n), sigma(n);
  for (const GateId id : netlist::topological_order(nl)) {
    const auto& g = nl.gate(id);
    delay[id].assign(g.fanins.size(), 0.0);
    sigma[id].assign(g.fanins.size(), 0.0);
    if (g.cell_group == netlist::kUnmapped) continue;
    const liberty::Cell& c = lib.cell_for(g.cell_group, g.size_index);
    const double load = ref.load[id];
    double out_slew = 0.0;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const liberty::TimingArc& arc = c.arc_from(i);
      const double in_slew = ref.slew[g.fanins[i]];
      const double d = arc.delay(in_slew, load);
      delay[id][i] = d;
      sigma[id][i] = ctx.sigma_for(c, d);
      out_slew = std::max(out_slew, arc.output_slew(in_slew, load));
    }
    ref.slew[id] = out_slew;
  }
  for (GateId id = 0; id < n; ++id) {
    ref.arc_delay.insert(ref.arc_delay.end(), delay[id].begin(), delay[id].end());
    ref.arc_sigma.insert(ref.arc_sigma.end(), sigma[id].begin(), sigma[id].end());
  }
  return ref;
}

/// Mirrors the pre-wavefront ssta::run_fullssta: the serial topo-order pdf
/// propagation and the output-order RV_O max fold.
ssta::FullSstaResult reference_fullssta(const sta::TimingContext& ctx,
                                        const ssta::FullSstaOptions& options) {
  const auto& nl = ctx.netlist();
  const std::size_t samples = options.samples_per_pdf;

  ssta::FullSstaResult result;
  result.node.assign(nl.node_count(), sta::NodeMoments{});
  std::vector<DiscretePdf> arrival(nl.node_count(), DiscretePdf::point(0.0));
  for (const GateId id : netlist::topological_order(nl)) {
    const auto& g = nl.gate(id);
    if (g.fanins.empty()) continue;
    DiscretePdf acc;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const DiscretePdf delay = DiscretePdf::normal(
          ctx.arc_delay_ps(id, i), ctx.arc_sigma_ps(id, i), samples, options.span_sigmas);
      const DiscretePdf through = pdf::sum(arrival[g.fanins[i]], delay, samples);
      acc = (i == 0) ? through : pdf::max(acc, through, samples);
    }
    result.node[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
    arrival[id] = std::move(acc);
  }
  DiscretePdf out = DiscretePdf::point(0.0);
  bool first = true;
  for (const auto& po : nl.outputs()) {
    out = first ? arrival[po.driver] : pdf::max(out, arrival[po.driver], samples);
    first = false;
  }
  result.output_pdf = std::move(out);
  result.mean_ps = result.output_pdf.mean();
  result.sigma_ps = result.output_pdf.stddev();
  if (options.keep_node_pdfs) result.node_pdf = std::move(arrival);
  return result;
}

// EXPECT_EQ on doubles throughout: the contract is exact bitwise identity,
// not ULP closeness.

void expect_snapshot_equals_reference(const sta::TimingContext& ctx, const RefSnapshot& ref) {
  const auto& nl = ctx.netlist();
  EXPECT_EQ(ctx.area_um2(), ref.area_um2);
  for (GateId id = 0; id < nl.node_count(); ++id) {
    EXPECT_EQ(ctx.load_ff(id), ref.load[id]) << "load of node " << id;
    EXPECT_EQ(ctx.slew_ps(id), ref.slew[id]) << "slew of node " << id;
    for (std::size_t i = 0; i < nl.gate(id).fanins.size(); ++i) {
      EXPECT_EQ(ctx.arc_delay_ps(id, i), ref.arc_delay[ctx.arc_offset(id) + i])
          << "arc delay (" << id << ", " << i << ")";
      EXPECT_EQ(ctx.arc_sigma_ps(id, i), ref.arc_sigma[ctx.arc_offset(id) + i])
          << "arc sigma (" << id << ", " << i << ")";
    }
  }
}

void expect_pdf_eq(const DiscretePdf& a, const DiscretePdf& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.origin(), b.origin());
  EXPECT_EQ(a.step(), b.step());
  EXPECT_EQ(a.masses(), b.masses());
}

void expect_fullssta_eq(const ssta::FullSstaResult& a, const ssta::FullSstaResult& b) {
  EXPECT_EQ(a.mean_ps, b.mean_ps);
  EXPECT_EQ(a.sigma_ps, b.sigma_ps);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].mean_ps, b.node[i].mean_ps) << "node " << i;
    EXPECT_EQ(a.node[i].sigma_ps, b.node[i].sigma_ps) << "node " << i;
  }
  expect_pdf_eq(a.output_pdf, b.output_pdf);
  ASSERT_EQ(a.node_pdf.size(), b.node_pdf.size());
  for (std::size_t i = 0; i < a.node_pdf.size(); ++i) {
    expect_pdf_eq(a.node_pdf[i], b.node_pdf[i]);
  }
}

class LevelizedUpdate : public ::testing::TestWithParam<int> {};

TEST_P(LevelizedUpdate, UpdateMatchesPrePrSerialReferenceAcrossThreadCounts) {
  const Bench serial(circuit_for(GetParam()));
  const RefSnapshot ref = reference_update(serial.nl, serial.lib, *serial.ctx);
  expect_snapshot_equals_reference(*serial.ctx, ref);

  for (const std::size_t threads : {2u, 8u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sta::TimingOptions topt;
    topt.threads = threads;
    const Bench parallel(circuit_for(GetParam()), topt);
    expect_snapshot_equals_reference(*parallel.ctx, ref);
  }
}

TEST_P(LevelizedUpdate, ForcedWavefrontAndSerialFallbackMatch) {
  const Bench serial(circuit_for(GetParam()));
  const RefSnapshot ref = reference_update(serial.nl, serial.lib, *serial.ctx);

  // Cutoff 1: every level pays the wavefront dispatch, even single-gate ones.
  sta::TimingOptions forced;
  forced.threads = 8;
  forced.min_level_width_for_parallel = 1;
  const Bench wavefront(circuit_for(GetParam()), forced);
  expect_snapshot_equals_reference(*wavefront.ctx, ref);

  // Cutoff huge: threads > 1 but every level falls back to the serial loop
  // (the tiny-circuit guard).
  sta::TimingOptions guarded;
  guarded.threads = 8;
  guarded.min_level_width_for_parallel = SIZE_MAX;
  const Bench fallback(circuit_for(GetParam()), guarded);
  expect_snapshot_equals_reference(*fallback.ctx, ref);
}

TEST_P(LevelizedUpdate, FullSstaMatchesPrePrSerialReferenceAcrossThreadCounts) {
  const Bench b(circuit_for(GetParam()));
  ssta::FullSstaOptions opt;
  opt.keep_node_pdfs = true;
  const ssta::FullSstaResult ref = reference_fullssta(*b.ctx, opt);

  for (const std::size_t threads : {1u, 2u, 8u, 0u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ssta::FullSstaOptions topt = opt;
    topt.threads = threads;
    expect_fullssta_eq(ssta::run_fullssta(*b.ctx, topt), ref);
  }

  // Forced wavefront on a context whose cutoff admits every level.
  sta::TimingOptions forced;
  forced.min_level_width_for_parallel = 1;
  const Bench wide(circuit_for(GetParam()), forced);
  ssta::FullSstaOptions topt = opt;
  topt.threads = 8;
  expect_fullssta_eq(ssta::run_fullssta(*wide.ctx, topt), ref);
}

TEST_P(LevelizedUpdate, ContextCachesAValidLevelization) {
  const Bench b(circuit_for(GetParam()));
  const netlist::Levelization& lv = b.ctx->levelization();
  EXPECT_TRUE(lv.valid_for(b.nl));
  const netlist::Levelization fresh = netlist::levelize(b.nl);
  EXPECT_EQ(lv.level_of, fresh.level_of);
  EXPECT_EQ(lv.level_offset, fresh.level_offset);
  EXPECT_EQ(lv.order_by_level, fresh.order_by_level);
}

INSTANTIATE_TEST_SUITE_P(Circuits, LevelizedUpdate, ::testing::Values(0, 1, 2, 3),
                         [](const auto& info) { return circuit_name(info.param); });

// The context's derived structure (topo order, levelization, load-term
// lists) is frozen at construction; a structural edit afterwards must make
// update() fail loudly instead of folding stale term lists silently.
TEST(LevelizedUpdate, UpdateThrowsAfterStructuralNetlistEdit) {
  Bench b(circuits::make_cla_adder(8));
  b.ctx->update();  // still structurally valid: fine
  b.nl.add_output("late_po", b.nl.outputs()[0].driver);
  EXPECT_THROW(b.ctx->update(), std::logic_error);
}

// The third wavefront kernel: the what-if cone replay (timing/cone.cpp), run
// by every exact cone speculation, plus the FULLSSTA analyzer's pdf half. A
// multi-resize speculation scored on a parallel-everything configuration
// must match the all-serial one bitwise — score AND committed base — for
// each engine whose cone replay runs on the shared sweep.
class LevelizedWhatIf : public ::testing::TestWithParam<std::string> {};

TEST_P(LevelizedWhatIf, ParallelConeReplayMatchesSerial) {
  const std::string engine = GetParam();
  const auto run = [&engine](std::size_t threads) {
    sta::TimingOptions topt;
    topt.threads = threads;
    topt.min_level_width_for_parallel = threads == 1 ? 16 : 1;
    Bench b(circuits::make_cla_adder(8), topt);

    timing::AnalyzerOptions aopt;
    aopt.fullssta.threads = threads;
    const auto analyzer = timing::make_analyzer(engine, aopt);
    (void)analyzer->analyze(*b.ctx);

    // A deterministic multi-resize wave: bump the first 6 mapped gates.
    std::vector<timing::Resize> wave;
    for (GateId g = 0; g < b.nl.node_count() && wave.size() < 6; ++g) {
      if (!b.ctx->has_cell(g)) continue;
      const auto& group = b.lib.group(b.nl.gate(g).cell_group);
      const std::uint16_t next = static_cast<std::uint16_t>(
          (b.nl.gate(g).size_index + 1) % group.size_count());
      wave.push_back(timing::Resize{g, next});
    }
    auto spec = analyzer->propose_resizes(wave);
    const double score_mean = spec->score().mean_ps;
    const double score_sigma = spec->score().sigma_ps;
    spec->commit();
    const timing::Summary& base = analyzer->current();
    return std::tuple(score_mean, score_sigma, base.mean_ps, base.sigma_ps, b.nl.sizes());
  };

  const auto ref = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run(threads), ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, LevelizedWhatIf,
                         ::testing::Values("fullssta", "fassta", "dsta"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace statsizer