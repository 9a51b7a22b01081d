#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "ssta/canonical.h"
#include "ssta/fullssta.h"
#include "ssta/monte_carlo.h"
#include "techmap/mapper.h"
#include "util/numeric.h"

namespace statsizer::ssta {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, variation::VariationParams vp = {}) : nl(std::move(n)), var(vp) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

Netlist inverter_chain(unsigned length) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (unsigned i = 0; i < length; ++i) prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  return nl;
}

// ---------------------------------------------------------------------------
// FULLSSTA
// ---------------------------------------------------------------------------

TEST(FullSsta, ChainMomentsAreAnalytic) {
  // No max anywhere: mean = sum of arc delays, var = sum of arc variances.
  Bench b(inverter_chain(20));
  const FullSstaResult r = run_fullssta(*b.ctx);
  double mean = 0.0;
  double var = 0.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    mean += b.ctx->arc_delay_ps(id, 0);
    var += b.ctx->arc_sigma_ps(id, 0) * b.ctx->arc_sigma_ps(id, 0);
  }
  EXPECT_NEAR(r.mean_ps, mean, 1e-6 * mean);
  EXPECT_NEAR(r.sigma_ps, std::sqrt(var), 0.01 * std::sqrt(var));
}

TEST(FullSsta, NodeMomentsMonotoneAlongChain) {
  Bench b(inverter_chain(10));
  const FullSstaResult r = run_fullssta(*b.ctx);
  double prev = -1.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_GT(r.node[id].mean_ps, prev);
    prev = r.node[id].mean_ps;
  }
}

TEST(FullSsta, MatchesMonteCarloOnAdder) {
  Bench b(circuits::make_cla_adder(8));
  const FullSstaResult full = run_fullssta(*b.ctx);
  MonteCarloOptions mc_opt;
  mc_opt.samples = 20000;
  const MonteCarloResult mc = run_monte_carlo(*b.ctx, mc_opt);
  // The independence assumption at reconvergent merges cuts both ways:
  // E[max] is *over*-estimated a little (shared subpaths correlate branch
  // arrivals) and sigma is *under*-estimated (correlated branches make the
  // max fatter than independence predicts). Both effects stay bounded.
  EXPECT_NEAR(full.mean_ps, mc.mean_ps, 0.06 * mc.mean_ps);
  EXPECT_GE(full.mean_ps, mc.mean_ps * 0.98);
  EXPECT_LT(std::abs(full.sigma_ps - mc.sigma_ps), 0.45 * mc.sigma_ps);
  EXPECT_LE(full.sigma_ps, mc.sigma_ps * 1.1);
}

TEST(FullSsta, SampleCountStability) {
  Bench b(circuits::make_cla_adder(8));
  FullSstaOptions o10;
  o10.samples_per_pdf = 10;
  FullSstaOptions o15;
  o15.samples_per_pdf = 15;
  FullSstaOptions o25;
  o25.samples_per_pdf = 25;
  const auto r10 = run_fullssta(*b.ctx, o10);
  const auto r15 = run_fullssta(*b.ctx, o15);
  const auto r25 = run_fullssta(*b.ctx, o25);
  EXPECT_NEAR(r10.mean_ps, r25.mean_ps, 0.01 * r25.mean_ps);
  EXPECT_NEAR(r15.mean_ps, r25.mean_ps, 0.01 * r25.mean_ps);
  EXPECT_NEAR(r10.sigma_ps, r25.sigma_ps, 0.10 * r25.sigma_ps);
  EXPECT_NEAR(r15.sigma_ps, r25.sigma_ps, 0.06 * r25.sigma_ps);
}

TEST(FullSsta, OutputPdfIsADistribution) {
  Bench b(circuits::make_ripple_adder(4));
  const FullSstaResult r = run_fullssta(*b.ctx);
  const auto& pdf = r.output_pdf;
  double total = 0.0;
  for (std::size_t i = 0; i < pdf.size(); ++i) total += pdf.mass_at(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(pdf.mean(), r.mean_ps, 1e-9);
  EXPECT_NEAR(pdf.stddev(), r.sigma_ps, 1e-9);
  // Median is near the mean for these near-normal outputs.
  EXPECT_NEAR(pdf.quantile(0.5), r.mean_ps, 2.0 * r.sigma_ps);
}

// ---------------------------------------------------------------------------
// Monte Carlo
// ---------------------------------------------------------------------------

TEST(MonteCarlo, DeterministicForSeed) {
  Bench b(circuits::make_ripple_adder(4));
  MonteCarloOptions opt;
  opt.samples = 500;
  opt.seed = 77;
  const auto r1 = run_monte_carlo(*b.ctx, opt);
  const auto r2 = run_monte_carlo(*b.ctx, opt);
  EXPECT_DOUBLE_EQ(r1.mean_ps, r2.mean_ps);
  EXPECT_DOUBLE_EQ(r1.sigma_ps, r2.sigma_ps);
  EXPECT_EQ(r1.circuit_samples, r2.circuit_samples);
}

TEST(MonteCarlo, PerNodeStats) {
  Bench b(inverter_chain(5));
  MonteCarloOptions opt;
  opt.samples = 4000;
  opt.per_node_stats = true;
  const auto r = run_monte_carlo(*b.ctx, opt);
  ASSERT_EQ(r.node.size(), b.nl.node_count());
  // The chain's last gate matches the circuit moments.
  const GateId last = b.nl.outputs()[0].driver;
  EXPECT_NEAR(r.node[last].mean_ps, r.mean_ps, 1e-9);
  EXPECT_NEAR(r.node[last].sigma_ps, r.sigma_ps, 1e-9);
}

TEST(MonteCarlo, SampleVectorQuantiles) {
  Bench b(circuits::make_ripple_adder(4));
  MonteCarloOptions opt;
  opt.samples = 8000;
  const auto r = run_monte_carlo(*b.ctx, opt);
  ASSERT_EQ(r.circuit_samples.size(), opt.samples);
  const double q50 = util::quantile_of(r.circuit_samples, 0.5);
  const double q99 = util::quantile_of(r.circuit_samples, 0.99);
  EXPECT_GT(q99, q50);
  EXPECT_NEAR(q50, r.mean_ps, r.sigma_ps);
}

// ---------------------------------------------------------------------------
// canonical (correlation-aware) SSTA
// ---------------------------------------------------------------------------

TEST(Canonical, FormAlgebra) {
  const CanonicalForm a{10.0, 2.0, 1.0};
  const CanonicalForm b{5.0, 1.0, 2.0};
  const CanonicalForm s = canonical_sum(a, b);
  EXPECT_DOUBLE_EQ(s.nominal_ps, 15.0);
  EXPECT_DOUBLE_EQ(s.global_coeff, 3.0);
  EXPECT_NEAR(s.independent_ps, std::sqrt(5.0), 1e-12);
  EXPECT_NEAR(s.sigma_ps(), std::sqrt(9.0 + 5.0), 1e-12);
}

TEST(Canonical, MaxOfDominant) {
  const CanonicalForm a{100.0, 2.0, 1.0};
  const CanonicalForm b{10.0, 1.0, 1.0};
  const CanonicalForm m = canonical_max(a, b);
  EXPECT_NEAR(m.nominal_ps, 100.0, 0.01);
  EXPECT_NEAR(m.global_coeff, 2.0, 0.01);
}

TEST(Canonical, IndependentCaseMatchesFullSsta) {
  // With global_fraction = 0 the canonical engine degenerates to
  // independence; its moments should track FULLSSTA closely.
  Bench b(circuits::make_cla_adder(8));
  const CanonicalResult can = run_canonical(*b.ctx);
  const FullSstaResult full = run_fullssta(*b.ctx);
  EXPECT_NEAR(can.mean_ps, full.mean_ps, 0.02 * full.mean_ps);
  EXPECT_NEAR(can.sigma_ps, full.sigma_ps, 0.30 * full.sigma_ps);
}

TEST(Canonical, TracksCorrelatedMonteCarlo) {
  // With a strong global component, independence-based engines underestimate
  // sigma badly; the canonical engine must not.
  variation::VariationParams vp;
  vp.global_fraction = 0.7;
  Bench b(circuits::make_cla_adder(8), vp);

  const CanonicalResult can = run_canonical(*b.ctx);
  MonteCarloOptions mc_opt;
  mc_opt.samples = 20000;
  const MonteCarloResult mc = run_monte_carlo(*b.ctx, mc_opt);
  const FullSstaResult independent = run_fullssta(*b.ctx);

  // Tolerance = the engine's systematic gap plus sampling noise: against a
  // 400k-sample reference the canonical mean sits ~2.8% above MC on this
  // workload (truncated sampling vs Gaussian algebra), and at 20k samples
  // the MC mean estimate itself moves by up to ~1.2% (3 standard errors;
  // sigma/mu is ~0.55 here).
  EXPECT_NEAR(can.mean_ps, mc.mean_ps, 0.04 * mc.mean_ps);
  EXPECT_NEAR(can.sigma_ps, mc.sigma_ps, 0.25 * mc.sigma_ps);
  // And it must be closer to MC sigma than the independent engine is.
  EXPECT_LT(std::abs(can.sigma_ps - mc.sigma_ps),
            std::abs(independent.sigma_ps - mc.sigma_ps));
}

TEST(Canonical, GlobalCoeffGrowsAlongPath) {
  variation::VariationParams vp;
  vp.global_fraction = 0.5;
  Bench b(inverter_chain(10), vp);
  const CanonicalResult r = run_canonical(*b.ctx);
  double prev = -1.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_GT(r.node[id].global_coeff, prev);
    prev = r.node[id].global_coeff;
  }
}

// Canonical SSTA reads only the timing snapshot: a context resized and
// updated in place and a twin built at those sizes give the same forms bit
// for bit, and runs on one shared context from several threads agree with a
// serial run.
TEST(Canonical, IsAPureFunctionOfTheSnapshot) {
  Bench b(circuits::make_cla_adder(8));
  Bench twin(circuits::make_cla_adder(8));
  std::size_t resized = 0;
  for (GateId g = 0; g < b.nl.node_count() && resized < 5; ++g) {
    if (!b.ctx->has_cell(g)) continue;
    const auto& group = b.lib.group(b.nl.gate(g).cell_group);
    if (group.size_count() < 2) continue;
    const auto size = static_cast<std::uint16_t>((b.nl.gate(g).size_index + 1) % group.size_count());
    b.nl.gate(g).size_index = size;
    twin.nl.gate(g).size_index = size;
    ++resized;
  }
  ASSERT_EQ(resized, 5u);
  b.ctx->update();
  twin.ctx->update();

  const auto expect_same = [](const CanonicalResult& x, const CanonicalResult& y) {
    EXPECT_EQ(x.mean_ps, y.mean_ps);
    EXPECT_EQ(x.sigma_ps, y.sigma_ps);
    ASSERT_EQ(x.node.size(), y.node.size());
    for (std::size_t i = 0; i < x.node.size(); ++i) {
      EXPECT_EQ(x.node[i].nominal_ps, y.node[i].nominal_ps) << "node " << i;
      EXPECT_EQ(x.node[i].global_coeff, y.node[i].global_coeff) << "node " << i;
      EXPECT_EQ(x.node[i].independent_ps, y.node[i].independent_ps) << "node " << i;
    }
  };
  const CanonicalResult reference = run_canonical(*b.ctx);
  EXPECT_GT(reference.mean_ps, 0.0);
  EXPECT_GT(reference.sigma_ps, 0.0);
  expect_same(run_canonical(*twin.ctx), reference);

  std::vector<CanonicalResult> concurrent(4);
  std::vector<std::thread> workers;
  for (CanonicalResult& r : concurrent) {
    workers.emplace_back([&r, &b] { r = run_canonical(*b.ctx); });
  }
  for (std::thread& t : workers) t.join();
  for (const CanonicalResult& r : concurrent) expect_same(r, reference);
}

}  // namespace
}  // namespace statsizer::ssta
