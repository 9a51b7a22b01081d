// Cross-engine drift guard: on random generator circuits, Monte Carlo (the
// assumption-free golden reference), FULLSSTA (discrete-pdf, independence
// approximation at merges) and FASSTA (moment-only Clark propagation) must
// stay mutually consistent. Any engine regressing by a few percent trips
// these bounds.
//
// The MC-vs-FULLSSTA mean bound is the Monte-Carlo standard error
// (3 sigma / sqrt(samples)) plus an explicit bias budget: FULLSSTA's
// independence approximation *systematically* overestimates E[max] at
// reconvergent merges (shared subpaths correlate branch arrivals), so the
// gap does not shrink with more samples. At the mild variation used here
// the measured bias is 1-2% of the mean across seeds; the budget is 3%.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "fassta/engine.h"
#include "liberty/synthetic.h"
#include "ssta/fullssta.h"
#include "ssta/isle.h"
#include "ssta/monte_carlo.h"
#include "techmap/mapper.h"

namespace statsizer {
namespace {

struct EngineTriple {
  ssta::MonteCarloResult mc;
  ssta::FullSstaResult full;
  sta::NodeMoments fassta;
  std::size_t samples = 0;
};

EngineTriple run_engines(std::uint64_t seed) {
  circuits::RandomDagOptions ro;
  ro.seed = seed;
  netlist::Netlist nl = circuits::make_random_dag(ro);
  const liberty::Library lib = liberty::build_synthetic_90nm();
  // Mild variation: keeps the sampling truncation a deep-tail event so the
  // Gaussian machinery in FULLSSTA/FASSTA applies and only the genuine
  // independence-approximation bias separates the engines.
  variation::VariationParams vp;
  vp.proportional_coeff = 0.15;
  const variation::VariationModel var(vp);
  auto s = techmap::map_to_library(nl, lib);
  if (!s.ok()) throw std::logic_error(s.message());
  const sta::TimingContext ctx(nl, lib, var, sta::TimingOptions{});

  EngineTriple t;
  ssta::MonteCarloOptions mo;
  mo.samples = 2000;
  mo.seed = 1000 + seed;
  mo.threads = 0;  // exercise the parallel path; results are thread-invariant
  t.samples = mo.samples;
  t.mc = ssta::run_monte_carlo(ctx, mo);
  t.full = ssta::run_fullssta(ctx);
  const fassta::Engine engine(ctx);
  (void)engine.run(&t.fassta);
  return t;
}

TEST(CrossEngine, MonteCarloVsFullSstaMean) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EngineTriple t = run_engines(seed);
    const double standard_error = t.mc.sigma_ps / std::sqrt(double(t.samples));
    const double bias_budget = 0.03 * t.mc.mean_ps;
    EXPECT_LT(std::abs(t.mc.mean_ps - t.full.mean_ps), 3.0 * standard_error + bias_budget)
        << "seed=" << seed << " MC=" << t.mc.mean_ps << " FULL=" << t.full.mean_ps;
    // The bias has a known sign: independence can only overestimate the max.
    EXPECT_GE(t.full.mean_ps, t.mc.mean_ps * 0.99) << "seed=" << seed;
  }
}

TEST(CrossEngine, FullSstaVsMonteCarloSigma) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EngineTriple t = run_engines(seed);
    // Correlated branches make the true max fatter than independence
    // predicts: FULLSSTA sigma sits below MC sigma, but boundedly so.
    EXPECT_LE(t.full.sigma_ps, t.mc.sigma_ps * 1.05) << "seed=" << seed;
    EXPECT_GE(t.full.sigma_ps, t.mc.sigma_ps * 0.55) << "seed=" << seed;
  }
}

TEST(CrossEngine, FasstaTracksFullSsta) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EngineTriple t = run_engines(seed);
    // Paper section 4.3: the moment-only engine with the quadratic erf stays
    // within a few percent of the discrete-pdf engine.
    EXPECT_NEAR(t.fassta.mean_ps, t.full.mean_ps, 0.01 * t.full.mean_ps) << "seed=" << seed;
    const double ratio = t.fassta.sigma_ps / t.full.sigma_ps;
    EXPECT_GE(ratio, 0.95) << "seed=" << seed;
    EXPECT_LE(ratio, 1.05) << "seed=" << seed;
  }
}

TEST(CrossEngine, IsleYieldTracksMonteCarlo) {
  // Same-context drift guard for the importance-sampled yield engine: on the
  // five random DAGs, ISLE's yield at T = mean + 1.5 sigma must match the
  // empirical Monte-Carlo yield. Both samplers draw from the identical
  // truncated variation model, so the only budget beyond the two standard
  // errors is 0.01 for empirical-CDF discreteness at the threshold (ties and
  // finite-sample staircase), not a model-bias term.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    circuits::RandomDagOptions ro;
    ro.seed = seed;
    netlist::Netlist nl = circuits::make_random_dag(ro);
    const liberty::Library lib = liberty::build_synthetic_90nm();
    variation::VariationParams vp;
    vp.proportional_coeff = 0.15;
    const variation::VariationModel var(vp);
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    const sta::TimingContext ctx(nl, lib, var, sta::TimingOptions{});

    ssta::MonteCarloOptions mo;
    mo.samples = 2000;
    mo.seed = 1000 + seed;
    mo.threads = 0;
    const ssta::MonteCarloResult mc = ssta::run_monte_carlo(ctx, mo);

    const double period = mc.mean_ps + 1.5 * mc.sigma_ps;
    std::size_t pass = 0;
    for (const double d : mc.circuit_samples) pass += (d <= period) ? 1u : 0u;
    const double mc_yield = double(pass) / double(mo.samples);
    const double mc_se = std::sqrt(mc_yield * (1.0 - mc_yield) / double(mo.samples));

    ssta::IsleOptions io;
    io.samples = 1024;
    io.seed = 9000 + seed;
    io.threads = 0;
    io.clock_period_ps = period;
    const ssta::IsleResult isle = ssta::run_isle(ctx, io);

    ASSERT_FALSE(isle.degenerate) << "seed=" << seed;
    const double bound =
        3.0 * std::sqrt(isle.std_error * isle.std_error + mc_se * mc_se) + 0.01;
    EXPECT_LT(std::abs(isle.yield - mc_yield), bound)
        << "seed=" << seed << " isle=" << isle.yield << " mc=" << mc_yield;
    // The self-normalized weighted delay moments estimate the same delay
    // distribution: at these draw counts they sit within 0.07 sigma (mean)
    // and 5% (sigma) of Monte Carlo's on every seed.
    EXPECT_NEAR(isle.weighted_mean_ps, mc.mean_ps, 0.15 * mc.sigma_ps) << "seed=" << seed;
    EXPECT_NEAR(isle.weighted_sigma_ps, mc.sigma_ps, 0.15 * mc.sigma_ps) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace statsizer
