// Statistical-estimator harness for the ISLE importance-sampling yield
// backend (ssta/isle.h). The estimator is pinned four ways:
//
//   * unbiasedness against a circuit whose yield is known *analytically* — a
//     pure inverter chain has a single path, so its delay is exactly the sum
//     of the sampled arc delays: Normal with mean sum(d_g) and variance
//     (sum shared_g)^2 + sum(local_g^2 + floor^2), including the global
//     process variable's cross-gate correlation;
//   * agreement with large-sample plain Monte Carlo on the Table-1
//     c432/c880/mesh8 workloads across several clock constraints
//     T = mean + lambda * sigma (the mesh8 point through an installed SDC
//     clock, exercising the constraint-resolution path);
//   * the determinism contract: bitwise thread-count invariance of the
//     estimate, the per-draw weights, and every diagnostic for threads
//     {1, 2, 8, 0}, exact seed reproducibility, and — in kNominal mode —
//     per-draw circuit delays bitwise-equal to run_monte_carlo;
//   * the draws-to-CI claim: at a deep-tail constraint the adaptive loop
//     reaches a target standard error in >= 10x fewer draws than plain
//     Monte Carlo needs analytically (p(1-p) / se^2).
//
// Tolerances are 3 * standard error plus a small explicit budget where two
// estimators share a systematic (sampling truncation, empirical-CDF
// discreteness); the budgets are documented at each site.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "core/flow.h"
#include "liberty/synthetic.h"
#include "ssta/isle.h"
#include "ssta/monte_carlo.h"
#include "techmap/mapper.h"
#include "util/numeric.h"
#include "variation/model.h"

namespace statsizer {
namespace {

/// Fraction of MC circuit samples meeting the period, plus its binomial SE.
struct EmpiricalYield {
  double yield = 0.0;
  double std_error = 0.0;
};

EmpiricalYield empirical_yield(const std::vector<double>& samples, double period_ps) {
  std::size_t pass = 0;
  for (const double d : samples) pass += (d <= period_ps) ? 1u : 0u;
  EmpiricalYield y;
  y.yield = double(pass) / double(samples.size());
  y.std_error = std::sqrt(std::max(y.yield * (1.0 - y.yield), 1e-12) / double(samples.size()));
  return y;
}

double combined_3se(double se_a, double se_b) {
  return 3.0 * std::sqrt(se_a * se_a + se_b * se_b);
}

// ---------------------------------------------------------------------------
// Analytic pin: single-path chain circuit.
// ---------------------------------------------------------------------------

struct ChainBench {
  netlist::Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;

  explicit ChainBench(unsigned length) {
    circuits::Builder b("chain" + std::to_string(length));
    netlist::GateId g = b.input("x");
    for (unsigned i = 0; i < length; ++i) g = b.not_(g);
    b.output("y", g);
    nl = b.take();

    // Mild variation so the sampling truncation at kMinDelayFraction is a
    // deep-tail event and the chain delay is Normal to high accuracy; a
    // nonzero global fraction so the analytic variance must account for the
    // cross-gate correlation of the shared process variable.
    variation::VariationParams vp;
    vp.proportional_coeff = 0.15;
    vp.global_fraction = 0.3;
    var = variation::VariationModel(vp);

    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});

    // Exact single-path moments: delay = sum_g sample_g with
    // sample_g = d_g + shared_g * Z + local_g * Z1_g + floor * Z2_g.
    const double gf = vp.global_fraction;
    double shared_sum = 0.0;
    double independent_var = 0.0;
    for (netlist::GateId id = 0; id < nl.node_count(); ++id) {
      if (nl.gate(id).fanins.empty()) continue;  // primary input
      const double d = ctx->arc_delay_ps(id, 0);
      const double sys = var.systematic_sigma_ps(d, ctx->drive(id));
      shared_sum += std::sqrt(gf) * sys;
      const double local = std::sqrt(1.0 - gf) * sys;
      independent_var += local * local + var.random_sigma_ps() * var.random_sigma_ps();
      mean_ps += d;
    }
    sigma_ps = std::sqrt(shared_sum * shared_sum + independent_var);
  }
};

TEST(IsleYield, MatchesAnalyticChainYieldAcrossLambdas) {
  const ChainBench b(32);
  ASSERT_GT(b.sigma_ps, 0.0);

  for (const double lambda : {0.5, 1.5, 2.5}) {
    ssta::IsleOptions opt;
    opt.samples = 4096;
    opt.seed = 20260808;
    opt.threads = 0;  // exercise the sharded path; results are thread-invariant
    opt.clock_period_ps = b.mean_ps + lambda * b.sigma_ps;
    const ssta::IsleResult r = ssta::run_isle(*b.ctx, opt);

    const double analytic = util::normal_cdf(lambda);
    ASSERT_FALSE(r.degenerate) << "lambda=" << lambda;
    EXPECT_EQ(r.draws, opt.samples);
    EXPECT_GT(r.std_error, 0.0);
    // 1e-3 budget: the truncation at kMinDelayFraction (a >5-sigma event per
    // arc at this variation level) makes the true yield differ from the
    // untruncated Normal by far less than this.
    EXPECT_NEAR(r.yield, analytic, 3.0 * r.std_error + 1e-3) << "lambda=" << lambda;
    // Defensive mixture bounds every likelihood ratio by 1/alpha.
    EXPECT_LE(r.max_weight, 1.0 / opt.defensive_fraction + 1e-9);
    EXPECT_EQ(r.weights.size(), r.draws);
    EXPECT_EQ(r.delay_samples.size(), r.draws);
  }
}

TEST(IsleYield, BeatsNominalVarianceInTheTail) {
  // At a deep-tail constraint the importance-sampled standard error must sit
  // well below the binomial SE a nominal sampler gets from the same draws.
  const ChainBench b(32);
  ssta::IsleOptions opt;
  opt.samples = 4096;
  opt.seed = 99;
  opt.clock_period_ps = b.mean_ps + 2.5 * b.sigma_ps;
  const ssta::IsleResult r = ssta::run_isle(*b.ctx, opt);
  ASSERT_FALSE(r.degenerate);
  const double p = 1.0 - util::normal_cdf(2.5);
  const double nominal_se = std::sqrt(p * (1.0 - p) / double(opt.samples));
  EXPECT_LT(r.std_error, 0.5 * nominal_se);
}

// ---------------------------------------------------------------------------
// Plain-MC agreement on the Table-1 workloads.
// ---------------------------------------------------------------------------

TEST(IsleYield, AgreesWithPlainMonteCarloOnIscasWorkloads) {
  for (const char* name : {"c432", "c880"}) {
    core::Flow flow;
    ASSERT_TRUE(flow.load_table1(name).ok()) << name;

    ssta::MonteCarloOptions mo;
    mo.samples = 3000;
    mo.seed = 4242;
    mo.threads = 0;
    const ssta::MonteCarloResult mc = ssta::run_monte_carlo(flow.timing(), mo);

    for (const double lambda : {1.0, 2.0}) {
      const double period = mc.mean_ps + lambda * mc.sigma_ps;
      const EmpiricalYield ref = empirical_yield(mc.circuit_samples, period);

      ssta::IsleOptions opt;
      opt.samples = 1024;
      opt.seed = 31337;
      opt.threads = 0;
      opt.clock_period_ps = period;
      const ssta::IsleResult r = ssta::run_isle(flow.timing(), opt);

      ASSERT_FALSE(r.degenerate) << name << " lambda=" << lambda;
      // 0.01 budget: empirical-CDF discreteness at the threshold; both
      // estimators sample the identical truncated model, so there is no
      // model-bias term.
      EXPECT_NEAR(r.yield, ref.yield, combined_3se(r.std_error, ref.std_error) + 0.01)
          << name << " lambda=" << lambda;
      EXPECT_EQ(r.clock_period_ps, period);
      EXPECT_GT(r.ess, 0.0);
    }
  }
}

TEST(IsleYield, ResolvesSdcClockOnMesh8) {
  core::FlowOptions options;
  options.isle.samples = 768;
  options.isle.seed = 2718;
  options.isle.threads = 0;
  core::Flow flow(options);
  ASSERT_TRUE(flow.load_table1("mesh8").ok());

  ssta::MonteCarloOptions mo;
  mo.samples = 1200;
  mo.seed = 515;
  mo.threads = 0;
  const ssta::MonteCarloResult mc = ssta::run_monte_carlo(flow.timing(), mo);
  const double period = mc.mean_ps + 1.5 * mc.sigma_ps;
  const EmpiricalYield ref = empirical_yield(mc.circuit_samples, period);

  ASSERT_TRUE(
      flow.apply_sdc("create_clock -period " + std::to_string(period) + " -name clk").ok());

  // No explicit period: estimate_yield must pick up the SDC constraint.
  const core::YieldReport report = flow.estimate_yield();
  EXPECT_EQ(report.engine, "isle");
  EXPECT_EQ(report.result.clock_period_ps, flow.timing().constraints().clock_period_ps.value());
  ASSERT_FALSE(report.result.degenerate);
  EXPECT_NEAR(report.yield(), ref.yield,
              combined_3se(report.std_error(), ref.std_error) + 0.01);

  // The "mc" engine through the same front door agrees too.
  const core::YieldReport plain = flow.estimate_yield(0.0, "mc");
  EXPECT_EQ(plain.engine, "mc");
  EXPECT_NEAR(plain.yield(), ref.yield,
              combined_3se(plain.std_error(), ref.std_error) + 0.01);
  EXPECT_THROW((void)flow.estimate_yield(0.0, "no-such-engine"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism contract.
// ---------------------------------------------------------------------------

void expect_results_bitwise_equal(const ssta::IsleResult& a, const ssta::IsleResult& b) {
  EXPECT_EQ(a.yield, b.yield);
  EXPECT_EQ(a.failure_probability, b.failure_probability);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.draws, b.draws);
  EXPECT_EQ(a.ess, b.ess);
  EXPECT_EQ(a.failure_ess, b.failure_ess);
  EXPECT_EQ(a.weight_variance, b.weight_variance);
  EXPECT_EQ(a.max_weight, b.max_weight);
  EXPECT_EQ(a.shift_clamped, b.shift_clamped);
  EXPECT_EQ(a.degenerate, b.degenerate);
  EXPECT_EQ(a.clock_period_ps, b.clock_period_ps);
  EXPECT_EQ(a.surrogate_mean_ps, b.surrogate_mean_ps);
  EXPECT_EQ(a.surrogate_sigma_ps, b.surrogate_sigma_ps);
  EXPECT_EQ(a.shift_beta, b.shift_beta);
  EXPECT_EQ(a.weighted_mean_ps, b.weighted_mean_ps);
  EXPECT_EQ(a.weighted_sigma_ps, b.weighted_sigma_ps);
  EXPECT_EQ(a.delay_samples, b.delay_samples);
  EXPECT_EQ(a.weights, b.weights);
}

TEST(IsleYield, BitwiseThreadCountInvariance) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());

  ssta::IsleOptions opt;
  opt.seed = 7;
  opt.samples = 2048;
  // Adaptive stopping on: batch boundaries must be a pure function of the
  // options, so the stopping point (and hence `draws`) is thread-invariant.
  opt.target_yield_se = 0.01;

  // Period from the serial run's surrogate, held fixed for all thread counts.
  opt.threads = 1;
  const ssta::IsleResult reference = ssta::run_isle(flow.timing(), opt);
  opt.clock_period_ps = reference.clock_period_ps;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    opt.threads = threads;
    const ssta::IsleResult r = ssta::run_isle(flow.timing(), opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_results_bitwise_equal(r, reference);
  }
}

TEST(IsleYield, SeedReproducibility) {
  const ChainBench b(16);
  ssta::IsleOptions opt;
  opt.samples = 512;
  opt.seed = 1234;
  opt.clock_period_ps = b.mean_ps + 1.0 * b.sigma_ps;

  const ssta::IsleResult first = ssta::run_isle(*b.ctx, opt);
  const ssta::IsleResult again = ssta::run_isle(*b.ctx, opt);
  expect_results_bitwise_equal(first, again);

  opt.seed = 4321;
  const ssta::IsleResult other = ssta::run_isle(*b.ctx, opt);
  EXPECT_NE(other.delay_samples, first.delay_samples);
}

TEST(IsleYield, NominalProposalIsBitwisePlainMonteCarlo) {
  core::Flow flow;
  ASSERT_TRUE(flow.load_table1("c432").ok());

  ssta::MonteCarloOptions mo;
  mo.samples = 512;
  mo.seed = 777;
  mo.threads = 0;
  const ssta::MonteCarloResult mc = ssta::run_monte_carlo(flow.timing(), mo);

  ssta::IsleOptions opt;
  opt.samples = 512;
  opt.seed = 777;
  opt.threads = 0;
  opt.proposal = ssta::IsleProposal::kNominal;
  opt.clock_period_ps = mc.mean_ps;  // any fixed period; draws must not depend on it
  const ssta::IsleResult r = ssta::run_isle(flow.timing(), opt);

  ASSERT_EQ(r.delay_samples.size(), mc.circuit_samples.size());
  EXPECT_EQ(r.delay_samples, mc.circuit_samples);  // bitwise, per draw
  for (const double w : r.weights) ASSERT_EQ(w, 1.0);
  EXPECT_EQ(r.yield, empirical_yield(mc.circuit_samples, opt.clock_period_ps).yield);
}

TEST(IsleYield, EngineNamesResolveInOnePlace) {
  ssta::IsleOptions opt;
  EXPECT_EQ(ssta::for_yield_engine(opt, "mc").proposal, ssta::IsleProposal::kNominal);
  EXPECT_EQ(ssta::for_yield_engine(opt, "isle").proposal, ssta::IsleProposal::kImportance);
  opt.proposal = ssta::IsleProposal::kNominal;  // "isle" keeps the caller's proposal
  EXPECT_EQ(ssta::for_yield_engine(opt, "isle").proposal, ssta::IsleProposal::kNominal);
  EXPECT_THROW((void)ssta::for_yield_engine(opt, "MC"), std::invalid_argument);
}

/// FNV-1a over the bit patterns of @p xs.
std::uint64_t hash_bits(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : xs) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden bits captured from the importance sampler before its draw loop
// began serving Monte Carlo too: the shifted tracked arcs, the likelihood
// ratios and the batch folds must keep every bit. A nonzero global fraction
// puts every term of the arc-sampling map to work; 1000 draws in 256-draw
// batches leave a short last batch and a short last chunk.
TEST(IsleYield, ImportanceModeMatchesCapturedGoldenBits) {
  core::FlowOptions fo;
  fo.variation.global_fraction = 0.5;
  core::Flow flow(fo);
  ASSERT_TRUE(flow.load_table1("c432").ok());

  ssta::IsleOptions opt;
  opt.samples = 1000;
  opt.seed = 4242;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    opt.threads = threads;
    const ssta::IsleResult r = ssta::run_isle(flow.timing(), opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.proposal_paths, 3u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.clock_period_ps), 0x4097263838bf68e7ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.yield), 0x3fee777ac30c5fb2ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.std_error), 0x3f67a10af095ac4aull);
    EXPECT_EQ(hash_bits(r.weights), 0x8cbf1e94ccf584beull);
    EXPECT_EQ(hash_bits(r.delay_samples), 0x2e45e34b894ae086ull);
  }
}

// ---------------------------------------------------------------------------
// Draws-to-CI: the reason ISLE exists.
// ---------------------------------------------------------------------------

TEST(IsleYield, ReachesTargetCiInTenTimesFewerDrawsThanPlainMc) {
  // Inter-die variation scenario (the regime ISLE targets): with a
  // substantial global fraction the failure region concentrates along the
  // shared process variable and the surrogate shift covers it. With
  // all-local variation the failures spread over thousands of near-critical
  // paths and no small mixture can concentrate them — the estimator stays
  // unbiased there but buys no variance (see BeatsNominalVarianceInTheTail
  // for the single-path extreme instead).
  core::FlowOptions fo;
  fo.variation.global_fraction = 0.5;
  core::Flow flow(fo);
  ASSERT_TRUE(flow.load_table1("c432").ok());

  ssta::MonteCarloOptions mo;
  mo.samples = 3000;
  mo.seed = 808;
  mo.threads = 0;
  const ssta::MonteCarloResult mc = ssta::run_monte_carlo(flow.timing(), mo);
  const double period = mc.mean_ps + 3.0 * mc.sigma_ps;  // deep tail, p ~ 3e-3

  ssta::IsleOptions opt;
  opt.seed = 90210;
  opt.threads = 0;
  opt.clock_period_ps = period;
  opt.samples = 8192;             // adaptive cap
  opt.target_yield_se = 4.5e-4;   // ~ p / 3 at this depth
  const ssta::IsleResult r = ssta::run_isle(flow.timing(), opt);

  ASSERT_FALSE(r.degenerate);
  EXPECT_LE(r.std_error, opt.target_yield_se);
  EXPECT_LT(r.draws, opt.samples) << "adaptive loop hit the cap";

  // Sanity: the deep-tail estimate is consistent with the (coarse) MC view.
  const EmpiricalYield ref = empirical_yield(mc.circuit_samples, period);
  EXPECT_NEAR(r.yield, ref.yield, combined_3se(r.std_error, ref.std_error) + 0.003);

  // Plain MC needs p(1-p)/se^2 draws for the same CI — pin the >= 10x claim.
  const double p = r.failure_probability;
  const double mc_draws_needed = p * (1.0 - p) / (opt.target_yield_se * opt.target_yield_se);
  EXPECT_GE(mc_draws_needed, 10.0 * double(r.draws))
      << "isle draws=" << r.draws << " p=" << p << " mc needs ~" << mc_draws_needed;
}

}  // namespace
}  // namespace statsizer
