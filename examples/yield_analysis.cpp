// Yield analysis — the paper's Fig. 1 motivation in executable form.
//
// "Decreasing variance can increase the overall yield of a design": for a
// clock period T, timing yield is P(delay <= T). This example measures that
// probability for a Table-1 workload before and after statistical sizing,
// with the analysis engine selected by registry name through the
// timing::Analyzer interface (fullssta, fassta or dsta). An engine that
// publishes the full delay pdf (fullssta) yields exact CDF reads; the
// moment-only engines fall back to the normal approximation. Monte Carlo cross-checks one
// operating point either way.
//
// Usage: yield_analysis [circuit] [lambda] [engine]
//        (default: c880, 9, fullssta). lambda must be a finite number >= 0;
//        anything else is a usage error (exit 2).
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/flow.h"
#include "ssta/monte_carlo.h"
#include "timing/analyzer.h"
#include "util/numeric.h"
#include "util/table.h"

using namespace statsizer;

namespace {

/// Delay distribution read through whichever payload the engine provides:
/// the discrete pdf when available, the (mu, sigma) normal fit otherwise.
struct DelayModel {
  bool has_pdf = false;
  pdf::DiscretePdf pdf;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;

  static DelayModel from(const timing::Summary& s) {
    DelayModel m;
    m.has_pdf = s.output_pdf.size() > 0;
    if (m.has_pdf) m.pdf = s.output_pdf;
    m.mean_ps = s.mean_ps;
    m.sigma_ps = s.sigma_ps;
    return m;
  }

  [[nodiscard]] double cdf(double x) const {
    if (has_pdf) return pdf.cdf(x);
    if (sigma_ps <= 0.0) return x >= mean_ps ? 1.0 : 0.0;
    return util::normal_cdf((x - mean_ps) / sigma_ps);
  }
  [[nodiscard]] double quantile(double q) const {
    if (has_pdf) return pdf.quantile(q);
    if (sigma_ps <= 0.0) return mean_ps;
    return mean_ps + sigma_ps * util::normal_inv_cdf(q);
  }
};

double monte_carlo_yield(core::Flow& flow, double period_ps) {
  ssta::MonteCarloOptions mc_opt;
  mc_opt.samples = 5000;
  const auto mc = ssta::run_monte_carlo(flow.timing(), mc_opt);
  double below = 0;
  for (const double s : mc.circuit_samples) {
    if (s <= period_ps) ++below;
  }
  return below / static_cast<double>(mc.circuit_samples.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "c880";
  const std::optional<double> lambda = argc > 2 ? util::parse_lambda(argv[2]) : 9.0;
  const std::string engine = argc > 3 ? argv[3] : "fullssta";
  if (!lambda) {
    std::fprintf(stderr, "usage: %s [circuit] [lambda >= 0] [engine]\n", argv[0]);
    return 2;
  }

  core::Flow flow;
  if (const Status s = flow.load_table1(name); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::unique_ptr<timing::Analyzer> analyzer;
  try {
    analyzer = flow.make_analyzer(engine);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  (void)flow.run_baseline();
  const DelayModel original = DelayModel::from(analyzer->analyze(flow.timing()));
  const auto original_sizes = flow.netlist().sizes();

  (void)flow.optimize(*lambda);
  const DelayModel optimized = DelayModel::from(analyzer->analyze(flow.timing()));

  std::printf("%s via %s%s: original  mu %.1f ps sigma %.2f ps | optimized (lambda=%.0f) "
              "mu %.1f sigma %.2f\n\n",
              name.c_str(), engine.c_str(), original.has_pdf ? "" : " (normal approx)",
              original.mean_ps, original.sigma_ps, *lambda, optimized.mean_ps,
              optimized.sigma_ps);

  // Yield curve over periods bracketing both designs. The paper's point: at a
  // period T near the mean, the narrow design yields many more good parts.
  util::Table t({"period (ps)", "orig yield", "opt yield", "gain"});
  const double lo = std::min(original.quantile(0.05), optimized.quantile(0.05));
  const double hi = std::max(original.quantile(0.999), optimized.quantile(0.999));
  for (int i = 0; i <= 10; ++i) {
    const double period = lo + (hi - lo) * i / 10.0;
    const double y_orig = original.cdf(period);
    const double y_opt = optimized.cdf(period);
    t.add_row({util::fmt(period, 0), util::fmt(100.0 * y_orig, 1) + " %",
               util::fmt(100.0 * y_opt, 1) + " %",
               util::fmt_pct(y_opt - y_orig, 1)});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Cross-check one operating point against Monte Carlo, for both designs.
  const double period = original.quantile(0.95);
  const auto optimized_sizes = flow.netlist().sizes();
  flow.timing().mutable_netlist().set_sizes(original_sizes);
  flow.timing().update();
  const double mc_before = monte_carlo_yield(flow, period);
  flow.timing().mutable_netlist().set_sizes(optimized_sizes);
  flow.timing().update();
  const double mc_after = monte_carlo_yield(flow, period);
  std::printf("at T = %.0f ps: original %.1f %% (MC %.1f %%) -> optimized %.1f %% (MC %.1f %%)\n",
              period, 100 * original.cdf(period), 100 * mc_before,
              100 * optimized.cdf(period), 100 * mc_after);
  std::printf("99th-percentile delay: %.1f ps -> %.1f ps\n", original.quantile(0.99),
              optimized.quantile(0.99));
  return 0;
}
