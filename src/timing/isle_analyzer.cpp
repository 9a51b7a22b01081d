// The "isle" adapter: importance-sampled timing yield behind the
// engine-neutral timing::Analyzer seam (see ssta/isle.h for the estimator).
//
// analyze() runs the full estimator — surrogate build, defensive-mixture
// sampling, diagnostics — and summarizes the *delay* distribution with the
// self-normalized weighted moments (E_f[D] = E_q[w D]), so the summary is
// engine-comparable with fullssta/fassta/mc. Callers that want the yield
// number, its standard error, and the ESS diagnostics go through
// core::Flow::estimate_yield (or ssta::run_isle directly), which return the
// full IsleResult payload.
//
// What-if goes through the serialized fallback (apply / re-run / revert):
// the estimator is deterministic for a fixed seed and thread-count-invariant,
// so the speculation is exact, but score() mutates the shared context —
// hence concurrent_speculations = false.
#include "ssta/isle.h"
#include "timing/analyzer_impl.h"

namespace statsizer::timing::detail {

namespace {

class IsleAnalyzer final : public SerializedAnalyzer {
 public:
  explicit IsleAnalyzer(const AnalyzerOptions& options) : isle_(options.isle) {
    if (isle_.clock_period_ps <= 0.0 && options.clock_period_ps.has_value()) {
      isle_.clock_period_ps = *options.clock_period_ps;
    }
  }

  std::string_view name() const override { return "isle"; }

  Capabilities capabilities() const override { return {}; }

 private:
  Summary compute(sta::TimingContext& ctx) override {
    const ssta::IsleResult r = ssta::run_isle(ctx, isle_);
    Summary s;
    s.mean_ps = r.weighted_mean_ps;
    s.sigma_ps = r.weighted_sigma_ps;
    return s;
  }

  ssta::IsleOptions isle_;
};

}  // namespace

std::unique_ptr<Analyzer> make_isle_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<IsleAnalyzer>(options);
}

}  // namespace statsizer::timing::detail
