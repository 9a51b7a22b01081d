// Side-by-side of the statistical timing engines on one workload — every
// engine selected by registry name through the unified timing::Analyzer
// interface (timing::make_analyzer), no per-engine plumbing:
//   fullssta   — discrete-pdf propagation (the paper's accurate outer engine)
//   fassta     — Clark-moment propagation  (the paper's fast inner engine)
//   canonical  — first-order form with a shared global variable (extension)
//   mc         — Monte-Carlo sampling reference
//   dsta       — deterministic STA (mean only; sigma = 0)
// Including what happens when a correlated (global) variation component is
// switched on: the independence-based engines underestimate sigma, the
// canonical engine tracks it.
//
// Usage: engine_comparison [circuit] [engine ...]
//        (default: alu2, every registered engine)
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "timing/analyzer.h"
#include "util/table.h"

using namespace statsizer;

namespace {

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int compare(const std::string& name, const std::vector<std::string>& engines,
            double global_fraction) {
  core::FlowOptions options;
  options.variation.global_fraction = global_fraction;
  core::Flow flow(options);
  if (const Status s = flow.load_table1(name); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  (void)flow.run_baseline();

  util::Table t({"engine", "mu (ps)", "sigma (ps)", "runtime (ms)"});
  for (const std::string& engine : engines) {
    // Names were validated up front in main().
    const std::unique_ptr<timing::Analyzer> analyzer = flow.make_analyzer(engine);
    // Copy: the timed re-analyze below invalidates the returned reference.
    const timing::Summary s = analyzer->analyze(flow.timing());
    const double ms = time_ms([&] { (void)analyzer->analyze(flow.timing()); });
    t.add_row({engine, util::fmt(s.mean_ps, 1), util::fmt(s.sigma_ps, 2), util::fmt(ms, 2)});
  }
  std::printf("global_fraction = %.1f\n%s\n", global_fraction, t.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "alu2";
  std::vector<std::string> engines;
  for (int i = 2; i < argc; ++i) engines.emplace_back(argv[i]);
  if (engines.empty()) engines = timing::analyzer_names();
  // Fail on a typo before paying for the baseline optimization.
  for (const std::string& engine : engines) {
    try {
      (void)timing::make_analyzer(engine);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  std::printf("engine comparison on %s\n\n", name.c_str());
  // Independent variation: all statistical engines should agree-ish.
  if (const int rc = compare(name, engines, 0.0); rc != 0) return rc;
  // Strong global correlation: canonical tracks MC.
  if (const int rc = compare(name, engines, 0.6); rc != 0) return rc;
  std::printf(
      "note: with correlated variation the independence-based engines\n"
      "(fullssta/fassta) underestimate sigma — the gap the paper's section\n"
      "4.3 assigns to the correlation-aware outer loop (PCA et al.).\n");
  return 0;
}
