// Ablation A3 — inner-loop scoring: the paper's literal k-level subcircuit
// window (k = 1, 2, 3) versus the global FASSTA pass this implementation
// defaults to. Demonstrates the window-truncation effect documented in
// docs/ARCHITECTURE.md, "Deviations from the paper": windows score
// candidates by a local max that can miss
// slow-downs re-emerging beyond the cut, so the optimizer accepts fewer (or
// worse) moves; the global pass sees the whole max-over-paths objective.
#include <chrono>
#include <cstdio>

#include "core/flow.h"
#include "util/table.h"

using namespace statsizer;

int main() {
  std::printf("Ablation A3 — inner-loop scoring strategy (c432-class, lambda = 9)\n\n");

  core::Flow flow;
  if (const Status s = flow.load_table1("c432"); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  (void)flow.run_baseline();
  const auto baseline_sizes = flow.netlist().sizes();
  const opt::CircuitStats original = flow.analyze();

  util::Table t({"scoring", "dMu", "dSigma", "dArea", "iters", "fast evals", "time (s)"});

  struct Config {
    const char* label;
    opt::InnerScoring scoring;
    unsigned levels;
  };
  const Config configs[] = {
      {"window k=1", opt::InnerScoring::kSubcircuit, 1},
      {"window k=2 (paper)", opt::InnerScoring::kSubcircuit, 2},
      {"window k=3", opt::InnerScoring::kSubcircuit, 3},
      {"global FASSTA", opt::InnerScoring::kGlobalFassta, 0},
  };
  for (const Config& cfg : configs) {
    flow.timing().mutable_netlist().set_sizes(baseline_sizes);
    flow.timing().update();

    opt::StatisticalSizerOptions sizer;
    sizer.scoring = cfg.scoring;
    if (cfg.levels > 0) sizer.subcircuit_levels = cfg.levels;

    const auto t0 = std::chrono::steady_clock::now();
    const core::OptimizationRecord rec = flow.optimize(9.0, &sizer);
    const auto t1 = std::chrono::steady_clock::now();

    t.add_row({cfg.label, util::fmt_pct(rec.mean_change, 1),
               util::fmt_pct(rec.sigma_change, 0), util::fmt_pct(rec.area_change, 0),
               std::to_string(rec.iterations), std::to_string(rec.resizes),
               util::fmt(std::chrono::duration<double>(t1 - t0).count(), 2)});
  }
  std::printf("original: mu %.1f ps, sigma %.2f ps, area %.0f um^2\n\n",
              original.mean_ps, original.sigma_ps, original.area_um2);
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
