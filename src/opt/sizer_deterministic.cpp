#include "opt/sizer_deterministic.h"

#include <algorithm>
#include <cmath>

#include "sta/dsta.h"

namespace statsizer::opt {

using netlist::GateId;

namespace {

/// Local estimate of the arrival at @p g if it were bound to @p candidate:
/// the drivers' arrivals are first shifted by the delay change their new load
/// causes (worst arc), then g's own arcs are re-evaluated with the candidate
/// cell. A standard TILOS-style gain model: exact for the stage, ignores
/// slew ripple beyond it.
double local_arrival_with(const sta::TimingContext& ctx, const sta::DstaResult& dsta,
                          GateId g, const liberty::Cell& candidate) {
  const auto& nl = ctx.netlist();
  const auto& gate = nl.gate(g);

  double arrival = 0.0;
  for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
    const GateId driver = gate.fanins[i];
    double driver_arrival = dsta.arrival_ps[driver];
    if (ctx.has_cell(driver)) {
      const double new_load = ctx.load_ff_with_resize(driver, g, candidate);
      if (new_load != ctx.load_ff(driver)) {
        // Worst-arc delay shift of the driver under the new load.
        double old_delay = 0.0;
        double new_delay = 0.0;
        const liberty::Cell& driver_cell = ctx.cell(driver);
        for (std::size_t j = 0; j < nl.gate(driver).fanins.size(); ++j) {
          old_delay = std::max(old_delay, ctx.arc_delay_ps(driver, j));
          new_delay = std::max(new_delay, ctx.arc_delay_with(driver, j, driver_cell, new_load));
        }
        driver_arrival += new_delay - old_delay;
      }
    }
    arrival = std::max(arrival,
                       driver_arrival + ctx.arc_delay_with(g, i, candidate, ctx.load_ff(g)));
  }
  return arrival;
}

}  // namespace

DeterministicSizerStats size_for_mean_delay(sta::TimingContext& ctx,
                                            const DeterministicSizerOptions& options) {
  auto& nl = ctx.mutable_netlist();
  const auto& lib = ctx.library();
  DeterministicSizerStats stats;

  ctx.update();
  sta::DstaResult dsta = run_dsta(ctx);
  stats.initial_arrival_ps = dsta.max_arrival_ps;
  double best_arrival = dsta.max_arrival_ps;
  auto best_sizes = nl.sizes();

  for (stats.passes = 0; stats.passes < options.max_passes; ++stats.passes) {
    std::size_t batch = 0;  // this pass's resizes, counted only if kept
    for (const GateId g : dsta.critical_path) {
      if (!ctx.has_cell(g)) continue;
      const auto& gate = nl.gate(g);
      const auto& group = lib.group(gate.cell_group);
      const double current_arrival = local_arrival_with(ctx, dsta, g, ctx.cell(g));

      std::uint16_t best_size = gate.size_index;
      double best_local = current_arrival;
      for (std::uint16_t s = 0; s < group.size_count(); ++s) {
        if (s == gate.size_index) continue;
        const liberty::Cell& candidate = lib.cell_for(gate.cell_group, s);
        const double a = local_arrival_with(ctx, dsta, g, candidate);
        if (a < best_local - options.min_gain_ps) {
          best_local = a;
          best_size = s;
        }
      }
      if (best_size != gate.size_index) {
        nl.gate(g).size_index = best_size;
        ++batch;
      }
    }
    if (batch == 0) break;

    ctx.update();
    dsta = run_dsta(ctx);
    if (dsta.max_arrival_ps < best_arrival - options.min_gain_ps) {
      best_arrival = dsta.max_arrival_ps;
      best_sizes = nl.sizes();
      stats.resizes += batch;
    } else {
      // Batch overshoot (e.g. two neighbours both upsized): restore the best
      // known state and stop.
      nl.set_sizes(best_sizes);
      ctx.update();
      dsta = run_dsta(ctx);
      break;
    }
  }

  stats.final_arrival_ps = dsta.max_arrival_ps;
  return stats;
}

}  // namespace statsizer::opt
