#include "ssta/fullssta.h"

#include <utility>

#include "debug/validate.h"
#include "util/check.h"

namespace statsizer::ssta {

using netlist::GateId;
using pdf::DiscretePdf;

FullSstaResult run_fullssta(const sta::TimingContext& ctx, const FullSstaOptions& options) {
  const auto& nl = ctx.netlist();

  if constexpr (debug::kParanoid) {
    debug::validate_structure_fresh(nl, ctx.levelization());
  }

  FullSstaResult result;
  result.node.assign(nl.node_count(), sta::NodeMoments{});

  std::vector<DiscretePdf> arrival(nl.node_count(), DiscretePdf::point(0.0));

  // Constrained primary inputs (set_input_delay) launch as a point mass at
  // their delay. Guarded so the unconstrained path stays bitwise-identical.
  const auto& input_arrival = ctx.constraints().input_arrival_ps;
  if (!input_arrival.empty()) {
    for (GateId id = 0; id < nl.node_count(); ++id) {
      if (!nl.gate(id).fanins.empty() || input_arrival[id] == 0.0) continue;
      arrival[id] = DiscretePdf::point(input_arrival[id]);
      result.node[id] = sta::NodeMoments{input_arrival[id], 0.0};
    }
  }

  const auto arrival_of = [&](GateId f) -> const DiscretePdf& { return arrival[f]; };

  // One gate's arrival from its (already finished) fanins: reads lower-level
  // pdfs, writes only the gate's own slots. Per-gate pdf convolutions are
  // heavy (~samples^2 work each), so chunk size 1 load-balances the wavefront
  // best.
  sta::sweep_levels(
      sta::all_levels(ctx.levelization()), options.threads,
      ctx.options().min_level_width_for_parallel, 1,
      [&](GateId id, std::uint32_t) {
        const auto& g = nl.gate(id);
        if (g.fanins.empty()) return;  // PI / constant: its launch point mass
        DiscretePdf acc = gate_arrival(g, options, arrival_of, [&](std::size_t i) {
          return std::pair{ctx.arc_delay_ps(id, i), ctx.arc_sigma_ps(id, i)};
        });
        if constexpr (debug::kParanoid) {
          // Exceptions from a wavefront worker are captured and rethrown on
          // the calling thread by parallel_for, so the audit is safe in both
          // modes.
          debug::validate_pdf(acc);
        }
        result.node[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
        arrival[id] = std::move(acc);
      },
      "ssta/fullssta/level");

  DiscretePdf out = output_arrival(nl, options, arrival_of);
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(out);
  }
  result.output_pdf = std::move(out);
  result.mean_ps = result.output_pdf.mean();
  result.sigma_ps = result.output_pdf.stddev();
  if (options.keep_node_pdfs) result.node_pdf = std::move(arrival);
  return result;
}

}  // namespace statsizer::ssta
