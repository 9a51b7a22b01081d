// FULLSSTA — the paper's accurate outer-loop statistical timing engine
// (section 4.2, after Liou et al. DAC'01). Arrival times are full discrete
// pdfs propagated through the netlist:
//   through an arc:  arrival_out = arrival_in (+) Normal(d_arc, sigma_arc)
//   across fanins:   statistical max via CDF product
// pdfs are kept at a user-controlled sampling rate (paper: 10-15 points).
// Besides the pdfs, the engine records mean/sigma at every node — exactly the
// values FASSTA later uses as subcircuit boundary conditions.
#pragma once

#include <utility>
#include <vector>

#include "pdf/discrete_pdf.h"
#include "sta/graph.h"

namespace statsizer::ssta {

struct FullSstaOptions {
  std::size_t samples_per_pdf = 13;  ///< paper: "10-15 samples per pdf"
  static constexpr double span_sigmas = 4.0;  ///< grid half-width for gate-delay pdfs
  /// Also return the arrival pdf of every node (FullSstaResult::node_pdf).
  /// Off by default: the pdfs are only needed by consumers that re-propagate
  /// increments against them (timing::Analyzer's what-if overlay).
  bool keep_node_pdfs = false;
  /// The full pass walks gates serially in topo order: on the deep, narrow
  /// Table-1 circuits a level barrier costs more than the pdf work it
  /// splits. (The what-if cone is a dataflow walk on its analyzer's
  /// workers, timing::AnalyzerOptions::threads.) A constant: perfbench prints it.
  static constexpr std::size_t threads = 1;
};

struct FullSstaResult {
  /// Arrival moments per node (indexed by GateId).
  std::vector<sta::NodeMoments> node;
  /// Arrival pdf per node (indexed by GateId; only if keep_node_pdfs).
  std::vector<pdf::DiscretePdf> node_pdf;
  /// Arrival pdf of the statistical max over all primary outputs: the random
  /// variable RV_O that "characterizes the mean and variance of the entire
  /// circuit" (paper section 2.1).
  pdf::DiscretePdf output_pdf;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
};

/// The kernel's arc delay pdf: Normal(@p delay_ps, @p sigma_ps) on the
/// options' grid.
[[nodiscard]] inline pdf::DiscretePdf delay_pdf(const FullSstaOptions& options, double delay_ps,
                                                double sigma_ps) {
  return pdf::DiscretePdf::normal(delay_ps, sigma_ps, options.samples_per_pdf,
                                  options.span_sigmas);
}

/// The one FULLSSTA gate kernel: gate @p g's arrival pdf, the statistical
/// max over its arcs of arrival_of(fanin) (+) delay_of(i), where delay_of(i)
/// yields arc i's delay_pdf(). run_fullssta runs it over the snapshot; the
/// FULLSSTA analyzer's what-if runs it over its fanout cone
/// (timing/fullssta_analyzer.cpp), reusing saved delay pdfs where an arc's
/// (delay, sigma) did not change, which is what keeps the two bitwise-equal.
template <typename ArrivalOf, typename DelayOf>
[[nodiscard]] pdf::DiscretePdf gate_arrival(const netlist::Gate& g,
                                            const FullSstaOptions& options,
                                            ArrivalOf&& arrival_of, DelayOf&& delay_of) {
  const std::size_t samples = options.samples_per_pdf;
  pdf::DiscretePdf acc;
  for (std::size_t i = 0; i < g.fanins.size(); ++i) {
    const pdf::DiscretePdf delay = delay_of(i);
    pdf::DiscretePdf through = pdf::sum(arrival_of(g.fanins[i]), delay, samples);
    acc = (i == 0) ? std::move(through) : pdf::max(acc, through, samples);
  }
  return acc;
}

/// RV_O, the other half of the kernel: the statistical max over the primary
/// outputs' driver arrivals, in output order.
template <typename ArrivalOf>
[[nodiscard]] pdf::DiscretePdf output_arrival(const netlist::Netlist& nl,
                                              const FullSstaOptions& options,
                                              ArrivalOf&& arrival_of) {
  pdf::DiscretePdf out = pdf::DiscretePdf::point(0.0);
  bool first = true;
  for (const auto& po : nl.outputs()) {
    out = first ? arrival_of(po.driver)
                : pdf::max(out, arrival_of(po.driver), options.samples_per_pdf);
    first = false;
  }
  return out;
}

/// Runs discrete-pdf SSTA over the whole netlist: gate_arrival for every
/// gate in TimingContext::topo_order(), then output_arrival.
[[nodiscard]] FullSstaResult run_fullssta(const sta::TimingContext& ctx,
                                          const FullSstaOptions& options = {});

}  // namespace statsizer::ssta
