// FULLSSTA behind the timing::Analyzer interface, with the incremental
// what-if overlay that makes parallel speculative confirmations possible.
//
// A speculation re-propagates only the resize's fanout cone. The snapshot
// half and the transaction come from the shared ConeSpeculation
// (timing/cone.h — also the engine behind the FASSTA/DSTA what-ifs); this
// file adds the pdf half, which calls the engine's kernel
// (ssta::gate_arrival and ssta::output_arrival) over the level-sorted cone,
// reading everything outside the cone from the analyzer's cached base.
// Calling the same kernels as update() and ssta::run_fullssta() is what
// makes the score — and the base state a commit() installs —
// bitwise-identical to a from-scratch update() + run_fullssta() of the
// resized netlist. The conformance suite
// (tests/analyzer_conformance_test.cpp) pins this.
//
// Overlay storage is sparse: the arrival pdfs and moments are indexed by
// cone slot, so a speculation holds O(cone) pdfs and never touches an
// O(nodes) array (the GateId -> slot lookup is the scoring thread's reused
// sta::ConeWorkspace). Both are sized when the speculation is proposed, and
// the pdfs' grids are inline (pdf::MassBuffer), so a pool worker scoring a
// what-if fills them without allocating.
#include <utility>

#include "timing/cone.h"

namespace statsizer::timing::detail {

namespace {

using netlist::GateId;
using pdf::DiscretePdf;

class FullSstaAnalyzer final : public ConeAnalyzer<FullSstaAnalyzer> {
 public:
  explicit FullSstaAnalyzer(const AnalyzerOptions& options) : options_(options.fullssta) {}

  std::string_view name() const override { return "fullssta"; }

  Capabilities capabilities() const override {
    Capabilities c = ConeAnalyzer::capabilities();
    c.output_pdf = true;
    return c;
  }

 private:
  friend class ConeAnalyzer<FullSstaAnalyzer>;

  class WhatIfSpeculation final : public ConeSpeculation<FullSstaAnalyzer> {
   public:
    WhatIfSpeculation(FullSstaAnalyzer& owner, sta::TimingContext& ctx,
                      std::span<const Resize> resizes)
        : ConeSpeculation(owner, ctx, resizes), ov_arrival_(cone_.nodes.size()) {}

   private:
    /// Both halves run wavefront-parallel with FullSstaOptions::threads (a
    /// speculation scored from inside a pool worker runs inline; the big
    /// win is the atomic multi-resize confirmations scored on the caller's
    /// thread).
    std::size_t replay_threads() const override { return owner_.options_.threads; }

    /// The pdf half: the FULLSSTA gate kernel over the cone's levels (clean
    /// levels skip, thin ones run serially, pdf-heavy waves get per-gate
    /// chunks).
    void propagate_arrivals(const sta::ConeWorkspace& ws) override {
      const auto& nl = ctx_.netlist();
      const ssta::FullSstaOptions& options = owner_.options_;
      const auto arrival_of = [&](GateId id) -> const DiscretePdf& {
        const std::uint32_t s = ws.slot(id);
        return s != sta::ConeWorkspace::kNoSlot ? ov_arrival_[s] : owner_.base_arrival_[id];
      };
      // Cone nodes are mapped gates, so each has fanins to fold.
      const std::size_t cutoff = ctx_.options().min_level_width_for_parallel;
      sta::sweep_levels(cone_.list(), options.threads, cutoff, 1, [&](GateId id, std::uint32_t s) {
        DiscretePdf acc = ssta::gate_arrival(nl.gate(id), options, arrival_of,
                                             [&](std::size_t i) { return cone_.arc(s, i); });
        moments_[s] = sta::NodeMoments{acc.mean(), acc.stddev()};
        ov_arrival_[s] = std::move(acc);
      });
      ov_output_ = ssta::output_arrival(nl, options, arrival_of);
      result_.mean_ps = ov_output_.mean();
      result_.sigma_ps = ov_output_.stddev();
    }

    void merge_arrivals() override {
      for (std::size_t s = 0; s < cone_.nodes.size(); ++s) {
        owner_.base_arrival_[cone_.nodes[s]] = std::move(ov_arrival_[s]);
      }
      owner_.base_.output_pdf = std::move(ov_output_);
    }

    // Overlay state by cone slot, kept after score() so commit() can merge it.
    std::vector<DiscretePdf> ov_arrival_;
    DiscretePdf ov_output_;
  };

  Summary compute(sta::TimingContext& ctx) override {
    ssta::FullSstaOptions opt = options_;
    opt.keep_node_pdfs = true;
    ssta::FullSstaResult r = ssta::run_fullssta(ctx, opt);
    base_arrival_ = std::move(r.node_pdf);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node = std::move(r.node);
    s.output_pdf = std::move(r.output_pdf);
    return s;
  }

  ssta::FullSstaOptions options_;
  std::vector<DiscretePdf> base_arrival_;
};

}  // namespace

std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<FullSstaAnalyzer>(options);
}

}  // namespace statsizer::timing::detail
