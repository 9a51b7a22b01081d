// FULLSSTA behind the timing::Analyzer interface, with the incremental
// what-if overlay that makes parallel speculative confirmations possible.
//
// A speculation re-propagates only the resize's fanout cone. The snapshot
// half and the transaction come from the shared ConeSpeculation
// (timing/cone.h — also the engine behind the FASSTA/DSTA what-ifs); this
// file adds the pdf half, which calls the engine's kernel
// (ssta::gate_arrival and ssta::output_arrival) over the dirty set in
// topological order, reading everything outside the cone from the
// analyzer's cached base. Calling the same kernels as update() and
// ssta::run_fullssta() is what makes the score — and the base state a
// commit() installs — bitwise-identical to a from-scratch update() +
// run_fullssta() of the resized netlist. The conformance suite
// (tests/analyzer_conformance_test.cpp) pins this.
//
// Overlay storage is dense (GateId-indexed vectors, cleared per score):
// the O(nodes) clears are memset-class and dwarfed by the cone's pdf
// convolutions, but each live speculation holds O(nodes + arcs) overlay
// memory — callers that score many speculations concurrently should window
// their waves (opt::size_statistically caps waves at a few times the worker
// count).
#include <utility>

#include "timing/analyzer_impl.h"
#include "timing/cone.h"

namespace statsizer::timing::detail {

namespace {

using netlist::GateId;
using pdf::DiscretePdf;

class FullSstaAnalyzer final : public SerializedAnalyzer {
 public:
  explicit FullSstaAnalyzer(const AnalyzerOptions& options) : options_(options.fullssta) {}

  std::string_view name() const override { return "fullssta"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.output_pdf = true;
    c.what_if = true;
    c.concurrent_speculations = true;
    c.exact_speculation = true;
    return c;
  }

  // Single-resize propose() is inherited: it delegates to this override.
  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<WhatIfSpeculation>(*this, bound(), resizes);
  }

 private:
  class WhatIfSpeculation final : public ConeSpeculation<FullSstaAnalyzer> {
   public:
    using ConeSpeculation::ConeSpeculation;

   private:
    /// Both halves run wavefront-parallel with FullSstaOptions::threads (a
    /// speculation scored from inside a pool worker runs inline; the big
    /// win is the atomic multi-resize confirmations scored on the caller's
    /// thread).
    std::size_t replay_threads() const override { return owner_.options_.threads; }

    /// The pdf half: the FULLSSTA gate kernel over the dirty set, reusing
    /// the snapshot half's per-level dirty counts (clean levels skip, thin
    /// ones run serially, pdf-heavy waves get per-gate chunks).
    void propagate_arrivals() override {
      const auto& nl = ctx_.netlist();
      const ssta::FullSstaOptions& options = owner_.options_;
      ov_arrival_.assign(nl.node_count(), DiscretePdf());
      ov_moments_.assign(nl.node_count(), sta::NodeMoments{});
      const auto arrival_of = [&](GateId id) -> const DiscretePdf& {
        return cone_.dirty[id] ? ov_arrival_[id] : owner_.base_arrival_[id];
      };
      // Dirty nodes are mapped gates, so each has fanins to fold.
      sta::sweep_levels(
          ctx_, options.threads, 1,
          [&](GateId id) {
            if (!cone_.dirty[id]) return;
            const std::uint32_t off = ctx_.arc_offset(id);
            DiscretePdf acc =
                ssta::gate_arrival(nl.gate(id), options, arrival_of, [&](std::size_t i) {
                  return std::pair{cone_.arc_delay[off + i], cone_.arc_sigma[off + i]};
                });
            ov_moments_[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
            ov_arrival_[id] = std::move(acc);
          },
          cone_.dirty_per_level);
      ov_output_ = ssta::output_arrival(nl, options, arrival_of);
      result_.mean_ps = ov_output_.mean();
      result_.sigma_ps = ov_output_.stddev();
    }

    void merge_arrivals() override {
      for (GateId id = 0; id < ov_arrival_.size(); ++id) {
        if (!cone_.dirty[id]) continue;
        owner_.base_arrival_[id] = std::move(ov_arrival_[id]);
        owner_.base_.node[id] = ov_moments_[id];
      }
      owner_.base_.output_pdf = std::move(ov_output_);
    }

    // Overlay state, kept after score() so commit() can merge it.
    std::vector<DiscretePdf> ov_arrival_;
    std::vector<sta::NodeMoments> ov_moments_;
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
