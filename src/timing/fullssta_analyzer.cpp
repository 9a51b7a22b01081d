// FULLSSTA behind the timing::Analyzer interface, with the incremental
// what-if overlay that makes parallel speculative confirmations possible.
//
// A speculation re-propagates only the resize's fanout cone. The snapshot
// half and the transaction come from the shared ConeSpeculation
// (timing/cone.h — also the engine behind the FASSTA/DSTA what-ifs); this
// file adds the pdf half, which calls the engine's kernel
// (ssta::gate_arrival and ssta::output_arrival) over the topo-ordered cone,
// reading everything outside the cone from the analyzer's cached base, in a
// dataflow walk (util::dataflow_for) on AnalyzerOptions::threads workers
// that runs a slot once its in-cone fanins are done: any worker count
// computes the serial walk's bits.
// Calling the same kernels as update() and ssta::run_fullssta() is what
// makes the score — and the base state a commit() installs —
// bitwise-identical to a from-scratch update() + run_fullssta() of the
// resized netlist. The conformance suite
// (tests/analyzer_conformance_test.cpp) pins this.
//
// Almost every arc of a cone keeps its base (delay, sigma) bitwise, so the
// analyzer also keeps each arc's delay pdf, ssta::delay_pdf(delay, sigma),
// in a compact per-arc store (DelayPdfStore) and the cone kernel reuses it
// whenever the cone arc's pair is bitwise the one the pdf was built from.
// The key is the store's own pair, never the context's, so a reuse is exact
// whatever state the context has run ahead to. analyze() fills the store;
// a commit refreshes only the arcs whose pair changed, on the committing
// thread.
//
// Overlay storage is sparse: the arrival pdfs and moments are indexed by
// cone slot, so a speculation holds O(cone) pdfs and never touches an
// O(nodes) array (the GateId -> slot lookup is the scoring thread's reused
// sta::ConeWorkspace, which the walk's workers only read). They and the
// walk's done flags are sized when the speculation is proposed, and the
// pdfs' grids are inline (pdf::MassBuffer), so no pool worker scoring a
// what-if or walking its cone allocates.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "timing/cone.h"
#include "util/thread_pool.h"

namespace statsizer::timing::detail {

namespace {

using netlist::GateId;
using pdf::DiscretePdf;

/// Every arc's delay pdf, ssta::delay_pdf(delay, sigma), deduplicated by
/// value: arcs sharing a (delay, sigma) pair share one record. A record is
/// (4 + max(samples, 2)) doubles — the key pair it was built from, then its
/// grid's origin, step and masses (136 bytes at the default 13 samples); a
/// point pdf (size 1) stores -1 as its second mass, which no real grid
/// holds. Per arc the store holds a record index; per record, a reference
/// count and a slot in the key-sorted index that finds a pair's record.
class DelayPdfStore {
 public:
  explicit DelayPdfStore(const ssta::FullSstaOptions& options)
      : options_(options), width_(4 + std::max<std::size_t>(options.samples_per_pdf, 2)) {}

  /// Sizes the store for @p ctx's arcs and refreshes every arc from it.
  void refresh_all(const sta::TimingContext& ctx) {
    if (arc_record_.size() != ctx.arc_count()) {
      arc_record_.assign(ctx.arc_count(), kNone);
      blocks_.clear();
      refs_.clear();
      free_.clear();
      by_key_.clear();
    }
    const auto& nl = ctx.netlist();
    for (GateId id = 0; id < nl.node_count(); ++id) {
      for (std::size_t i = 0; i < nl.gate(id).fanins.size(); ++i) {
        refresh(ctx.arc_offset(id) + i, ctx.arc_delay_ps(id, i), ctx.arc_sigma_ps(id, i));
      }
    }
  }

  /// Makes arc @p a's pdf the one of (@p delay, @p sigma), building it only
  /// when no arc holds that pair already.
  void refresh(std::size_t a, double delay, double sigma) {
    const Key key{bits(delay), bits(sigma)};
    std::uint32_t& r = arc_record_[a];
    if (r != kNone && key_of(r) == key) return;
    if (r != kNone && --refs_[r] == 0) {
      by_key_.erase(find(key_of(r)));
      free_.push_back(r);
    }
    const auto at = find(key);
    if (at != by_key_.end() && key_of(*at) == key) {
      r = *at;
      ++refs_[r];
      return;
    }
    if (free_.empty()) {
      r = static_cast<std::uint32_t>(refs_.size());
      refs_.push_back(0);
      if (r % kBlock == 0) blocks_.push_back(std::make_unique<double[]>(kBlock * width_));
    } else {
      r = free_.back();
      free_.pop_back();
    }
    save(record(r), delay, sigma);
    refs_[r] = 1;
    by_key_.insert(at, r);
  }

  /// Arc @p a's delay pdf for (@p delay, @p sigma): the saved one when the
  /// pair is bitwise its key, else built fresh.
  [[nodiscard]] DiscretePdf pdf(std::size_t a, double delay, double sigma) const {
    const std::uint32_t r = arc_record_[a];
    if (r == kNone || key_of(r) != Key{bits(delay), bits(sigma)}) {
      return ssta::delay_pdf(options_, delay, sigma);
    }
    const double* rec = record(r);
    const std::size_t n = rec[5] == -1.0 ? 1 : width_ - 4;
    DiscretePdf p = DiscretePdf::restore(rec[2], rec[3], std::span<const double>(rec + 4, n));
    if constexpr (debug::kParanoid) {
      const DiscretePdf fresh = ssta::delay_pdf(options_, delay, sigma);
      bool same = p.size() == fresh.size() && same_bits(p.origin(), fresh.origin()) &&
                  same_bits(p.step(), fresh.step()) && same_bits(p.mean(), fresh.mean()) &&
                  same_bits(p.variance(), fresh.variance());
      for (std::size_t i = 0; same && i < p.size(); ++i) {
        same = same_bits(p.mass_at(i), fresh.mass_at(i));
      }
      STATSIZER_PARANOID_CHECK(same, "DelayPdfStore::pdf",
                               "a reused arc delay pdf differs from a fresh one");
    }
    return p;
  }

 private:
  /// A record's key: the bit patterns of its (delay, sigma), so that -0.0
  /// never matches 0.0 and a NaN matches only its own pattern.
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// Records per pool block: 35 KB blocks at 13 samples, so the pool grows
  /// without copying and never holds more than one block of slack.
  static constexpr std::uint32_t kBlock = 256;

  [[nodiscard]] static std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
  [[nodiscard]] double* record(std::uint32_t r) {
    return blocks_[r / kBlock].get() + (r % kBlock) * width_;
  }
  [[nodiscard]] const double* record(std::uint32_t r) const {
    return blocks_[r / kBlock].get() + (r % kBlock) * width_;
  }
  [[nodiscard]] Key key_of(std::uint32_t r) const {
    return {bits(record(r)[0]), bits(record(r)[1])};
  }
  /// The first live record in by_key_ whose key is not below @p key.
  [[nodiscard]] std::vector<std::uint32_t>::iterator find(const Key& key) {
    return std::lower_bound(by_key_.begin(), by_key_.end(), key,
                            [this](std::uint32_t r, const Key& k) { return key_of(r) < k; });
  }

  void save(double* rec, double delay, double sigma) const {
    const DiscretePdf p = ssta::delay_pdf(options_, delay, sigma);
    rec[0] = delay;
    rec[1] = sigma;
    rec[2] = p.origin();
    rec[3] = p.step();
    std::fill(rec + 4, rec + width_, 0.0);
    std::copy(p.mass_view().begin(), p.mass_view().end(), rec + 4);
    if (p.size() == 1) rec[5] = -1.0;
  }

  const ssta::FullSstaOptions& options_;
  std::size_t width_;
  std::vector<std::uint32_t> arc_record_;  ///< by arc; kNone before the first fill
  std::vector<std::unique_ptr<double[]>> blocks_;  ///< kBlock records of width_ doubles
  std::vector<std::uint32_t> refs_;        ///< by record: arcs holding it (0 = free)
  std::vector<std::uint32_t> free_;        ///< unreferenced records, for reuse
  std::vector<std::uint32_t> by_key_;      ///< live records, sorted by key
};

class FullSstaAnalyzer final : public AnalyzerBase<FullSstaAnalyzer> {
 public:
  explicit FullSstaAnalyzer(const AnalyzerOptions& options)
      : options_(options.fullssta), threads_(options.threads), delays_(options_) {}

  std::string_view name() const override { return "fullssta"; }

 private:
  friend class AnalyzerBase<FullSstaAnalyzer>;

  class WhatIfSpeculation final : public ConeSpeculation<FullSstaAnalyzer> {
   public:
    WhatIfSpeculation(FullSstaAnalyzer& owner, sta::TimingContext& ctx,
                      std::span<const Resize> resizes)
        : ConeSpeculation(owner, ctx, resizes), ov_arrival_(cone_.nodes.size()),
          done_(cone_.nodes.size()) {}

   private:
    /// The pdf half: the FULLSSTA gate kernel over the cone, fanins first.
    void propagate_arrivals(const sta::ConeWorkspace& ws) override {
      const auto& nl = ctx_.netlist();
      const ssta::FullSstaOptions& options = owner_.options_;
      const auto arrival_of = [&](GateId id) -> const DiscretePdf& {
        const std::uint32_t s = ws.slot(id);
        return s != sta::ConeWorkspace::kNoSlot ? ov_arrival_[s] : owner_.base_arrival_[id];
      };
      // Cone nodes are mapped gates, so each has fanins to fold.
      util::dataflow_for(
          done_, owner_.threads_,
          [&](std::size_t s, const auto& visit) {
            for (const GateId f : nl.gate(cone_.nodes[s]).fanins) {
              if (const std::uint32_t p = ws.slot(f); p != sta::ConeWorkspace::kNoSlot) visit(p);
            }
          },
          [&](std::size_t s) {
            const GateId id = cone_.nodes[s];
            const std::size_t arc0 = ctx_.arc_offset(id);
            DiscretePdf acc =
                ssta::gate_arrival(nl.gate(id), options, arrival_of, [&](std::size_t i) {
                  const auto [delay, sigma] = cone_.arc(static_cast<std::uint32_t>(s), i);
                  return owner_.delays_.pdf(arc0 + i, delay, sigma);
                });
            moments_[s] = sta::NodeMoments{acc.mean(), acc.stddev()};
            ov_arrival_[s] = std::move(acc);
          });
      ov_output_ = ssta::output_arrival(nl, options, arrival_of);
      result_.mean_ps = ov_output_.mean();
      result_.sigma_ps = ov_output_.stddev();
    }

    void merge_arrivals() override {
      const auto& nl = ctx_.netlist();
      for (std::size_t s = 0; s < cone_.nodes.size(); ++s) {
        const GateId id = cone_.nodes[s];
        owner_.base_arrival_[id] = std::move(ov_arrival_[s]);
        for (std::size_t i = 0; i < nl.gate(id).fanins.size(); ++i) {
          const auto [delay, sigma] = cone_.arc(static_cast<std::uint32_t>(s), i);
          owner_.delays_.refresh(ctx_.arc_offset(id) + i, delay, sigma);
        }
      }
      owner_.base_.output_pdf = std::move(ov_output_);
    }

    // Overlay state by cone slot, kept after score() so commit() can merge it.
    std::vector<DiscretePdf> ov_arrival_;
    DiscretePdf ov_output_;
    std::vector<std::atomic<std::uint8_t>> done_;  ///< the cone walk's flags, by slot
  };

  Summary compute(const sta::TimingContext& ctx) {
    ssta::FullSstaOptions opt = options_;
    opt.keep_node_pdfs = true;
    ssta::FullSstaResult r = ssta::run_fullssta(ctx, opt);
    base_arrival_ = std::move(r.node_pdf);
    delays_.refresh_all(ctx);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node = std::move(r.node);
    s.output_pdf = std::move(r.output_pdf);
    return s;
  }

  ssta::FullSstaOptions options_;
  std::size_t threads_;  ///< cone walk workers
  std::vector<DiscretePdf> base_arrival_;
  DelayPdfStore delays_;  ///< keyed on its own pairs; see the file comment
};

}  // namespace

std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<FullSstaAnalyzer>(options);
}

}  // namespace statsizer::timing::detail
