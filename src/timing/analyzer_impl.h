// Internal plumbing shared by the timing::Analyzer adapters. Not installed;
// include only from src/timing/*.cpp.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "debug/validate.h"
#include "timing/analyzer.h"
#include "util/check.h"

namespace statsizer::timing::detail {

/// Bound-context / epoch / base-summary bookkeeping common to every adapter.
/// The epoch counter implements speculation invalidation: propose() stamps
/// the speculation with the current epoch, and commit()/analyze() bump it,
/// so a stale speculation's score() can fail loudly instead of silently
/// evaluating against a base that no longer exists.
class BoundAnalyzer : public Analyzer {
 public:
  const Summary& current() const final {
    if (!has_base_) {
      throw std::logic_error(std::string(name()) + ": current() before analyze()");
    }
    return base_;
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  void guard_epoch(std::uint64_t speculation_epoch) const {
    if constexpr (debug::kParanoid) {
      // A stamp *ahead* of the analyzer epoch can never come from correct
      // bookkeeping (stale stamps are the caller error handled below).
      debug::validate_epoch(name(), speculation_epoch, epoch_);
    }
    if (speculation_epoch != epoch_) {
      throw std::logic_error(std::string(name()) +
                             ": speculation invalidated by a commit or re-analyze");
    }
  }

  /// Installs a committed cone speculation's summary scalars and the arrival
  /// moments of its cone (@p moments[s] belongs to @p cone[s]), and
  /// invalidates its siblings.
  void merge_committed(const Summary& scored, std::span<const netlist::GateId> cone,
                       std::span<const sta::NodeMoments> moments) {
    base_.mean_ps = scored.mean_ps;
    base_.sigma_ps = scored.sigma_ps;
    for (std::size_t s = 0; s < cone.size(); ++s) base_.node[cone[s]] = moments[s];
    ++epoch_;
  }

 protected:
  sta::TimingContext& bound() const {
    if (ctx_ == nullptr) {
      throw std::logic_error(std::string(name()) + ": propose() before analyze()");
    }
    return *ctx_;
  }

  /// propose() preconditions: a bound context, at least one resize, distinct
  /// mapped gates, size indices inside each gate's group.
  void validate_resizes(std::span<const Resize> resizes) const;

  /// Installs a new base summary and invalidates outstanding speculations.
  void install_base(Summary base) {
    base_ = std::move(base);
    has_base_ = true;
    ++epoch_;
  }

  sta::TimingContext* ctx_ = nullptr;
  Summary base_;
  bool has_base_ = false;
  std::uint64_t epoch_ = 0;
};

/// The generic transactional fallback: score() applies the resizes, re-runs
/// the engine from scratch, and reverts — exact by construction, but it
/// mutates the shared TimingContext, so engines built on it report
/// concurrent_speculations = false and must be scored serially.
class SerializedSpeculation final : public Speculation {
 public:
  using Compute = std::function<Summary(sta::TimingContext&)>;

  SerializedSpeculation(BoundAnalyzer& owner, sta::TimingContext& ctx,
                        std::function<void(Summary)> install, Compute compute,
                        std::span<const Resize> resizes)
      : owner_(owner), ctx_(ctx), install_(std::move(install)), compute_(std::move(compute)),
        epoch_(owner.epoch()) {
    resizes_.assign(resizes.begin(), resizes.end());
    old_sizes_.reserve(resizes_.size());
    for (const Resize& r : resizes_) {
      old_sizes_.push_back(ctx_.netlist().gate(r.gate).size_index);
    }
  }

  const Summary& score() override {
    if (scored_) return result_;  // cached scores stay readable after invalidation
    owner_.guard_epoch(epoch_);
    apply();
    try {
      ctx_.update();
      result_ = compute_(ctx_);
    } catch (...) {
      // The transactional contract: score() must never leak the speculative
      // state, even when the engine throws mid-evaluation.
      revert();
      ctx_.update();
      throw;
    }
    revert();
    ctx_.update();  // pure function of the (restored) sizes: bitwise no-op
    scored_ = true;
    return result_;
  }

  void commit() override {
    if (committed_) return;  // uniform contract: a second commit is a no-op
    owner_.guard_epoch(epoch_);
    if (!scored_) (void)score();  // the base refresh reuses the scored summary
    apply();
    ctx_.update();
    install_(result_);  // bumps the epoch, invalidating siblings
    committed_ = true;
  }

  void rollback() override {}  // score() reverted eagerly; nothing was shared

 private:
  void apply() {
    auto& nl = ctx_.mutable_netlist();
    for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
  }
  void revert() {
    auto& nl = ctx_.mutable_netlist();
    for (std::size_t i = 0; i < resizes_.size(); ++i) {
      nl.gate(resizes_[i].gate).size_index = old_sizes_[i];
    }
  }

  BoundAnalyzer& owner_;
  sta::TimingContext& ctx_;
  std::function<void(Summary)> install_;
  Compute compute_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint16_t> old_sizes_;  ///< pre-propose sizes, for revert()
  Summary result_;
  bool scored_ = false;
  bool committed_ = false;
};

/// Adapter base for engines whose what-if goes through the serialized
/// fallback. Subclasses supply compute() (a from-scratch run).
class SerializedAnalyzer : public BoundAnalyzer {
 public:
  const Summary& analyze(sta::TimingContext& ctx) override {
    ctx_ = &ctx;
    on_bind(ctx);
    install_base(compute(ctx));
    return current();
  }

  std::unique_ptr<Speculation> propose(netlist::GateId gate, std::uint16_t size) override {
    const Resize r{gate, size};
    return propose_resizes(std::span<const Resize>(&r, 1));
  }

  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<SerializedSpeculation>(
        *this, bound(), [this](Summary s) { install_base(std::move(s)); },
        [this](sta::TimingContext& c) { return compute(c); }, resizes);
  }

 protected:
  virtual Summary compute(sta::TimingContext& ctx) = 0;
  virtual void on_bind(sta::TimingContext&) {}
};

std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_fassta_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_canonical_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_dsta_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_mc_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_isle_analyzer(const AnalyzerOptions& options);

}  // namespace statsizer::timing::detail
