// Internal plumbing shared by the timing::Analyzer adapters. Not installed;
// include only from src/timing/*.cpp.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "debug/validate.h"
#include "timing/analyzer.h"
#include "util/check.h"
#include "util/exec.h"

namespace statsizer::timing::detail {

/// The one speculation transaction, shared by every engine: the epoch guard,
/// the cached score, score-before-commit, commit-once and the no-op
/// rollback. An engine supplies only evaluate() — fill result_ without
/// writing any shared state — and install() — move the analyzer to the
/// resized state. Owner is the analyzer (an AnalyzerBase).
template <typename Owner>
class Transaction : public Speculation {
 public:
  Transaction(Owner& owner, sta::TimingContext& ctx, std::span<const Resize> resizes)
      : owner_(owner), ctx_(ctx), epoch_(owner.epoch()) {
    resizes_.assign(resizes.begin(), resizes.end());
  }

  const Summary& score() final {
    if (scored_) return result_;  // cached scores stay readable after invalidation
    owner_.guard_epoch(epoch_);
    evaluate();
    scored_ = true;
    return result_;
  }

  void commit() final {
    if (committed_) return;  // a second commit is a no-op
    owner_.guard_epoch(epoch_);
    // The score runs against the pre-resize state and may abort (cancel,
    // deadline, fault) having changed nothing; the install never aborts, so
    // a commit either completes or never starts.
    if (!scored_) (void)score();
    const util::ScopedExecSuspend suspend;
    install();  // bumps the owner's epoch, invalidating siblings
    committed_ = true;
  }

  void rollback() final {}  // score() never touches shared state

 protected:
  /// Scores the resizes into result_, reading the shared netlist, context
  /// and base but writing none of them, so speculations from one base score
  /// concurrently.
  virtual void evaluate() = 0;
  /// Applies the resizes to the netlist and refreshes the context and the
  /// owner's base from the scored state.
  virtual void install() = 0;

  Owner& owner_;
  sta::TimingContext& ctx_;
  std::vector<Resize> resizes_;
  Summary result_;

 private:
  std::uint64_t epoch_ = 0;
  bool scored_ = false;
  bool committed_ = false;
};

/// Base of every built-in analyzer: the bound context, the cached base
/// summary and the epoch counter. The epoch implements speculation
/// invalidation: propose() stamps the speculation with the current epoch,
/// and commit()/analyze() bump it, so a stale speculation's score() fails
/// loudly instead of silently evaluating against a base that no longer
/// exists. Subclasses supply compute() (a from-scratch run). An engine
/// without its own speculation scores on a private copy of the design
/// (PrivateSpeculation), so its compute() must only read the analyzer.
class AnalyzerBase : public Analyzer {
 public:
  const Summary& analyze(sta::TimingContext& ctx) final {
    ctx_ = &ctx;
    install_base(compute(ctx));
    return current();
  }

  const Summary& current() const final {
    if (!has_base_) {
      throw std::logic_error(std::string(name()) + ": current() before analyze()");
    }
    return base_;
  }

  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) final {
    validate_resizes(resizes);
    return speculate(*ctx_, resizes);
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
  virtual Summary compute(sta::TimingContext& ctx) = 0;
  /// Opens a speculation over validated resizes. The default scores on a
  /// private copy of the design; the cone engines override it.
  virtual std::unique_ptr<Speculation> speculate(sta::TimingContext& ctx,
                                                 std::span<const Resize> resizes);

  Summary base_;

 private:
  class PrivateSpeculation;

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
  bool has_base_ = false;
  std::uint64_t epoch_ = 0;
};

std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_fassta_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_canonical_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_dsta_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_mc_analyzer(const AnalyzerOptions& options);
std::unique_ptr<Analyzer> make_isle_analyzer(const AnalyzerOptions& options);

}  // namespace statsizer::timing::detail
