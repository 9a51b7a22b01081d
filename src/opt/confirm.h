// opt::confirm — the optimizer's one confirmation walk. Every exact what-if
// the optimizer judges goes through it: StatisticalGreedy's plan batch, its
// singles, both rescue sweeps and the population bumps, and area recovery's
// screen and kChunk verification.
//
// The walk takes candidates 0..count-1 of a fixed order. propose(i) opens
// candidate i's speculation against the analyzer's committed base (nullptr
// skips it); judge(i, score) runs exactly once per proposed candidate, in
// ascending order, never past the one it approves. The walk commits the
// first approved candidate, and the caller's hook runs around that commit:
// it reads the pre-commit state, may call commit() to run code after it (the
// walk's own commit is then a no-op), and returns the index the walk resumes
// at, or kStopWalk. Resuming at the same index re-proposes that candidate
// against the new base. So every candidate is judged against the state
// holding exactly the commits ordered before it: the serial trial loop's
// semantics.
//
// One candidate is live at a time: it is proposed, scored, judged, and
// then committed or dropped before the next is proposed, so no score is
// ever thrown away. The parallelism is inside the score: the FULLSSTA
// what-if walks its cone on the analyzer's workers (AnalyzerOptions::threads,
// timing/fullssta_analyzer.cpp), bitwise-identically for any worker count.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>

#include "timing/analyzer.h"

namespace statsizer::opt {

/// A hook's return value that ends the walk.
inline constexpr std::size_t kStopWalk = std::numeric_limits<std::size_t>::max();

/// What one walk did.
struct Confirmed {
  std::size_t judged = 0;     ///< judge() calls
  std::size_t committed = 0;  ///< candidates committed
};

/// Walks the candidates as the header comment describes; every callback runs
/// on the calling thread. std::function is cheap here: each candidate costs
/// a cone replay.
Confirmed confirm(
    std::size_t count,
    const std::function<std::unique_ptr<timing::Speculation>(std::size_t)>& propose,
    const std::function<bool(std::size_t, const timing::Summary&)>& judge,
    const std::function<std::size_t(std::size_t, const std::function<void()>& commit)>&
        on_commit);

}  // namespace statsizer::opt
