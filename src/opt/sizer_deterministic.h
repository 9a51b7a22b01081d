// Deterministic mean-delay gate sizer (TILOS-flavoured greedy): produces the
// paper's "original" starting point — a circuit optimized purely for the mean
// of the longest path, which "will typically exhibit the widest spread in
// performance due to high usage of smaller devices" (paper, Fig. 1
// discussion). Each pass walks the deterministic critical path, locally
// evaluates every available size for each gate on it (accounting for the
// load the new size reflects onto its drivers), commits the improving
// choices, and repeats until the max arrival stops improving.
#pragma once

#include <cstddef>

#include "sta/graph.h"

namespace statsizer::opt {

/// The loop's limits are constants, not knobs: nothing tunes them.
struct DeterministicSizerOptions {
  static constexpr std::size_t max_passes = 100;
  static constexpr double min_gain_ps = 0.05;  ///< improvements below this end the loop
};

struct DeterministicSizerStats {
  std::size_t passes = 0;
  std::size_t resizes = 0;  ///< kept resizes: an overshooting batch is reverted, uncounted
  double initial_arrival_ps = 0.0;
  double final_arrival_ps = 0.0;
};

/// Sizes the context's netlist for minimum mean delay (in place). The
/// TimingContext is updated; the netlist's size indices hold the result.
DeterministicSizerStats size_for_mean_delay(sta::TimingContext& ctx,
                                            const DeterministicSizerOptions& options = {});

}  // namespace statsizer::opt
