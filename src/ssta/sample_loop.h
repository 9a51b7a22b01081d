// The one sample loop, behind ssta::run_isle and ssta::run_monte_carlo.
// Internal plumbing; include only from src/ssta/*.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "ssta/isle.h"
#include "sta/graph.h"

namespace statsizer::ssta::detail {

/// Draws per chunk of per-node statistics: each chunk accumulates its own and
/// they fold in chunk order, so the moments' bits are pinned to this fixed
/// geometry (never a function of the thread count). Without per-node
/// statistics no result depends on the chunking (per-slot writes, serial
/// folds), and the loop schedules quarter chunks, which even out the tail of
/// each batch across the workers.
inline constexpr std::size_t kDrawChunk = 64;

/// Draws in `options.batch` steps under @p options' proposal,
/// checkpointing @p site on the calling thread before each batch. With
/// @p node set it also fills every node's arrival moments over all draws:
/// each chunk's per-node statistics fold into the totals in ascending chunk
/// order at the batch boundary, so with a batch that is a multiple of
/// kDrawChunk the fold order is the global chunk order.
[[nodiscard]] IsleResult run_draws(const sta::TimingContext& ctx, const IsleOptions& options,
                                   const char* site, std::vector<sta::NodeMoments>* node);

}  // namespace statsizer::ssta::detail
