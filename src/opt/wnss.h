// Worst Negative Statistical Slack (WNSS) path tracing — paper section 4.4.
//
// Deterministic optimizers walk the worst-slack path by picking, at each
// gate, the input with the latest arrival. With random variables that rule
// breaks: the statistical max is non-linear, *every* input contributes to the
// output variance, and an input with a lower mean but fat sigma can dominate.
// The paper's procedure, reproduced here:
//
//   at each gate, compare inputs pairwise (through their arcs):
//     1. if dominance (eq. 5/6) holds at |alpha| >= 2.6, the higher-mean
//        input wins outright;
//     2. otherwise compare dVar(max)/dmu via a forward finite difference with
//        h ~ 1% of the mean and a coupled sigma step g = c*h (mean and sigma
//        along a path move together; c is the variation model's
//        mean-to-sigma coefficient).
//   The tournament winner is the "statistically critical" input; walk it
//   back to a primary input. The same tournament over the primary outputs
//   picks the starting point.
#pragma once

#include <span>
#include <vector>

#include "sta/graph.h"

namespace statsizer::opt {

/// The finite-difference step h as a fraction of the mean (paper: ~1%).
inline constexpr double kWnssStepFraction = 0.01;

struct WnssTrace {
  /// Gates on the WNSS path, primary-input side first, critical PO driver
  /// last. Contains only sizable gates (no PIs/constants).
  std::vector<netlist::GateId> path;
  /// Driver of the output that dominates the circuit's variance.
  netlist::GateId critical_output = netlist::kNoGate;
};

/// Traces the WNSS path using FULLSSTA's per-node arrival moments
/// (@p moments indexed by GateId).
[[nodiscard]] WnssTrace trace_wnss(const sta::TimingContext& ctx,
                                   std::span<const sta::NodeMoments> moments);

/// The pairwise comparison at the heart of the tracer, exposed for tests and
/// the Fig. 3 reproduction: returns true if input A (moments through its arc)
/// is more responsible for the variance of max(A, B) than input B.
/// @p c_a / @p c_b are the mean-to-sigma coupling coefficients for each side.
/// The sensitivities use the quadratic-erf (fast) Clark.
[[nodiscard]] bool more_responsible(const sta::NodeMoments& a, const sta::NodeMoments& b,
                                    double c_a, double c_b);

}  // namespace statsizer::opt
