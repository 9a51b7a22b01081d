// Corruption-seeding pins for the paranoid invariant layer (debug/validate.h).
//
// The validators are compiled unconditionally, so every test here runs in
// every build: each one seeds a specific corruption into a copy of real
// engine state and asserts the matching validator trips with a
// "paranoid: "-prefixed std::logic_error naming the violated invariant. The
// hot-path wiring (validators called automatically from update(), FULLSSTA,
// DiscretePdf::sum/max, guard_epoch) is only active under
// -DSTATSIZER_PARANOID=ON; the ParanoidHotPath suite covers the pieces that
// are observable either way and documents the compile-time gate.
#include <cmath>
#include <cstdint>
#include <limits>
#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "debug/validate.h"
#include "liberty/synthetic.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"
#include "sta/graph.h"
#include "techmap/mapper.h"
#include "util/check.h"

namespace statsizer {
namespace {

using netlist::GateId;
using netlist::Netlist;

/// Mapped circuit + context (same idiom as levelized_update_test): the
/// deterministic size staircase gives non-trivial loads without an optimizer.
struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, sta::TimingOptions topt = {}) : nl(std::move(n)) {
    const Status s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    for (GateId g = 0; g < nl.node_count(); ++g) {
      auto& gate = nl.gate(g);
      if (gate.cell_group == netlist::kUnmapped) continue;
      const auto& group = lib.group(gate.cell_group);
      gate.size_index = static_cast<std::uint16_t>(g % group.size_count());
    }
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, topt);
  }
};

/// Runs @p fn and asserts it trips a paranoid check whose message carries
/// @p needle. Anything else — no throw, wrong exception, wrong message — is
/// a test failure that prints what actually happened.
template <typename Fn>
void ExpectTrip(Fn&& fn, std::string_view needle) {
  try {
    fn();
    FAIL() << "expected a paranoid check to trip (needle: " << needle << ")";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("paranoid: ", 0), 0u) << "missing prefix: " << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << "message lacks \"" << needle << "\": " << what;
  }
}

/// Rebuilds the load-term CSR arrays from the public per-driver spans, so a
/// test can corrupt a private-state *replica* and feed it to the validator.
struct CsrCopy {
  std::vector<std::uint32_t> offsets;
  std::vector<sta::LoadTerm> terms;

  explicit CsrCopy(const sta::TimingContext& ctx, const Netlist& nl) {
    offsets.push_back(0);
    for (GateId d = 0; d < nl.node_count(); ++d) {
      const auto span = ctx.load_terms(d);
      terms.insert(terms.end(), span.begin(), span.end());
      offsets.push_back(static_cast<std::uint32_t>(terms.size()));
    }
  }
};

// ---------------------------------------------------------------------------
// validate_topo_order
// ---------------------------------------------------------------------------

/// The context's walk order and ranks, copied out so a test can corrupt them.
struct TopoCopy {
  std::vector<GateId> order;
  std::vector<std::uint32_t> position;

  explicit TopoCopy(const sta::TimingContext& ctx)
      : order(ctx.topo_order()), position(ctx.topo_position().begin(), ctx.topo_position().end()) {}
};

TEST(ParanoidTopoOrder, AcceptsContextOrder) {
  const Bench bench(circuits::make_cla_adder(8));
  const TopoCopy topo(*bench.ctx);
  EXPECT_NO_THROW(debug::validate_topo_order(bench.nl, topo.order, topo.position));
}

TEST(ParanoidTopoOrder, TripsOnDuplicateNode) {
  const Bench bench(circuits::make_cla_adder(8));
  TopoCopy topo(*bench.ctx);
  topo.order[1] = topo.order[0];
  ExpectTrip([&] { debug::validate_topo_order(bench.nl, topo.order, topo.position); },
             "appears twice");
}

TEST(ParanoidTopoOrder, TripsOnWrongInverse) {
  // The order itself stays a valid topological order; only the ranks lie.
  const Bench bench(circuits::make_cla_adder(8));
  TopoCopy topo(*bench.ctx);
  std::swap(topo.position[topo.order[0]], topo.position[topo.order[1]]);
  ExpectTrip([&] { debug::validate_topo_order(bench.nl, topo.order, topo.position); },
             "position of node");
}

TEST(ParanoidTopoOrder, TripsOnFaninAfterNode) {
  // Hand-built chain a -> b listed backwards: a consistent permutation and
  // inverse, so only the fanin-before-node walk can catch it — the property
  // every walk of the order rests on.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_gate(netlist::GateFunc::kInv, {a}, "b");
  nl.add_output("y", b);
  const std::vector<GateId> order = {b, a};
  std::vector<std::uint32_t> position(2);
  position[b] = 0;
  position[a] = 1;
  ExpectTrip([&] { debug::validate_topo_order(nl, order, position); }, "comes after its node");
}

// ---------------------------------------------------------------------------
// validate_load_terms
// ---------------------------------------------------------------------------

TEST(ParanoidLoadTerms, AcceptsFreshCsr) {
  const Bench bench(circuits::make_cla_adder(8));
  const CsrCopy csr(*bench.ctx, bench.nl);
  EXPECT_NO_THROW(debug::validate_load_terms(bench.nl, csr.offsets, csr.terms));
}

TEST(ParanoidLoadTerms, AcceptsIscasCsr) {
  const Bench bench(circuits::make_table1_circuit("c432"));
  const CsrCopy csr(*bench.ctx, bench.nl);
  EXPECT_NO_THROW(debug::validate_load_terms(bench.nl, csr.offsets, csr.terms));
}

TEST(ParanoidLoadTerms, TripsOnSwappedTerms) {
  const Bench bench(circuits::make_cla_adder(8));
  CsrCopy csr(*bench.ctx, bench.nl);
  // Swap the first two terms of the first driver with >= 2 consumers: the
  // fold order changes, which under FP non-associativity is a determinism
  // bug even though the term *set* is intact.
  for (GateId d = 0; d < bench.nl.node_count(); ++d) {
    if (csr.offsets[d + 1] - csr.offsets[d] >= 2) {
      std::swap(csr.terms[csr.offsets[d]], csr.terms[csr.offsets[d] + 1]);
      ExpectTrip([&] { debug::validate_load_terms(bench.nl, csr.offsets, csr.terms); },
                 "want (");
      return;
    }
  }
  FAIL() << "no driver with two load terms in cla_adder(8)";
}

TEST(ParanoidLoadTerms, TripsOnNonMonotoneOffsets) {
  const Bench bench(circuits::make_cla_adder(8));
  CsrCopy csr(*bench.ctx, bench.nl);
  ASSERT_GE(csr.offsets.size(), 3u);
  std::swap(csr.offsets[1], csr.offsets[2]);
  if (csr.offsets[1] == csr.offsets[2]) csr.offsets[1] += 1;  // both empty: force it
  ExpectTrip([&] { debug::validate_load_terms(bench.nl, csr.offsets, csr.terms); },
             "decrease");
}

TEST(ParanoidLoadTerms, TripsOnDroppedTerm) {
  const Bench bench(circuits::make_cla_adder(8));
  CsrCopy csr(*bench.ctx, bench.nl);
  csr.terms.pop_back();  // offsets now claim one more term than exists
  ExpectTrip([&] { debug::validate_load_terms(bench.nl, csr.offsets, csr.terms); },
             "offsets end at");
}

TEST(ParanoidLoadTerms, TripsOnWrongOffsetArity) {
  const Bench bench(circuits::make_cla_adder(8));
  CsrCopy csr(*bench.ctx, bench.nl);
  csr.offsets.push_back(csr.offsets.back());
  ExpectTrip([&] { debug::validate_load_terms(bench.nl, csr.offsets, csr.terms); },
             "want node_count + 1");
}

// ---------------------------------------------------------------------------
// validate_pdf
// ---------------------------------------------------------------------------

TEST(ParanoidPdf, AcceptsWellFormedGridAndPointMass) {
  const std::vector<double> masses = {0.25, 0.5, 0.25};
  EXPECT_NO_THROW(debug::validate_pdf(10.0, 2.0, masses));
  const std::vector<double> point = {1.0};
  EXPECT_NO_THROW(debug::validate_pdf(5.0, 0.0, point));
}

TEST(ParanoidPdf, AcceptsEngineBuiltPdfs) {
  EXPECT_NO_THROW(debug::validate_pdf(pdf::DiscretePdf::normal(100.0, 8.0)));
  EXPECT_NO_THROW(debug::validate_pdf(pdf::DiscretePdf::point(42.0)));
}

TEST(ParanoidPdf, TripsOnEmptyMasses) {
  ExpectTrip([] { debug::validate_pdf(0.0, 1.0, {}); }, "empty mass vector");
}

TEST(ParanoidPdf, TripsOnUnnormalizedMasses) {
  const std::vector<double> masses = {0.25, 0.5, 0.15};  // sums to 0.9
  ExpectTrip([&] { debug::validate_pdf(0.0, 1.0, masses); }, "want 1");
}

TEST(ParanoidPdf, TripsOnNegativeMass) {
  const std::vector<double> masses = {0.6, -0.2, 0.6};  // sums to 1 but dips
  ExpectTrip([&] { debug::validate_pdf(0.0, 1.0, masses); }, "negative mass");
}

TEST(ParanoidPdf, TripsOnNanPoisoning) {
  const std::vector<double> masses = {0.5, std::numeric_limits<double>::quiet_NaN(), 0.5};
  ExpectTrip([&] { debug::validate_pdf(0.0, 1.0, masses); }, "non-finite mass");
}

TEST(ParanoidPdf, TripsOnNonFiniteOrigin) {
  const std::vector<double> masses = {1.0};
  ExpectTrip([&] { debug::validate_pdf(std::numeric_limits<double>::infinity(), 0.0, masses); },
             "non-finite origin");
}

TEST(ParanoidPdf, TripsOnPointMassWithNonzeroStep) {
  const std::vector<double> masses = {1.0};
  ExpectTrip([&] { debug::validate_pdf(0.0, 1.0, masses); }, "point mass must have step 0");
}

TEST(ParanoidPdf, TripsOnZeroStepGrid) {
  const std::vector<double> masses = {0.5, 0.5};
  ExpectTrip([&] { debug::validate_pdf(0.0, 0.0, masses); }, "grid step must be positive");
}

// ---------------------------------------------------------------------------
// validate_epoch
// ---------------------------------------------------------------------------

TEST(ParanoidEpoch, AcceptsPastAndPresentStamps) {
  EXPECT_NO_THROW(debug::validate_epoch("fullssta", 0, 0));
  EXPECT_NO_THROW(debug::validate_epoch("fullssta", 3, 7));
}

TEST(ParanoidEpoch, TripsOnFutureStamp) {
  // A speculation stamped *after* the analyzer's current epoch cannot exist
  // unless the epoch bookkeeping itself is corrupt — guard_epoch's normal
  // staleness error (stamp < epoch) never covers this direction.
  ExpectTrip([] { debug::validate_epoch("isle", 9, 4); }, "epoch bookkeeping corrupted");
}

// ---------------------------------------------------------------------------
// validate_structure_fresh
// ---------------------------------------------------------------------------

TEST(ParanoidStructureFresh, AcceptsMatchingVersion) {
  const Bench bench(circuits::make_cla_adder(8));
  EXPECT_NO_THROW(debug::validate_structure_fresh(*bench.ctx));
}

TEST(ParanoidStructureFresh, TripsAfterStructuralEdit) {
  Bench bench(circuits::make_cla_adder(8));
  bench.nl.add_input("late_pin");  // bumps structure_version
  ExpectTrip([&] { debug::validate_structure_fresh(*bench.ctx); }, "structure_version");
}

// ---------------------------------------------------------------------------
// validate_cone
// ---------------------------------------------------------------------------

/// A real cone from sta::collect_cone, copied out so a test can corrupt it.
struct ConeCopy {
  std::vector<GateId> seeds;
  std::vector<GateId> nodes;

  explicit ConeCopy(const Bench& bench) {
    // A primary input's fanout cone: deep enough to span several levels.
    seeds = {bench.nl.inputs()[0]};
    sta::ConeWorkspace ws;
    const std::span<const GateId> cone = sta::collect_cone(*bench.ctx, seeds, ws);
    nodes.assign(cone.begin(), cone.end());
  }
  void validate(const Bench& bench) const {
    debug::validate_cone(bench.nl, bench.ctx->topo_position(), seeds, nodes);
  }
};

TEST(ParanoidCone, AcceptsCollectedCone) {
  const Bench bench(circuits::make_cla_adder(8));
  const ConeCopy cone(bench);
  ASSERT_GE(cone.nodes.size(), 4u);
  EXPECT_NO_THROW(cone.validate(bench));
}

TEST(ParanoidCone, TripsOnDuplicateNode) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  cone.nodes[1] = cone.nodes[0];
  ExpectTrip([&] { cone.validate(bench); }, "appears twice");
}

TEST(ParanoidCone, TripsOnOutOfOrderNodes) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  std::swap(cone.nodes[0], cone.nodes[1]);
  ExpectTrip([&] { cone.validate(bench); }, "out of level order");
}

TEST(ParanoidCone, TripsOnMissingSeed) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  cone.seeds.push_back(bench.nl.inputs()[1]);  // a seed the cone never saw
  ExpectTrip([&] { cone.validate(bench); }, "seed");
}

TEST(ParanoidCone, TripsOnConeNotClosedUnderFanout) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  // Drop the last member: a sink's fanin closure is kept, but its driver's
  // fanout is gone.
  cone.nodes.pop_back();
  ExpectTrip([&] { cone.validate(bench); }, "not closed");
}

// ---------------------------------------------------------------------------
// Hot-path behaviour
// ---------------------------------------------------------------------------

TEST(ParanoidHotPath, GateMatchesCompileTimeFlag) {
  // paranoid_enabled() is the one runtime-queryable view of the compile-time
  // gate; tests and tools key skips on it, so it must agree with kParanoid.
  EXPECT_EQ(debug::paranoid_enabled(), debug::kParanoid);
}

TEST(ParanoidHotPath, UpdateRefusesStaleStructure) {
  // Structural edit under a live TimingContext: update() must refuse rather
  // than propagate over a stale topo order/CSR. The cheap version-check
  // throw exists in every build; under STATSIZER_PARANOID=ON the same entry
  // additionally runs the deep topo-order/CSR audits pinned above.
  Bench bench(circuits::make_cla_adder(8));
  EXPECT_NO_THROW(bench.ctx->update());
  bench.nl.add_input("late_pin");
  EXPECT_THROW(bench.ctx->update(), std::logic_error);
}

TEST(ParanoidHotPath, CleanFlowNeverTrips) {
  // The validators' acceptance direction, end to end: on healthy engine
  // state a full update + FULLSSTA pass must cross every paranoid call site
  // without tripping (when STATSIZER_PARANOID=OFF this still pins the
  // uninstrumented flow; check.sh --paranoid runs it instrumented).
  Bench bench(circuits::make_table1_circuit("c432"));
  EXPECT_NO_THROW(bench.ctx->update());
  ssta::FullSstaOptions opt;
  EXPECT_NO_THROW(ssta::run_fullssta(*bench.ctx, opt));
  debug::validate_topo_order(bench.nl, bench.ctx->topo_order(), bench.ctx->topo_position());
  const CsrCopy csr(*bench.ctx, bench.nl);
  debug::validate_load_terms(bench.nl, csr.offsets, csr.terms);
}

}  // namespace
}  // namespace statsizer
