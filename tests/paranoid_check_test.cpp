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
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "debug/validate.h"
#include "liberty/synthetic.h"
#include "netlist/topo.h"
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
// validate_levelization
// ---------------------------------------------------------------------------

TEST(ParanoidLevelization, AcceptsFreshLevelization) {
  const Netlist nl = circuits::make_cla_adder(8);
  const netlist::Levelization lv = netlist::levelize(nl);
  EXPECT_NO_THROW(debug::validate_levelization(nl, lv));
}

TEST(ParanoidLevelization, TripsOnTruncatedLevelOf) {
  const Netlist nl = circuits::make_cla_adder(8);
  netlist::Levelization lv = netlist::levelize(nl);
  lv.level_of.pop_back();
  ExpectTrip([&] { debug::validate_levelization(nl, lv); }, "level_of covers");
}

TEST(ParanoidLevelization, TripsOnNonMonotoneOffsets) {
  const Netlist nl = circuits::make_cla_adder(8);
  netlist::Levelization lv = netlist::levelize(nl);
  ASSERT_GE(lv.level_offset.size(), 3u);
  std::swap(lv.level_offset[1], lv.level_offset[2]);
  ExpectTrip([&] { debug::validate_levelization(nl, lv); }, "level_offset decreases");
}

TEST(ParanoidLevelization, TripsOnDuplicateNodeInOrder) {
  const Netlist nl = circuits::make_cla_adder(8);
  netlist::Levelization lv = netlist::levelize(nl);
  // Overwrite the second member of level 0 with the first: a duplicate
  // inside one bucket, so the permutation audit fires before the
  // bucket-level one.
  ASSERT_GE(lv.level_offset[1], 2u);
  lv.order_by_level[1] = lv.order_by_level[0];
  ExpectTrip([&] { debug::validate_levelization(nl, lv); }, "appears twice");
}

TEST(ParanoidLevelization, TripsOnWrongBucketLevel) {
  const Netlist nl = circuits::make_cla_adder(8);
  netlist::Levelization lv = netlist::levelize(nl);
  // Lie about one node's level without moving it between buckets.
  const GateId victim = lv.order_by_level[lv.level_offset[1]];  // first level-1 node
  lv.level_of[victim] += 7;
  ExpectTrip([&] { debug::validate_levelization(nl, lv); }, "but level_of says");
}

TEST(ParanoidLevelization, TripsOnLevelDownEdge) {
  // Hand-built two-node chain a -> b presented as a single flat level:
  // internally consistent buckets (permutation + bucket levels check out),
  // so the only audit left to catch it is the strictly-level-up edge walk —
  // exactly the invariant the wavefront kernels' barrier placement rests on.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_gate(netlist::GateFunc::kInv, {a}, "b");
  nl.add_output("y", b);
  netlist::Levelization lv;
  lv.level_of = {0, 0};
  lv.level_offset = {0, 2};
  lv.order_by_level = {a, b};
  lv.structure_version = nl.structure_version();
  ExpectTrip([&] { debug::validate_levelization(nl, lv); }, "not strictly level-up");
}

TEST(ParanoidLevelization, TripsOnSourceAboveLevelZero) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_gate(netlist::GateFunc::kInv, {a}, "b");
  nl.add_output("y", b);
  netlist::Levelization lv;
  lv.level_of = {1, 2};  // fanin-less node hoisted off level 0
  lv.level_offset = {0, 0, 1, 2};
  lv.order_by_level = {a, b};
  lv.structure_version = nl.structure_version();
  ExpectTrip([&] { debug::validate_levelization(nl, lv); }, "fanin-less node");
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
  const Netlist nl = circuits::make_cla_adder(8);
  const netlist::Levelization lv = netlist::levelize(nl);
  EXPECT_NO_THROW(debug::validate_structure_fresh(nl, lv));
}

TEST(ParanoidStructureFresh, TripsAfterStructuralEdit) {
  Netlist nl = circuits::make_cla_adder(8);
  const netlist::Levelization lv = netlist::levelize(nl);
  nl.add_input("late_pin");  // bumps structure_version
  ExpectTrip([&] { debug::validate_structure_fresh(nl, lv); }, "structure_version");
}

// ---------------------------------------------------------------------------
// validate_cone
// ---------------------------------------------------------------------------

/// A real cone from sta::collect_cone, copied out so a test can corrupt it.
struct ConeCopy {
  std::vector<GateId> seeds;
  std::vector<GateId> nodes;
  std::vector<std::uint32_t> level_offset;

  explicit ConeCopy(const Bench& bench) {
    // A primary input's fanout cone: deep enough to span several levels.
    seeds = {bench.nl.inputs()[0]};
    sta::ConeWorkspace ws;
    const sta::LevelList cone = sta::collect_cone(*bench.ctx, seeds, ws);
    nodes.assign(cone.nodes.begin(), cone.nodes.end());
    level_offset.assign(cone.level_offset.begin(), cone.level_offset.end());
  }
  void validate(const Bench& bench) const {
    debug::validate_cone(bench.nl, bench.ctx->levelization(), seeds, nodes, level_offset);
  }
};

TEST(ParanoidCone, AcceptsCollectedCone) {
  const Bench bench(circuits::make_cla_adder(8));
  const ConeCopy cone(bench);
  ASSERT_GE(cone.nodes.size(), 4u);
  EXPECT_NO_THROW(cone.validate(bench));
}

/// First slot whose successor sits in the same level bucket.
std::uint32_t first_same_level_pair(const ConeCopy& cone) {
  for (std::size_t l = 0; l + 1 < cone.level_offset.size(); ++l) {
    if (cone.level_offset[l + 1] - cone.level_offset[l] >= 2) return cone.level_offset[l];
  }
  throw std::logic_error("cone has no level with two members");
}

TEST(ParanoidCone, TripsOnDuplicateNode) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  const std::uint32_t s = first_same_level_pair(cone);
  cone.nodes[s + 1] = cone.nodes[s];  // same level, so the buckets still check out
  ExpectTrip([&] { cone.validate(bench); }, "appears twice");
}

TEST(ParanoidCone, TripsOnOutOfOrderNodes) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  const std::uint32_t s = first_same_level_pair(cone);
  std::swap(cone.nodes[s], cone.nodes[s + 1]);  // buckets check out, order does not
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
  // Drop the last member (a sink's fanin closure is kept, but its driver's
  // fanout is gone) and shrink its level's bucket accordingly.
  cone.nodes.pop_back();
  for (std::uint32_t& off : cone.level_offset) {
    off = std::min<std::uint32_t>(off, static_cast<std::uint32_t>(cone.nodes.size()));
  }
  ExpectTrip([&] { cone.validate(bench); }, "not closed");
}

TEST(ParanoidCone, TripsOnWrongLevelBucket) {
  const Bench bench(circuits::make_cla_adder(8));
  ConeCopy cone(bench);
  ASSERT_GE(cone.level_offset.size(), 3u);
  cone.level_offset[1] += 1;  // pull a level-1 member into level 0's bucket
  ExpectTrip([&] { cone.validate(bench); }, "bucket");
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
  // than propagate over a stale levelization/CSR. The cheap version-check
  // throw exists in every build; under STATSIZER_PARANOID=ON the same entry
  // additionally runs the deep levelization/CSR audits pinned above.
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
  debug::validate_levelization(bench.nl, bench.ctx->levelization());
  const CsrCopy csr(*bench.ctx, bench.nl);
  debug::validate_load_terms(bench.nl, csr.offsets, csr.terms);
}

}  // namespace
}  // namespace statsizer
