// Technology binding: assigns every logic gate a library cell group at its
// smallest size, decomposing gates whose arity exceeds what the library offers
// (e.g. a 9-input AND from a .bench file) into balanced trees of library
// cells. Logic function is preserved exactly (verified by simulation in the
// test suite).
#pragma once

#include "liberty/model.h"
#include "netlist/netlist.h"
#include "util/status.h"

namespace statsizer::techmap {

/// Maps @p nl in place onto @p lib. After success every non-input,
/// non-constant gate has a valid cell_group and arity within the library's
/// limits, bound at size 0 (minimum drive, the deterministic sizer's seed).
/// Fails (without completing the mapping) if the library lacks a cell family
/// for some function.
[[nodiscard]] Status map_to_library(netlist::Netlist& nl, const liberty::Library& lib);

/// True if every logic gate of @p nl is bound to a group of @p lib with a
/// compatible arity and an in-range size index.
[[nodiscard]] bool is_mapped(const netlist::Netlist& nl, const liberty::Library& lib);

}  // namespace statsizer::techmap
