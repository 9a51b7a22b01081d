#include "techmap/mapper.h"

#include <algorithm>
#include <vector>

namespace statsizer::techmap {

using liberty::Library;
using netlist::GateFunc;
using netlist::GateId;
using netlist::Netlist;

namespace {

/// Largest arity the library offers for @p func (0 if none).
std::size_t max_arity_for(const Library& lib, GateFunc func) {
  std::size_t best = 0;
  for (const auto& g : lib.groups()) {
    if (g.func() == func) best = std::max(best, g.arity());
  }
  return best;
}

/// True if the library has a group for exactly (func, arity).
bool has_group(const Library& lib, GateFunc func, std::size_t arity) {
  return lib.find_group(func, arity).has_value();
}

/// The associative "inner" function for tree decomposition of @p func:
/// NAND decomposes over AND chunks, NOR over OR, XNOR over XOR.
GateFunc inner_func(GateFunc func) {
  switch (func) {
    case GateFunc::kNand: return GateFunc::kAnd;
    case GateFunc::kNor: return GateFunc::kOr;
    case GateFunc::kXnor: return GateFunc::kXor;
    default: return func;
  }
}

}  // namespace

Status map_to_library(Netlist& nl, const Library& lib) {
  // Pass 1: decompose gates whose arity exceeds the library's offering.
  // New gates are appended, so iterate by index over the original count and
  // let appended gates (which are always within limits) be handled in pass 2.
  const std::size_t original_count = nl.node_count();
  for (GateId id = 0; id < original_count; ++id) {
    const GateFunc func = nl.gate(id).func;
    if (func == GateFunc::kInput || func == GateFunc::kConst0 || func == GateFunc::kConst1) {
      continue;
    }
    const std::size_t arity = nl.gate(id).fanins.size();
    const std::size_t max_here = max_arity_for(lib, func);
    if (max_here >= arity && has_group(lib, func, arity)) continue;

    // Need decomposition. Associative chunks use the inner function's widest
    // cells; the original gate becomes the tree's final stage so its fanouts
    // and identity (name, PO references) are untouched.
    const GateFunc inner = inner_func(func);
    const std::size_t inner_width = max_arity_for(lib, inner);
    const std::size_t final_width = max_arity_for(lib, func);
    if (inner_width < 2 || final_width < 1) {
      return Status::error("library lacks cells for function " +
                           std::string(netlist::func_name(func)));
    }
    if (arity < 2) {
      return Status::error("cannot map 1-input " + std::string(netlist::func_name(func)));
    }

    std::vector<GateId> fanins = nl.gate(id).fanins;
    // Reduce with inner gates until at most final_width operands remain, then
    // rewire the original gate over the remaining operands. Each reduction
    // round must make progress (inner_width >= 2 guarantees it).
    while (fanins.size() > final_width) {
      std::vector<GateId> next;
      for (std::size_t i = 0; i < fanins.size(); i += inner_width) {
        const std::size_t n = std::min(inner_width, fanins.size() - i);
        if (n == 1) {
          next.push_back(fanins[i]);
        } else {
          next.push_back(
              nl.add_gate(inner, std::span<const GateId>(fanins.data() + i, n)));
        }
      }
      fanins = std::move(next);
    }
    // The final stage keeps the original (possibly inverting) function when a
    // group of that arity exists; a 1-operand remainder for inverting
    // functions becomes INV, for associative ones BUF.
    GateFunc final_func = func;
    if (fanins.size() == 1) {
      final_func = netlist::is_inverting(func) ? GateFunc::kInv : GateFunc::kBuf;
    } else if (!has_group(lib, func, fanins.size())) {
      // e.g. XNOR4 asked over {XNOR2}: split further so the last stage fits.
      while (!has_group(lib, func, fanins.size())) {
        if (fanins.size() <= 2) {
          return Status::error("library lacks cells for function " +
                               std::string(netlist::func_name(func)) + " arity " +
                               std::to_string(fanins.size()));
        }
        // Merge the two front operands with the inner function.
        const GateId merged = nl.add_gate(
            inner, std::span<const GateId>(fanins.data(), 2));
        fanins.erase(fanins.begin());
        fanins[0] = merged;
      }
    }
    nl.rewire(id, final_func, fanins);
  }

  // Pass 2: bind every logic gate to its group and seed the size index.
  for (GateId id = 0; id < nl.node_count(); ++id) {
    auto& g = nl.gate(id);
    if (g.func == GateFunc::kInput || g.func == GateFunc::kConst0 ||
        g.func == GateFunc::kConst1) {
      g.cell_group = netlist::kUnmapped;
      continue;
    }
    const auto group = lib.find_group(g.func, g.fanins.size());
    if (!group.has_value()) {
      return Status::error("no library cell for " + std::string(netlist::func_name(g.func)) +
                           " arity " + std::to_string(g.fanins.size()) + " (gate " + g.name +
                           ")");
    }
    g.cell_group = *group;
    g.size_index = 0;
  }
  return Status();
}

bool is_mapped(const Netlist& nl, const Library& lib) {
  for (GateId id = 0; id < nl.node_count(); ++id) {
    const auto& g = nl.gate(id);
    if (g.func == GateFunc::kInput || g.func == GateFunc::kConst0 ||
        g.func == GateFunc::kConst1) {
      continue;
    }
    if (g.cell_group == netlist::kUnmapped || g.cell_group >= lib.groups().size()) return false;
    const auto& group = lib.group(g.cell_group);
    if (group.func() != g.func || group.arity() != g.fanins.size()) return false;
    if (g.size_index >= group.size_count()) return false;
  }
  return true;
}

}  // namespace statsizer::techmap
