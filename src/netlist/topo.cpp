#include "netlist/topo.h"

#include <algorithm>
#include <stdexcept>

namespace statsizer::netlist {

namespace {
/// Kahn's algorithm; returns empty vector if a cycle prevents completion.
std::vector<GateId> kahn(const Netlist& nl) {
  const std::size_t n = nl.node_count();
  std::vector<std::uint32_t> pending(n);
  std::vector<GateId> ready;
  ready.reserve(n);
  for (GateId id = 0; id < n; ++id) {
    pending[id] = static_cast<std::uint32_t>(nl.gate(id).fanins.size());
    if (pending[id] == 0) ready.push_back(id);
  }
  std::vector<GateId> order;
  order.reserve(n);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId id = ready[head];
    order.push_back(id);
    for (GateId consumer : nl.gate(id).fanouts) {
      if (--pending[consumer] == 0) ready.push_back(consumer);
    }
  }
  if (order.size() != n) order.clear();
  return order;
}
}  // namespace

std::vector<GateId> topological_order(const Netlist& nl) {
  std::vector<GateId> order = kahn(nl);
  if (order.empty() && nl.node_count() != 0) {
    throw std::logic_error("topological_order: netlist has a combinational cycle");
  }
  return order;
}

bool is_acyclic(const Netlist& nl) {
  return nl.node_count() == 0 || !kahn(nl).empty();
}

std::vector<std::uint32_t> levels(const Netlist& nl) {
  std::vector<std::uint32_t> level(nl.node_count(), 0);
  for (GateId id : topological_order(nl)) {
    std::uint32_t lv = 0;
    for (GateId f : nl.gate(id).fanins) lv = std::max(lv, level[f] + 1);
    level[id] = lv;
  }
  return level;
}

std::uint32_t depth(const Netlist& nl) {
  const auto lv = levels(nl);
  return lv.empty() ? 0 : *std::max_element(lv.begin(), lv.end());
}

std::vector<bool> observable_mask(const Netlist& nl) {
  std::vector<bool> mask(nl.node_count(), false);
  std::vector<GateId> stack;
  for (const Output& o : nl.outputs()) {
    if (!mask[o.driver]) {
      mask[o.driver] = true;
      stack.push_back(o.driver);
    }
  }
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    for (GateId f : nl.gate(id).fanins) {
      if (!mask[f]) {
        mask[f] = true;
        stack.push_back(f);
      }
    }
  }
  return mask;
}

}  // namespace statsizer::netlist
