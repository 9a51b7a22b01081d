// The one netlist assembler behind both netlist readers. A reader only
// parses its syntax into a NetlistSource; assemble_netlist builds the
// Netlist with one explicit-stack depth-first walk, so input depth is bounded
// by memory, not by the call stack: the inputs in declaration order, then
// each build_order net after its fanins, in pin order (the recursive
// post-order, so ids are topologically sorted). The walk owns every
// structural error, each a line-numbered kInvalidArgument: an undriven net
// (at the line that reads it), a combinational cycle (witness in
// Provenance::cycle), a fanin count outside netlist::func_arity, and an
// input declared twice or also driven.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_format/provenance.h"
#include "netlist/netlist.h"
#include "util/status.h"

namespace statsizer::bench_format {

/// The gate driving one net.
struct NetDriver {
  netlist::GateFunc func = netlist::GateFunc::kBuf;
  /// Fanin nets in pin order.
  std::vector<std::string_view> fanins;
  /// Line of the definition: where its errors point and what provenance records.
  int line = 0;
  /// Library binding; kUnmapped leaves the gate for the mapper.
  std::uint32_t cell_group = netlist::kUnmapped;
  std::uint16_t size_index = 0;
  /// Walk state, owned by assemble_netlist (readers leave the defaults).
  netlist::GateId id = netlist::kNoGate;
  bool on_path = false;
};

/// A reader's parse result. Every view points into text the reader keeps
/// alive until assemble_netlist returns.
struct NetlistSource {
  std::string module;
  struct Port {
    std::string_view name;
    int line = 0;
  };
  std::vector<Port> inputs;
  /// Net -> its driver (inputs excluded).
  std::unordered_map<std::string_view, NetDriver> drivers;
  /// Nets built in this order (each with its fanin cone first): every
  /// driver, so unreachable logic is materialized too.
  std::vector<std::string_view> build_order;
  struct Output {
    std::string_view name;
    /// The net the port aliases (its own name unless renamed).
    std::string_view net;
    /// Line of the declaration (provenance) and of the read of @p net (errors).
    int line = 0;
    int use_line = 0;
  };
  std::vector<Output> outputs;
};

/// Builds and checks the netlist @p source describes. @p provenance
/// (optional) receives name -> line for every port and node and, on a cycle,
/// the witness path.
[[nodiscard]] StatusOr<netlist::Netlist> assemble_netlist(NetlistSource source,
                                                          Provenance* provenance);

/// The readers' error: kInvalidArgument "line <line>: " followed by @p parts
/// (strings, string views or C strings).
template <typename... Parts>
[[nodiscard]] Status line_error(int line, const Parts&... parts) {
  std::string message = "line " + std::to_string(line) + ": ";
  (message.append(parts), ...);
  return Status::invalid_argument(std::move(message));
}

/// Reads a whole file; kInvalidArgument "cannot open <path>" when it cannot.
[[nodiscard]] StatusOr<std::string> read_text_file(const std::string& path);

}  // namespace statsizer::bench_format
