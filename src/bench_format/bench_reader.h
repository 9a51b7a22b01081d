// Reader for the ISCAS-85/89 ".bench" netlist format:
//
//   # comment
//   INPUT(G1)
//   OUTPUT(G23)
//   G10 = NAND(G1, G3)
//   G11 = NOT(G10)
//
// Supported functions: AND, NAND, OR, NOR, XOR, NXOR/XNOR, NOT, BUF/BUFF;
// a 1-input AND/OR reads as BUF and a 1-input NAND/NOR as INV. DFFs are
// rejected (this library models combinational timing only). The reader only
// parses: definitions may appear in any order, and assemble_netlist
// (assemble.h) builds the netlist, reporting undriven nets, combinational
// cycles (with the witness path) and wrong fanin counts with line numbers.
// A duplicated OUTPUT declaration is *not* an error: both primary outputs
// are materialized and the DRC layer reports the multi-driven net with
// provenance.
#pragma once

#include <string_view>

#include "bench_format/provenance.h"
#include "netlist/netlist.h"
#include "util/status.h"

namespace statsizer::bench_format {

/// Parses .bench text into a netlist. @p name names the resulting netlist.
/// @p provenance (optional) receives name -> line locations and, on cycle
/// failure, the witness path.
[[nodiscard]] StatusOr<netlist::Netlist> read_bench(std::string_view text,
                                                    std::string name = "bench",
                                                    Provenance* provenance = nullptr);

/// Reads a .bench file from disk.
[[nodiscard]] StatusOr<netlist::Netlist> read_bench_file(const std::string& path,
                                                         Provenance* provenance = nullptr);

}  // namespace statsizer::bench_format
