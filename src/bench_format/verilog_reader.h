// Reader for structural gate-level Verilog, the netlist exchange format of
// the standard sizing flows (cell library + netlist + SDC -> STA -> sizing
// -> write-back):
//
//   // comment
//   module c17 (N1, N2, N22);
//     input N1, N2;
//     output N22;
//     wire n5;
//     NAND2_X1 u0 (.A1(N1), .A2(N2), .ZN(n5));
//     NAND2_X2 u1 (.A1(n5), .A2(N2), .ZN(N22));
//   endmodule
//
// Supported subset:
//   * one module per file; `//` and `/* */` comments,
//   * `input` / `output` / `wire` declarations (comma lists, no vectors —
//     buses are flattened, bit names via escaped identifiers `\a[3] `),
//   * cell instantiations with *named* pin connections, where the cell name
//     is resolved against the given liberty::Library (drive suffix and all:
//     "NAND2_X4" binds group NAND2 at the X4 size),
//   * `assign <net> = 1'b0;` / `1'b1` constant drivers (kConst nodes), and
//   * `assign <output port> = <net>;` to alias a primary output to its
//     driving net (no other expressions).
//
// The returned netlist is fully mapped (techmap::is_mapped holds): every
// gate carries the cell_group/size_index its instantiation named, so sized
// netlists written by write_verilog round-trip losslessly. The reader parses,
// binds cells, matches pins and classifies assigns, reporting undeclared
// nets, unknown cells or pins and duplicate drivers with line numbers;
// assemble_netlist (assemble.h) builds the netlist from that, constants
// first, and reports undriven nets and combinational cycles. Instances may
// appear in any order.
#pragma once

#include <string_view>

#include "bench_format/provenance.h"
#include "liberty/model.h"
#include "netlist/netlist.h"
#include "util/status.h"

namespace statsizer::bench_format {

/// Parses structural Verilog against @p lib. The netlist takes the module's
/// name. @p provenance (optional) receives net -> line locations and, on
/// cycle failure, the witness path.
[[nodiscard]] StatusOr<netlist::Netlist> read_verilog(std::string_view text,
                                                      const liberty::Library& lib,
                                                      Provenance* provenance = nullptr);

/// Reads a structural-Verilog file from disk.
[[nodiscard]] StatusOr<netlist::Netlist> read_verilog_file(const std::string& path,
                                                           const liberty::Library& lib,
                                                           Provenance* provenance = nullptr);

}  // namespace statsizer::bench_format
