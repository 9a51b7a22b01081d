#include "circuits/iscas_suite.h"

#include <stdexcept>

#include "circuits/generators.h"

namespace statsizer::circuits {

const std::vector<std::string>& table1_names() {
  static const std::vector<std::string> kNames = {
      "alu1", "alu2", "alu3", "c432",  "c499",  "c880",  "c1355",
      "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"};
  return kNames;
}

const std::vector<std::string>& scaled_workload_names() {
  static const std::vector<std::string> kNames = {"mul32", "mul64", "pipe64", "mesh8"};
  return kNames;
}

std::optional<Table1Reference> table1_reference(std::string_view name) {
  // Columns from the paper's Table 1: gates, original sigma/mu, and the
  // sigma reductions at lambda = 3 / lambda = 9.
  static const std::vector<Table1Reference> kRefs = {
      {"alu1", 234, 0.124, -0.54, -0.80},  {"alu2", 161, 0.147, -0.71, -0.86},
      {"alu3", 215, 0.127, -0.61, -0.75},  {"c432", 203, 0.093, -0.58, -0.75},
      {"c499", 381, 0.077, -0.63, -0.76},  {"c880", 301, 0.092, -0.57, -0.79},
      {"c1355", 378, 0.081, -0.63, -0.71}, {"c1908", 563, 0.076, -0.44, -0.71},
      {"c2670", 820, 0.068, -0.42, -0.76}, {"c3540", 1245, 0.062, -0.56, -0.70},
      {"c5315", 2318, 0.043, -0.36, -0.68}, {"c6288", 2980, 0.021, -0.28, -0.47},
      {"c7552", 2763, 0.043, -0.50, -0.66},
  };
  for (const auto& r : kRefs) {
    if (r.name == name) return r;
  }
  return std::nullopt;
}

netlist::Netlist make_table1_circuit(std::string_view name) {
  // ALUs: shallow carry-lookahead datapaths — the high sigma/mu end.
  if (name == "alu1") {
    AluOptions o;
    o.bits = 16;
    o.with_shifter = false;
    auto nl = make_alu(o);
    nl.set_name("alu1");
    return nl;
  }
  if (name == "alu2") {
    AluOptions o;
    o.bits = 10;
    auto nl = make_alu(o);
    nl.set_name("alu2");
    return nl;
  }
  if (name == "alu3") {
    AluOptions o;
    o.bits = 14;
    auto nl = make_alu(o);
    nl.set_name("alu3");
    return nl;
  }
  // c432: 27-channel priority interrupt controller.
  if (name == "c432") {
    auto nl = make_interrupt_controller(27, 3);
    nl.set_name("c432");
    return nl;
  }
  // c499 / c1355: 32-bit single-error corrector; c1355 is the NAND-expanded
  // variant (the genuine c1355 is c499 with XORs expanded).
  if (name == "c499") {
    auto nl = make_hamming_sec(32, /*expand_xor=*/false);
    nl.set_name("c499");
    return nl;
  }
  if (name == "c1355") {
    auto nl = make_hamming_sec(32, /*expand_xor=*/true);
    nl.set_name("c1355");
    return nl;
  }
  // c880: 8-bit ALU with shifter.
  if (name == "c880") {
    AluOptions o;
    o.bits = 8;
    o.with_shifter = true;
    auto nl = make_alu(o);
    nl.set_name("c880");
    return nl;
  }
  // c1908: 16-bit SEC/DED encode+correct chain (NAND-heavy).
  if (name == "c1908") {
    auto nl = make_sec_ded(16, /*expand_xor=*/true);
    nl.set_name("c1908");
    return nl;
  }
  // c2670: 12-bit ALU + controller.
  if (name == "c2670") {
    AluSystemOptions o;
    o.alu_bits = 12;
    o.alu_count = 1;
    o.interrupt_channels = 18;
    o.comparator_bits = 12;
    auto nl = make_alu_system(o);
    nl.set_name("c2670");
    return nl;
  }
  // c3540: 8-bit binary/BCD ALU (4 BCD digits = 16 bits gives the closest
  // mapped size).
  if (name == "c3540") {
    auto nl = make_bcd_alu(4);
    nl.set_name("c3540");
    return nl;
  }
  // c5315: 9-bit ALU system with two ALUs and a multiplier.
  if (name == "c5315") {
    AluSystemOptions o;
    o.alu_bits = 9;
    o.alu_count = 2;
    o.multiplier_bits = 8;
    o.interrupt_channels = 27;
    o.comparator_bits = 16;
    auto nl = make_alu_system(o);
    nl.set_name("c5315");
    return nl;
  }
  // c6288: 16x16 array multiplier, NAND-level full adders — the deep,
  // low-sigma/mu extreme.
  if (name == "c6288") {
    auto nl = make_array_multiplier(16, /*expand_xor=*/true);
    nl.set_name("c6288");
    return nl;
  }
  // c7552: 32-bit adder/comparator datapath.
  if (name == "c7552") {
    auto nl = make_adder_comparator(32);
    nl.set_name("c7552");
    return nl;
  }
  // Scaled fabrics (scaled_workload_names): 10k-100k-gate workloads with
  // wide levels.
  if (name == "mul32") {
    auto nl = make_array_multiplier(32, /*expand_xor=*/true);
    nl.set_name("mul32");
    return nl;
  }
  if (name == "mul64") {
    auto nl = make_array_multiplier(64, /*expand_xor=*/true);
    nl.set_name("mul64");
    return nl;
  }
  if (name == "pipe64") {
    auto nl = make_pipelined_datapath(PipelineOptions{});
    nl.set_name("pipe64");
    return nl;
  }
  if (name == "mesh8") {
    auto nl = make_mesh_interconnect(MeshOptions{});
    nl.set_name("mesh8");
    return nl;
  }
  throw std::invalid_argument("make_table1_circuit: unknown circuit '" + std::string(name) +
                              "'");
}

}  // namespace statsizer::circuits
