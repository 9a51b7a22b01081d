#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "netlist/sim.h"
#include "netlist/topo.h"
#include "util/rng.h"

namespace statsizer::circuits {
namespace {

using netlist::GateId;
using netlist::Netlist;
using netlist::Simulator;

/// Packs integer @p value into per-bit 64-wide words for bus inputs.
void drive_bus(std::vector<std::uint64_t>& words, std::size_t offset, unsigned width,
               std::uint64_t value, unsigned lane) {
  for (unsigned i = 0; i < width; ++i) {
    if ((value >> i) & 1u) words[offset + i] |= 1ULL << lane;
  }
}

std::uint64_t read_bus(const std::vector<std::uint64_t>& outs, std::size_t offset,
                       unsigned width, unsigned lane) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    if ((outs[offset + i] >> lane) & 1u) v |= 1ULL << i;
  }
  return v;
}

// ---------------------------------------------------------------------------
// adders
// ---------------------------------------------------------------------------

class AdderTest : public ::testing::TestWithParam<std::tuple<bool, unsigned>> {};

TEST_P(AdderTest, AddsCorrectly) {
  const auto [use_cla, bits] = GetParam();
  const Netlist nl = use_cla ? make_cla_adder(bits) : make_ripple_adder(bits);
  ASSERT_EQ(nl.inputs().size(), 2u * bits + 1);
  const Simulator sim(nl);

  util::Rng rng(bits * 7 + (use_cla ? 1 : 0));
  std::vector<std::uint64_t> words(nl.inputs().size(), 0);
  std::vector<std::uint64_t> a_vals(64);
  std::vector<std::uint64_t> b_vals(64);
  std::vector<bool> cins(64);
  const std::uint64_t mask = bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
  for (unsigned lane = 0; lane < 64; ++lane) {
    a_vals[lane] = rng.index(mask + 1);
    b_vals[lane] = rng.index(mask + 1);
    cins[lane] = rng.flip();
    drive_bus(words, 0, bits, a_vals[lane], lane);
    drive_bus(words, bits, bits, b_vals[lane], lane);
    if (cins[lane]) words[2 * bits] |= 1ULL << lane;
  }
  const auto outs = sim.eval(words);
  for (unsigned lane = 0; lane < 64; ++lane) {
    const std::uint64_t expect = a_vals[lane] + b_vals[lane] + (cins[lane] ? 1 : 0);
    const std::uint64_t sum = read_bus(outs, 0, bits, lane);
    const bool cout = (outs[bits] >> lane) & 1u;
    EXPECT_EQ(sum, expect & mask);
    EXPECT_EQ(cout, ((expect >> bits) & 1u) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(2u, 3u, 4u, 8u, 16u, 32u)),
                         [](const auto& info) {
                           return std::string(std::get<0>(info.param) ? "cla" : "rca") +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Adder, ExpandedXorVariantStillAdds) {
  const Netlist plain = make_ripple_adder(8, false);
  const Netlist expanded = make_ripple_adder(8, true);
  EXPECT_GT(expanded.logic_gate_count(), plain.logic_gate_count());
  EXPECT_TRUE(netlist::probably_equivalent(plain, expanded, 3));
}

// ---------------------------------------------------------------------------
// multiplier
// ---------------------------------------------------------------------------

class MultiplierTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiplierTest, Multiplies) {
  const unsigned bits = GetParam();
  const Netlist nl = make_array_multiplier(bits, /*expand_xor=*/false);
  const Simulator sim(nl);
  util::Rng rng(bits);
  std::vector<std::uint64_t> words(nl.inputs().size(), 0);
  std::vector<std::uint64_t> a_vals(64);
  std::vector<std::uint64_t> b_vals(64);
  const std::uint64_t mask = (1ULL << bits) - 1;
  for (unsigned lane = 0; lane < 64; ++lane) {
    a_vals[lane] = rng.index(mask + 1);
    b_vals[lane] = rng.index(mask + 1);
    drive_bus(words, 0, bits, a_vals[lane], lane);
    drive_bus(words, bits, bits, b_vals[lane], lane);
  }
  const auto outs = sim.eval(words);
  for (unsigned lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(read_bus(outs, 0, 2 * bits, lane), a_vals[lane] * b_vals[lane])
        << a_vals[lane] << " * " << b_vals[lane];
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplierTest, ::testing::Values(2u, 3u, 4u, 8u, 16u));

TEST(Multiplier, C6288ClassShape) {
  const Netlist nl = make_array_multiplier(16, /*expand_xor=*/true);
  // The NAND-expanded 16x16 multiplier is the deep end of Table 1.
  EXPECT_GT(nl.logic_gate_count(), 2000u);
  EXPECT_GT(netlist::depth(nl), 70u);
  EXPECT_TRUE(netlist::probably_equivalent(make_array_multiplier(16, false), nl, 4));
}

// ---------------------------------------------------------------------------
// ALU
// ---------------------------------------------------------------------------

TEST(Alu, ArithmeticAndLogicOps) {
  AluOptions opt;
  opt.bits = 8;
  const Netlist nl = make_alu(opt);
  const Simulator sim(nl);
  const unsigned n = opt.bits;
  const std::uint64_t mask = (1ULL << n) - 1;

  // Input order: a[8], b[8], op0, op1, op2, cin.
  const std::size_t op0 = 2 * n, op1 = 2 * n + 1, op2 = 2 * n + 2, cin = 2 * n + 3;
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t a = rng.index(mask + 1);
    const std::uint64_t b = rng.index(mask + 1);
    // (op2, op1, op0): 000 AND, 001 OR, 010 XOR, 011 ADD, 100 NOR,
    // 101 pass-A, 110 XOR, 111 SUB.
    struct OpCase {
      unsigned op;
      std::uint64_t expect;
    };
    const OpCase cases[] = {
        {0b000, a & b},
        {0b001, a | b},
        {0b010, a ^ b},
        {0b011, (a + b) & mask},
        {0b100, ~(a | b) & mask},
        {0b101, a},
        {0b111, (a - b) & mask},
    };
    for (const auto& c : cases) {
      std::vector<std::uint64_t> words(nl.inputs().size(), 0);
      drive_bus(words, 0, n, a, 0);
      drive_bus(words, n, n, b, 0);
      if (c.op & 1u) words[op0] = 1;
      if (c.op & 2u) words[op1] = 1;
      if (c.op & 4u) words[op2] = 1;
      words[cin] = 0;
      const auto outs = sim.eval(words);
      EXPECT_EQ(read_bus(outs, 0, n, 0), c.expect)
          << "a=" << a << " b=" << b << " op=" << c.op;
    }
  }
}

TEST(Alu, ZeroFlag) {
  AluOptions opt;
  opt.bits = 4;
  const Netlist nl = make_alu(opt);
  const Simulator sim(nl);
  // a XOR a = 0 -> zero flag set. op=010.
  std::vector<std::uint64_t> words(nl.inputs().size(), 0);
  drive_bus(words, 0, 4, 0b1010, 0);
  drive_bus(words, 4, 4, 0b1010, 0);
  words[9] = 1;  // op1
  const auto outs = sim.eval(words);
  // Outputs: f[4], cout, zero, sign, ovf, parity.
  EXPECT_EQ(read_bus(outs, 0, 4, 0), 0u);
  EXPECT_EQ(outs[5] & 1u, 1u);  // zero
}

// ---------------------------------------------------------------------------
// Hamming SEC
// ---------------------------------------------------------------------------

class HammingTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HammingTest, CorrectsEverySingleDataBitError) {
  const unsigned data_bits = GetParam();
  const Netlist nl = make_hamming_sec(data_bits);
  const Simulator sim(nl);

  // Compute check bits for a given data word (matching the generator's
  // layout: data at non-power positions, check bit i covers positions with
  // bit i set).
  unsigned r = 1;
  while ((1u << r) < data_bits + r + 1) ++r;
  std::vector<unsigned> data_pos;
  for (unsigned pos = 1; data_pos.size() < data_bits; ++pos) {
    if ((pos & (pos - 1)) != 0) data_pos.push_back(pos);
  }

  util::Rng rng(data_bits);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<bool> data(data_bits);
    for (unsigned i = 0; i < data_bits; ++i) data[i] = rng.flip();
    std::vector<bool> check(r, false);
    for (unsigned i = 0; i < data_bits; ++i) {
      if (!data[i]) continue;
      for (unsigned j = 0; j < r; ++j) {
        if ((data_pos[i] >> j) & 1u) check[j] = !check[j];
      }
    }
    // Flip each data bit in turn; the corrector must restore it.
    for (unsigned flip = 0; flip < data_bits; ++flip) {
      std::vector<bool> inputs;
      for (unsigned i = 0; i < data_bits; ++i) {
        inputs.push_back(i == flip ? !data[i] : data[i]);
      }
      for (unsigned j = 0; j < r; ++j) inputs.push_back(check[j]);
      const auto outs = netlist::eval_single(nl, inputs);
      for (unsigned i = 0; i < data_bits; ++i) {
        EXPECT_EQ(outs[i], data[i]) << "flip " << flip << " bit " << i;
      }
      EXPECT_TRUE(outs[data_bits]);  // err flag
    }
    // No error: data passes through, err = 0.
    std::vector<bool> clean(data.begin(), data.end());
    for (unsigned j = 0; j < r; ++j) clean.push_back(check[j]);
    const auto outs = netlist::eval_single(nl, clean);
    for (unsigned i = 0; i < data_bits; ++i) EXPECT_EQ(outs[i], data[i]);
    EXPECT_FALSE(outs[data_bits]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HammingTest, ::testing::Values(4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------------
// SEC-DED
// ---------------------------------------------------------------------------

TEST(SecDed, SingleErrorsCorrectedDoubleErrorsDetected) {
  const unsigned data_bits = 16;
  const Netlist nl = make_sec_ded(data_bits, /*expand_xor=*/false);
  const Simulator sim(nl);

  unsigned r = 1;
  while ((1u << r) < data_bits + r + 1) ++r;
  const unsigned total = data_bits + r + 1;  // + overall parity

  util::Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<bool> data(data_bits);
    for (unsigned i = 0; i < data_bits; ++i) data[i] = rng.flip();

    const auto run = [&](const std::vector<bool>& flip) {
      std::vector<bool> inputs(data.begin(), data.end());
      inputs.insert(inputs.end(), flip.begin(), flip.end());
      return netlist::eval_single(nl, inputs);
    };

    // Clean channel.
    {
      const auto outs = run(std::vector<bool>(total, false));
      for (unsigned i = 0; i < data_bits; ++i) EXPECT_EQ(outs[i], data[i]);
      EXPECT_FALSE(outs[data_bits]);      // single_err
      EXPECT_FALSE(outs[data_bits + 1]);  // double_err
    }
    // Every single-bit channel error is corrected and flagged.
    for (unsigned e = 0; e < total; ++e) {
      std::vector<bool> flip(total, false);
      flip[e] = true;
      const auto outs = run(flip);
      for (unsigned i = 0; i < data_bits; ++i) {
        EXPECT_EQ(outs[i], data[i]) << "error at " << e;
      }
      EXPECT_TRUE(outs[data_bits]) << "error at " << e;
      EXPECT_FALSE(outs[data_bits + 1]) << "error at " << e;
    }
    // Double errors are detected (not corrected).
    for (int k = 0; k < 10; ++k) {
      const unsigned e1 = rng.index(total);
      unsigned e2 = rng.index(total);
      while (e2 == e1) e2 = rng.index(total);
      std::vector<bool> flip(total, false);
      flip[e1] = flip[e2] = true;
      const auto outs = run(flip);
      EXPECT_TRUE(outs[data_bits + 1]) << e1 << "," << e2;
    }
  }
}

// ---------------------------------------------------------------------------
// interrupt controller
// ---------------------------------------------------------------------------

TEST(InterruptController, HighestPriorityWins) {
  const unsigned channels = 27;
  const Netlist nl = make_interrupt_controller(channels, 3);
  util::Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<bool> inputs(nl.inputs().size(), false);
    // req[27], en[3], men.
    std::vector<bool> req(channels);
    for (unsigned i = 0; i < channels; ++i) {
      req[i] = rng.flip(0.2);
      inputs[i] = req[i];
    }
    const bool en[3] = {rng.flip(0.8), rng.flip(0.8), rng.flip(0.8)};
    for (int b = 0; b < 3; ++b) inputs[channels + b] = en[b];
    inputs[channels + 3] = true;  // master enable

    int expect = -1;
    for (unsigned i = 0; i < channels; ++i) {
      if (req[i] && en[i / 9]) {
        expect = static_cast<int>(i);
        break;
      }
    }
    const auto outs = netlist::eval_single(nl, inputs);
    // Outputs: idx0..idx4, valid, bank0..2.
    unsigned idx = 0;
    for (int b = 0; b < 5; ++b) {
      if (outs[b]) idx |= 1u << b;
    }
    const bool valid = outs[5];
    if (expect < 0) {
      EXPECT_FALSE(valid);
    } else {
      EXPECT_TRUE(valid);
      EXPECT_EQ(idx, static_cast<unsigned>(expect));
    }
  }
}

// ---------------------------------------------------------------------------
// adder/comparator
// ---------------------------------------------------------------------------

TEST(AdderComparator, AllOutputsCorrect) {
  const unsigned bits = 16;
  const Netlist nl = make_adder_comparator(bits);
  const Simulator sim(nl);
  const std::uint64_t mask = (1ULL << bits) - 1;
  util::Rng rng(13);
  // Input order: a[16], b[16], cin, sel.
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint64_t a = rng.index(mask + 1);
    const std::uint64_t b = rng.index(mask + 1);
    const bool sel = rng.flip();
    std::vector<bool> inputs;
    for (unsigned i = 0; i < bits; ++i) inputs.push_back((a >> i) & 1u);
    for (unsigned i = 0; i < bits; ++i) inputs.push_back((b >> i) & 1u);
    inputs.push_back(false);  // cin
    inputs.push_back(sel);
    const auto outs = netlist::eval_single(nl, inputs);
    // Output order: a_eq_b, a_gt_b, a_lt_b, r[16], inc[16], cout, par_a,
    // par_b, par_r, r_zero, inc_cout.
    std::size_t k = 0;
    EXPECT_EQ(outs[k++], a == b);
    EXPECT_EQ(outs[k++], a > b);
    EXPECT_EQ(outs[k++], a < b);
    const std::uint64_t expect_r = sel ? (a - b) & mask : (a + b) & mask;
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
      if (outs[k + i]) r |= 1ULL << i;
    }
    EXPECT_EQ(r, expect_r);
    k += bits;
    std::uint64_t inc = 0;
    for (unsigned i = 0; i < bits; ++i) {
      if (outs[k + i]) inc |= 1ULL << i;
    }
    EXPECT_EQ(inc, (a + 1) & mask);
    k += bits;
    ++k;  // cout (polarity depends on sel; skip)
    EXPECT_EQ(outs[k++], __builtin_parityll(a) != 0);
    EXPECT_EQ(outs[k++], __builtin_parityll(b) != 0);
    EXPECT_EQ(outs[k++], __builtin_parityll(expect_r) != 0);
    EXPECT_EQ(outs[k++], expect_r == 0);
    EXPECT_EQ(outs[k++], a == mask);  // inc_cout: a+1 overflowed
  }
}

// ---------------------------------------------------------------------------
// random DAG + Table-1 suite
// ---------------------------------------------------------------------------

TEST(RandomDag, ReproducibleAndValid) {
  RandomDagOptions opt;
  opt.seed = 5;
  const Netlist a = make_random_dag(opt);
  const Netlist b = make_random_dag(opt);
  EXPECT_TRUE(a.check().ok());
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_TRUE(netlist::probably_equivalent(a, b, 1));
  EXPECT_EQ(a.outputs().size(), opt.n_outputs);
}

TEST(Table1Suite, AllCircuitsBuildAndCheck) {
  for (const auto& name : table1_names()) {
    const Netlist nl = make_table1_circuit(name);
    EXPECT_TRUE(nl.check().ok()) << name;
    EXPECT_EQ(nl.name(), name);
    EXPECT_GT(nl.logic_gate_count(), 50u) << name;
    ASSERT_TRUE(table1_reference(name).has_value()) << name;
  }
  EXPECT_THROW((void)make_table1_circuit("c17"), std::invalid_argument);
}

TEST(Table1Suite, DepthOrderingMatchesPaperNarrative) {
  // The paper's key structural observation: ALUs are shallow (worst
  // sigma/mu), c6288 is by far the deepest (best sigma/mu, least improvable).
  const auto depth_of = [](const char* name) {
    return netlist::depth(make_table1_circuit(name));
  };
  const auto d_alu = depth_of("alu2");
  const auto d_c6288 = depth_of("c6288");
  const auto d_c432 = depth_of("c432");
  EXPECT_GT(d_c6288, 3 * d_alu);
  EXPECT_GT(d_c6288, 3 * d_c432);
}

TEST(Table1Suite, GateCountsInPaperBallpark) {
  // Generators target the paper's mapped gate counts; allow a generous band
  // (substitution documented in docs/ARCHITECTURE.md, "Deviations from the
  // paper").
  for (const auto& name : table1_names()) {
    const auto ref = table1_reference(name);
    const auto nl = make_table1_circuit(name);
    const double ratio =
        static_cast<double>(nl.logic_gate_count()) / ref->paper_gates;
    EXPECT_GT(ratio, 0.3) << name << ": " << nl.logic_gate_count() << " gates";
    EXPECT_LT(ratio, 3.0) << name << ": " << nl.logic_gate_count() << " gates";
  }
}

// ---------------------------------------------------------------------------
// scaled fabrics
// ---------------------------------------------------------------------------

TEST(PipelinedDatapath, MatchesStagedReferenceModel) {
  PipelineOptions o;
  o.bits = 8;
  o.stages = 3;
  const Netlist nl = make_pipelined_datapath(o);
  ASSERT_EQ(nl.inputs().size(), 2u * o.bits + 1);       // a, b, cin
  ASSERT_EQ(nl.outputs().size(), o.stages + o.bits);    // cout<s>..., r
  const Simulator sim(nl);
  const std::uint64_t mask = (1ULL << o.bits) - 1;

  util::Rng rng(97);
  std::vector<std::uint64_t> words(nl.inputs().size(), 0);
  std::vector<std::uint64_t> a_vals(64), b_vals(64);
  std::vector<bool> cins(64);
  for (unsigned lane = 0; lane < 64; ++lane) {
    a_vals[lane] = rng.index(mask + 1);
    b_vals[lane] = rng.index(mask + 1);
    cins[lane] = rng.flip();
    drive_bus(words, 0, o.bits, a_vals[lane], lane);
    drive_bus(words, o.bits, o.bits, b_vals[lane], lane);
    if (cins[lane]) words[2 * o.bits] |= 1ULL << lane;
  }
  const auto outs = sim.eval(words);
  for (unsigned lane = 0; lane < 64; ++lane) {
    // Stage s: state' = state + (ror1(state) ^ b) + carry, carry chains on.
    std::uint64_t state = a_vals[lane];
    std::uint64_t carry = cins[lane] ? 1 : 0;
    for (unsigned s = 0; s < o.stages; ++s) {
      const std::uint64_t ror1 = ((state >> 1) | (state << (o.bits - 1))) & mask;
      const std::uint64_t t = state + (ror1 ^ b_vals[lane]) + carry;
      state = t & mask;
      carry = (t >> o.bits) & 1;
      const bool cout = (outs[s] >> lane) & 1u;
      EXPECT_EQ(cout, carry != 0) << "stage " << s << " lane " << lane;
    }
    EXPECT_EQ(read_bus(outs, o.stages, o.bits, lane), state) << "lane " << lane;
  }
}

TEST(MeshInterconnect, MatchesGridReferenceModel) {
  MeshOptions o;
  o.rows = 2;
  o.cols = 2;
  o.bits = 4;
  const Netlist nl = make_mesh_interconnect(o);
  // Inputs: n<c> buses, w<r> buses, then sel<r>_<c> row-major.
  ASSERT_EQ(nl.inputs().size(), (o.rows + o.cols) * o.bits + o.rows * o.cols);
  // Outputs: co<r>_<c> row-major, then e<r> buses, then s<c> buses.
  ASSERT_EQ(nl.outputs().size(), o.rows * o.cols + (o.rows + o.cols) * o.bits);
  const Simulator sim(nl);
  const std::uint64_t mask = (1ULL << o.bits) - 1;
  const std::size_t sel_base = (o.rows + o.cols) * o.bits;

  util::Rng rng(131);
  std::vector<std::uint64_t> words(nl.inputs().size(), 0);
  std::vector<std::vector<std::uint64_t>> n_vals(o.cols), w_vals(o.rows);
  std::vector<std::vector<bool>> sels(o.rows * o.cols);
  for (unsigned lane = 0; lane < 64; ++lane) {
    for (unsigned c = 0; c < o.cols; ++c) {
      n_vals[c].push_back(rng.index(mask + 1));
      drive_bus(words, c * o.bits, o.bits, n_vals[c][lane], lane);
    }
    for (unsigned r = 0; r < o.rows; ++r) {
      w_vals[r].push_back(rng.index(mask + 1));
      drive_bus(words, (o.cols + r) * o.bits, o.bits, w_vals[r][lane], lane);
    }
    for (unsigned i = 0; i < o.rows * o.cols; ++i) {
      sels[i].push_back(rng.flip());
      if (sels[i][lane]) words[sel_base + i] |= 1ULL << lane;
    }
  }
  const auto outs = sim.eval(words);
  for (unsigned lane = 0; lane < 64; ++lane) {
    std::vector<std::uint64_t> north(o.cols), west(o.rows);
    for (unsigned c = 0; c < o.cols; ++c) north[c] = n_vals[c][lane];
    for (unsigned r = 0; r < o.rows; ++r) west[r] = w_vals[r][lane];
    for (unsigned r = 0; r < o.rows; ++r) {
      for (unsigned c = 0; c < o.cols; ++c) {
        // out = sel ? north + west + sel : north ^ west; co is the adder's
        // carry-out either way (cin = sel keeps the chain live).
        const std::uint64_t sel = sels[r * o.cols + c][lane] ? 1 : 0;
        const std::uint64_t sum = north[c] + west[r] + sel;
        const std::uint64_t out = sel ? (sum & mask) : (north[c] ^ west[r]);
        const bool co = (outs[r * o.cols + c] >> lane) & 1u;
        EXPECT_EQ(co, ((sum >> o.bits) & 1u) != 0) << "node " << r << "," << c;
        north[c] = out;
        west[r] = out;
      }
    }
    const std::size_t e_base = o.rows * o.cols;
    for (unsigned r = 0; r < o.rows; ++r) {
      EXPECT_EQ(read_bus(outs, e_base + r * o.bits, o.bits, lane), west[r]) << "east " << r;
    }
    const std::size_t s_base = e_base + o.rows * o.bits;
    for (unsigned c = 0; c < o.cols; ++c) {
      EXPECT_EQ(read_bus(outs, s_base + c * o.bits, o.bits, lane), north[c]) << "south " << c;
    }
  }
}

TEST(ScaledWorkloads, AreRegisteredAndBig) {
  for (const auto& name : scaled_workload_names()) {
    const Netlist nl = make_table1_circuit(name);
    EXPECT_EQ(nl.name(), name);
    EXPECT_GE(nl.logic_gate_count(), 10000u) << name;
    EXPECT_FALSE(table1_reference(name).has_value()) << name << " is not a paper row";
  }
}

}  // namespace
}  // namespace statsizer::circuits
