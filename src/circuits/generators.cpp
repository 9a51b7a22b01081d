#include "circuits/generators.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/topo.h"
#include "util/rng.h"

namespace statsizer::circuits {

using netlist::GateFunc;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

std::vector<GateId> Builder::bus(const std::string& prefix, unsigned width) {
  std::vector<GateId> ids;
  ids.reserve(width);
  for (unsigned i = 0; i < width; ++i) ids.push_back(input(prefix + std::to_string(i)));
  return ids;
}

void Builder::bus_out(const std::string& prefix, std::span<const GateId> bits) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    output(prefix + std::to_string(i), bits[i]);
  }
}

GateId Builder::xor_(GateId a, GateId b) {
  if (!expand_xor_) return nl_.add_gate(GateFunc::kXor, {a, b});
  // Four-NAND XOR: n1 = NAND(a,b); XOR = NAND(NAND(a,n1), NAND(b,n1)).
  const GateId n1 = nand_(a, b);
  return nand_(nand_(a, n1), nand_(b, n1));
}

GateId Builder::xnor_(GateId a, GateId b) {
  if (!expand_xor_) return nl_.add_gate(GateFunc::kXnor, {a, b});
  return not_(xor_(a, b));
}

namespace {
GateId tree_reduce(Builder& b, std::span<const GateId> xs, GateId (Builder::*op)(GateId, GateId)) {
  if (xs.empty()) throw std::invalid_argument("tree reduction over empty span");
  std::vector<GateId> level(xs.begin(), xs.end());
  while (level.size() > 1) {
    std::vector<GateId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back((b.*op)(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}
}  // namespace

GateId Builder::and_tree(std::span<const GateId> xs) { return tree_reduce(*this, xs, &Builder::and_); }
GateId Builder::or_tree(std::span<const GateId> xs) { return tree_reduce(*this, xs, &Builder::or_); }
GateId Builder::xor_tree(std::span<const GateId> xs) { return tree_reduce(*this, xs, &Builder::xor_); }

// ---------------------------------------------------------------------------
// Arithmetic blocks
// ---------------------------------------------------------------------------

namespace {

struct FullAdderOut {
  GateId sum;
  GateId carry;
};

FullAdderOut full_adder(Builder& b, GateId a, GateId x, GateId cin) {
  const GateId p = b.xor_(a, x);
  const GateId sum = b.xor_(p, cin);
  const GateId carry = b.or_(b.and_(a, x), b.and_(p, cin));
  return {sum, carry};
}

struct HalfAdderOut {
  GateId sum;
  GateId carry;
};

HalfAdderOut half_adder(Builder& b, GateId a, GateId x) {
  return {b.xor_(a, x), b.and_(a, x)};
}

}  // namespace

AdderBits ripple_adder(Builder& b, std::span<const GateId> a, std::span<const GateId> bb,
                       GateId carry_in) {
  if (a.size() != bb.size() || a.empty()) {
    throw std::invalid_argument("ripple_adder: operand width mismatch");
  }
  AdderBits out;
  GateId carry = carry_in;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FullAdderOut fa = full_adder(b, a[i], bb[i], carry);
    out.sum.push_back(fa.sum);
    carry = fa.carry;
  }
  out.carry_out = carry;
  return out;
}

AdderBits cla_adder(Builder& b, std::span<const GateId> a, std::span<const GateId> bb,
                    GateId carry_in) {
  if (a.size() != bb.size() || a.empty()) {
    throw std::invalid_argument("cla_adder: operand width mismatch");
  }
  const std::size_t n = a.size();
  std::vector<GateId> p(n);
  std::vector<GateId> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = b.xor_(a[i], bb[i]);
    g[i] = b.and_(a[i], bb[i]);
  }

  AdderBits out;
  out.sum.resize(n);
  GateId group_cin = carry_in;
  for (std::size_t base = 0; base < n; base += 4) {
    const std::size_t w = std::min<std::size_t>(4, n - base);
    // Carries within the group: c_{i+1} = g_i | p_i & c_i, flattened to
    // two-level lookahead form.
    std::vector<GateId> carries(w + 1);
    carries[0] = group_cin;
    for (std::size_t i = 0; i < w; ++i) {
      // c_{i+1} = g_i | (p_i g_{i-1}) | ... | (p_i ... p_0 cin)
      std::vector<GateId> terms;
      terms.push_back(g[base + i]);
      for (std::size_t j = 0; j < i; ++j) {
        GateId t = g[base + j];
        for (std::size_t k = j + 1; k <= i; ++k) t = b.and_(t, p[base + k]);
        terms.push_back(t);
      }
      GateId t = group_cin;
      for (std::size_t k = 0; k <= i; ++k) t = b.and_(t, p[base + k]);
      terms.push_back(t);
      carries[i + 1] = b.or_tree(terms);
    }
    for (std::size_t i = 0; i < w; ++i) out.sum[base + i] = b.xor_(p[base + i], carries[i]);
    group_cin = carries[w];
  }
  out.carry_out = group_cin;
  return out;
}

// ---------------------------------------------------------------------------
// Adders / multiplier
// ---------------------------------------------------------------------------

Netlist make_ripple_adder(unsigned bits, bool expand_xor) {
  Builder b("rca" + std::to_string(bits));
  b.set_expand_xor(expand_xor);
  const auto a = b.bus("a", bits);
  const auto bb = b.bus("b", bits);
  const GateId cin = b.input("cin");
  const AdderBits sum = ripple_adder(b, a, bb, cin);
  b.bus_out("s", sum.sum);
  b.output("cout", sum.carry_out);
  return b.take();
}

Netlist make_cla_adder(unsigned bits) {
  Builder b("cla" + std::to_string(bits));
  const auto a = b.bus("a", bits);
  const auto bb = b.bus("b", bits);
  const GateId cin = b.input("cin");
  const AdderBits sum = cla_adder(b, a, bb, cin);
  b.bus_out("s", sum.sum);
  b.output("cout", sum.carry_out);
  return b.take();
}

Netlist make_array_multiplier(unsigned bits, bool expand_xor) {
  if (bits < 2) throw std::invalid_argument("make_array_multiplier: bits must be >= 2");
  Builder b("mul" + std::to_string(bits) + "x" + std::to_string(bits));
  b.set_expand_xor(expand_xor);
  const auto a = b.bus("a", bits);
  const auto bb = b.bus("b", bits);

  // Partial-product matrix.
  std::vector<std::vector<GateId>> pp(bits, std::vector<GateId>(bits));
  for (unsigned i = 0; i < bits; ++i) {
    for (unsigned j = 0; j < bits; ++j) pp[i][j] = b.and_(a[j], bb[i]);
  }

  // Row-by-row carry-save reduction (classic array multiplier, like c6288).
  std::vector<GateId> product;
  std::vector<GateId> row(pp[0].begin(), pp[0].end());  // running partial sum
  product.push_back(row[0]);
  row.erase(row.begin());

  for (unsigned i = 1; i < bits; ++i) {
    std::vector<GateId> next;
    GateId carry = netlist::kNoGate;
    for (unsigned j = 0; j < bits; ++j) {
      const GateId addend = pp[i][j];
      const GateId partial = j < row.size() ? row[j] : netlist::kNoGate;
      if (partial == netlist::kNoGate && carry == netlist::kNoGate) {
        next.push_back(addend);
      } else if (carry == netlist::kNoGate) {
        const HalfAdderOut ha = half_adder(b, partial, addend);
        next.push_back(ha.sum);
        carry = ha.carry;
      } else if (partial == netlist::kNoGate) {
        const HalfAdderOut ha = half_adder(b, carry, addend);
        next.push_back(ha.sum);
        carry = ha.carry;
      } else {
        const FullAdderOut fa = full_adder(b, partial, addend, carry);
        next.push_back(fa.sum);
        carry = fa.carry;
      }
    }
    if (carry != netlist::kNoGate) next.push_back(carry);
    product.push_back(next[0]);
    next.erase(next.begin());
    row = std::move(next);
  }
  for (const GateId g : row) product.push_back(g);
  while (product.size() < 2 * bits) {
    // Width bookkeeping: pad with constant-0 only if the reduction came short
    // (cannot happen for bits >= 2, but keep the invariant explicit).
    product.push_back(b.netlist().add_gate(GateFunc::kConst0, {}));
  }
  b.bus_out("p", product);
  return b.take();
}

// ---------------------------------------------------------------------------
// ALU
// ---------------------------------------------------------------------------

Netlist make_alu(const AluOptions& options) {
  const unsigned n = options.bits;
  if (n < 2) throw std::invalid_argument("make_alu: bits must be >= 2");
  Builder b("alu" + std::to_string(n));

  const auto a = b.bus("a", n);
  const auto bb = b.bus("b", n);
  const GateId op0 = b.input("op0");
  const GateId op1 = b.input("op1");
  const GateId op2 = b.input("op2");
  const GateId cin = b.input("cin");

  // Arithmetic: b is conditionally inverted for subtraction (sub = op2), with
  // the two's-complement +1 injected through the carry; ADD takes the external
  // carry-in when op0 selects carry-chained addition.
  std::vector<GateId> b_eff(n);
  for (unsigned i = 0; i < n; ++i) b_eff[i] = b.xor_(bb[i], op2);
  const GateId arith_cin = b.or_(op2, b.and_(cin, op0));
  const AdderBits sum = cla_adder(b, a, b_eff, arith_cin);

  // Logic unit per bit + 4:1 result mux: {AND, OR, XOR, SUM} by (op1, op0),
  // then op2 swaps in {NOR, pass-A} variants on the logic side.
  std::vector<GateId> result(n);
  for (unsigned i = 0; i < n; ++i) {
    const GateId land = b.and_(a[i], bb[i]);
    const GateId lor = b.or_(a[i], bb[i]);
    const GateId lxor = b.xor_(a[i], bb[i]);
    const GateId lnor = b.nor_(a[i], bb[i]);
    const GateId logic_a = b.mux(land, lnor, op2);  // AND / NOR
    const GateId logic_b = b.mux(lor, a[i], op2);   // OR / pass-A
    const GateId m0 = b.mux(logic_a, logic_b, op0);
    const GateId m1 = b.mux(lxor, sum.sum[i], op0);
    result[i] = b.mux(m0, m1, op1);
  }

  if (options.with_shifter) {
    // Logarithmic left shifter on the result (shift amount inputs).
    unsigned stages = 0;
    while ((1u << stages) < n) ++stages;
    stages = std::min(stages, 3u);
    for (unsigned s = 0; s < stages; ++s) {
      const GateId sh = b.input("sh" + std::to_string(s));
      const unsigned dist = 1u << s;
      std::vector<GateId> shifted(n);
      const GateId zero = b.netlist().add_gate(GateFunc::kConst0, {});
      for (unsigned i = 0; i < n; ++i) {
        const GateId from = i >= dist ? result[i - dist] : zero;
        shifted[i] = b.mux(result[i], from, sh);
      }
      result = std::move(shifted);
    }
  }

  b.bus_out("f", result);
  b.output("cout", sum.carry_out);

  std::vector<GateId> inverted(n);
  for (unsigned i = 0; i < n; ++i) inverted[i] = b.not_(result[i]);
  b.output("zero", b.and_tree(inverted));
  b.output("sign", b.buf(result[n - 1]));
  // Signed overflow of the adder: carry into MSB != carry out of MSB,
  // approximated from operands and sum signs.
  const GateId ovf = b.and_(b.xnor_(a[n - 1], b_eff[n - 1]), b.xor_(a[n - 1], sum.sum[n - 1]));
  b.output("ovf", ovf);
  b.output("parity", b.xor_tree(result));
  return b.take();
}

// ---------------------------------------------------------------------------
// Hamming SEC / SEC-DED
// ---------------------------------------------------------------------------

namespace {

/// Number of Hamming check bits for @p data_bits: smallest r with
/// 2^r >= data + r + 1.
unsigned hamming_check_bits(unsigned data_bits) {
  unsigned r = 1;
  while ((1u << r) < data_bits + r + 1) ++r;
  return r;
}

/// Codeword layout: positions 1..(data+r); power-of-two positions hold check
/// bits, the rest hold data bits in order. Returns data positions.
std::vector<unsigned> hamming_data_positions(unsigned data_bits, unsigned r) {
  std::vector<unsigned> positions;
  for (unsigned pos = 1; positions.size() < data_bits; ++pos) {
    if ((pos & (pos - 1)) != 0) positions.push_back(pos);
  }
  (void)r;
  return positions;
}

}  // namespace

Netlist make_hamming_sec(unsigned data_bits, bool expand_xor) {
  if (data_bits < 4) throw std::invalid_argument("make_hamming_sec: need >= 4 data bits");
  Builder b("sec" + std::to_string(data_bits));
  b.set_expand_xor(expand_xor);

  const unsigned r = hamming_check_bits(data_bits);
  const unsigned total = data_bits + r;
  const auto data_pos = hamming_data_positions(data_bits, r);

  // Received codeword: data bits and check bits as primary inputs.
  std::vector<GateId> code(total + 1, netlist::kNoGate);  // 1-indexed
  const auto d = b.bus("d", data_bits);
  for (unsigned i = 0; i < data_bits; ++i) code[data_pos[i]] = d[i];
  for (unsigned i = 0; i < r; ++i) code[1u << i] = b.input("c" + std::to_string(i));

  // Syndrome bits: parity over positions with bit i set.
  std::vector<GateId> syndrome(r);
  for (unsigned i = 0; i < r; ++i) {
    std::vector<GateId> taps;
    for (unsigned pos = 1; pos <= total; ++pos) {
      if ((pos >> i) & 1u) taps.push_back(code[pos]);
    }
    syndrome[i] = b.xor_tree(taps);
  }
  std::vector<GateId> syndrome_n(r);
  for (unsigned i = 0; i < r; ++i) syndrome_n[i] = b.not_(syndrome[i]);

  // Correct each data bit: flip when the syndrome equals its position.
  std::vector<GateId> corrected(data_bits);
  for (unsigned i = 0; i < data_bits; ++i) {
    const unsigned pos = data_pos[i];
    std::vector<GateId> literals;
    for (unsigned j = 0; j < r; ++j) {
      literals.push_back(((pos >> j) & 1u) ? syndrome[j] : syndrome_n[j]);
    }
    const GateId hit = b.and_tree(literals);
    corrected[i] = b.xor_(d[i], hit);
  }
  b.bus_out("q", corrected);
  b.output("err", b.or_tree(syndrome));
  return b.take();
}

Netlist make_sec_ded(unsigned data_bits, bool expand_xor) {
  if (data_bits < 4) throw std::invalid_argument("make_sec_ded: need >= 4 data bits");
  Builder b("secded" + std::to_string(data_bits));
  b.set_expand_xor(expand_xor);

  const unsigned r = hamming_check_bits(data_bits);
  const unsigned total = data_bits + r;  // without the overall parity bit
  const auto data_pos = hamming_data_positions(data_bits, r);

  // Stage 1 — encoder: compute check bits from clean data.
  const auto d = b.bus("d", data_bits);
  std::vector<GateId> code(total + 1, netlist::kNoGate);
  for (unsigned i = 0; i < data_bits; ++i) code[data_pos[i]] = d[i];
  for (unsigned i = 0; i < r; ++i) {
    std::vector<GateId> taps;
    for (unsigned pos = 1; pos <= total; ++pos) {
      if (((pos >> i) & 1u) && (pos & (pos - 1)) != 0) taps.push_back(code[pos]);
    }
    code[1u << i] = b.xor_tree(taps);
  }
  std::vector<GateId> word(code.begin() + 1, code.end());
  const GateId overall = b.xor_tree(word);  // extended parity bit

  // Channel — XOR with a flip mask (tests inject single/double errors here).
  const auto flip = b.bus("flip", total + 1);
  std::vector<GateId> received(total + 1);
  for (unsigned i = 0; i < total; ++i) received[i] = b.xor_(word[i], flip[i]);
  received[total] = b.xor_(overall, flip[total]);

  // Stage 2 — corrector: syndrome over the received word.
  std::vector<GateId> syndrome(r);
  for (unsigned i = 0; i < r; ++i) {
    std::vector<GateId> taps;
    for (unsigned pos = 1; pos <= total; ++pos) {
      if ((pos >> i) & 1u) taps.push_back(received[pos - 1]);
    }
    syndrome[i] = b.xor_tree(taps);
  }
  std::vector<GateId> syndrome_n(r);
  for (unsigned i = 0; i < r; ++i) syndrome_n[i] = b.not_(syndrome[i]);
  std::vector<GateId> all_received(received.begin(), received.end());
  const GateId parity_check = b.xor_tree(all_received);  // 0 if even overall parity

  std::vector<GateId> corrected(data_bits);
  for (unsigned i = 0; i < data_bits; ++i) {
    const unsigned pos = data_pos[i];
    std::vector<GateId> literals;
    for (unsigned j = 0; j < r; ++j) {
      literals.push_back(((pos >> j) & 1u) ? syndrome[j] : syndrome_n[j]);
    }
    // Only correct when the overall parity also fails (single error).
    literals.push_back(parity_check);
    const GateId hit = b.and_tree(literals);
    corrected[i] = b.xor_(received[pos - 1], hit);
  }
  const GateId syndrome_nonzero = b.or_tree(syndrome);
  b.bus_out("q", corrected);
  // Odd overall parity <=> an odd number of channel errors (1 under the
  // SEC-DED assumption) — this also covers an error in the parity bit itself
  // (zero syndrome, odd parity). Even parity with a non-zero syndrome is the
  // uncorrectable double-error signature.
  b.output("single_err", b.buf(parity_check));
  b.output("double_err", b.and_(syndrome_nonzero, b.not_(parity_check)));
  return b.take();
}

// ---------------------------------------------------------------------------
// Interrupt controller (c432-class)
// ---------------------------------------------------------------------------

Netlist make_interrupt_controller(unsigned channels, unsigned banks) {
  if (channels == 0 || banks == 0 || channels % banks != 0) {
    throw std::invalid_argument("make_interrupt_controller: channels must split into banks");
  }
  Builder b("intctl" + std::to_string(channels));
  const auto req = b.bus("req", channels);
  const auto en = b.bus("en", banks);
  const GateId master = b.input("men");
  const unsigned per_bank = channels / banks;

  std::vector<GateId> gated(channels);
  for (unsigned i = 0; i < channels; ++i) gated[i] = b.and_(req[i], en[i / per_bank]);

  // Prefix-OR (Sklansky tree): any[i] = OR(gated[0..i]).
  std::vector<GateId> any(gated);
  for (unsigned dist = 1; dist < channels; dist *= 2) {
    std::vector<GateId> next(any);
    for (unsigned i = dist; i < channels; ++i) next[i] = b.or_(any[i], any[i - dist]);
    any = std::move(next);
  }

  // Grant: highest-priority (lowest index) gated request wins.
  std::vector<GateId> grant(channels);
  grant[0] = gated[0];
  for (unsigned i = 1; i < channels; ++i) grant[i] = b.and_(gated[i], b.not_(any[i - 1]));

  // Binary index of the granted channel.
  unsigned index_bits = 1;
  while ((1u << index_bits) < channels) ++index_bits;
  for (unsigned bit = 0; bit < index_bits; ++bit) {
    std::vector<GateId> taps;
    for (unsigned i = 0; i < channels; ++i) {
      if ((i >> bit) & 1u) taps.push_back(grant[i]);
    }
    b.output("idx" + std::to_string(bit), taps.empty() ? grant[0] : b.or_tree(taps));
  }
  const GateId valid = b.and_(any[channels - 1], master);
  b.output("valid", valid);
  for (unsigned bank = 0; bank < banks; ++bank) {
    std::vector<GateId> taps(grant.begin() + bank * per_bank,
                             grant.begin() + (bank + 1) * per_bank);
    b.output("bank" + std::to_string(bank), b.or_tree(taps));
  }
  return b.take();
}

// ---------------------------------------------------------------------------
// Adder/comparator (c7552-class)
// ---------------------------------------------------------------------------

Netlist make_adder_comparator(unsigned bits) {
  Builder b("addcmp" + std::to_string(bits));
  const auto a = b.bus("a", bits);
  const auto bb = b.bus("b", bits);
  const GateId cin = b.input("cin");
  const GateId sel = b.input("sel");

  // Path 1: a + b (CLA).
  const AdderBits add = cla_adder(b, a, bb, cin);
  // Path 2: a - b (CLA over inverted b, cin = 1).
  std::vector<GateId> b_inv(bits);
  for (unsigned i = 0; i < bits; ++i) b_inv[i] = b.not_(bb[i]);
  const GateId one = b.netlist().add_gate(GateFunc::kConst1, {});
  const AdderBits sub = cla_adder(b, a, b_inv, one);

  // Independent magnitude comparator (MSB-first chain).
  std::vector<GateId> eq(bits);
  for (unsigned i = 0; i < bits; ++i) eq[i] = b.xnor_(a[i], bb[i]);
  GateId gt = b.and_(a[bits - 1], b.not_(bb[bits - 1]));
  GateId all_eq = eq[bits - 1];
  for (int i = static_cast<int>(bits) - 2; i >= 0; --i) {
    gt = b.or_(gt, b.and_(all_eq, b.and_(a[i], b.not_(bb[i]))));
    all_eq = b.and_(all_eq, eq[i]);
  }
  b.output("a_eq_b", all_eq);
  b.output("a_gt_b", gt);
  b.output("a_lt_b", b.nor_(gt, all_eq));

  // Incrementer on a.
  std::vector<GateId> inc(bits);
  GateId carry = one;
  for (unsigned i = 0; i < bits; ++i) {
    inc[i] = b.xor_(a[i], carry);
    carry = b.and_(a[i], carry);
  }

  // Output select: sel ? (a - b) : (a + b); plus the incremented bus.
  std::vector<GateId> result(bits);
  for (unsigned i = 0; i < bits; ++i) result[i] = b.mux(add.sum[i], sub.sum[i], sel);
  b.bus_out("r", result);
  b.bus_out("inc", inc);
  b.output("cout", b.mux(add.carry_out, sub.carry_out, sel));
  b.output("par_a", b.xor_tree(a));
  b.output("par_b", b.xor_tree(bb));
  b.output("par_r", b.xor_tree(result));
  std::vector<GateId> rn(bits);
  for (unsigned i = 0; i < bits; ++i) rn[i] = b.not_(result[i]);
  b.output("r_zero", b.and_tree(rn));
  // The incrementer's final carry is observable (a+1 overflow flag) — and
  // exposing it keeps the carry chain out of the DRC's dead-cone report.
  b.output("inc_cout", carry);
  return b.take();
}

// ---------------------------------------------------------------------------
// Composite systems
// ---------------------------------------------------------------------------

namespace {

/// Instantiates @p inner into @p outer with all node names prefixed; inner
/// primary inputs become fresh outer inputs, inner outputs become outer
/// outputs. Used to compose subsystem generators into one netlist.
void instantiate(Netlist& outer, const Netlist& inner, const std::string& prefix) {
  std::vector<GateId> remap(inner.node_count(), netlist::kNoGate);
  for (const GateId id : netlist::topological_order(inner)) {
    const auto& g = inner.gate(id);
    if (g.func == GateFunc::kInput) {
      remap[id] = outer.add_input(prefix + g.name);
      continue;
    }
    std::vector<GateId> fanins;
    fanins.reserve(g.fanins.size());
    for (const GateId f : g.fanins) fanins.push_back(remap[f]);
    remap[id] = outer.add_gate(g.func, fanins, prefix + g.name);
  }
  for (const auto& po : inner.outputs()) {
    outer.add_output(prefix + po.name, remap[po.driver]);
  }
}

}  // namespace

Netlist make_alu_system(const AluSystemOptions& options) {
  Netlist system("alusys");
  for (unsigned i = 0; i < options.alu_count; ++i) {
    AluOptions alu;
    alu.bits = options.alu_bits;
    alu.with_shifter = (i == 0);
    const Netlist inner = make_alu(alu);
    instantiate(system, inner, "u" + std::to_string(i) + "_");
  }
  if (options.multiplier_bits >= 2) {
    instantiate(system, make_array_multiplier(options.multiplier_bits, false), "mul_");
  }
  if (options.interrupt_channels > 0) {
    instantiate(system, make_interrupt_controller(options.interrupt_channels,
                                                  options.interrupt_channels % 3 == 0 ? 3 : 1),
                "irq_");
  }
  if (options.comparator_bits >= 2) {
    instantiate(system, make_adder_comparator(options.comparator_bits), "cmp_");
  }
  // A shared parity checker across one of the ALU operand buses.
  Builder pb("par");
  const auto bus = pb.bus("x", options.alu_bits);
  pb.output("p", pb.xor_tree(bus));
  instantiate(system, pb.take(), "par_");
  return system;
}

Netlist make_bcd_alu(unsigned digits) {
  if (digits == 0) throw std::invalid_argument("make_bcd_alu: digits must be >= 1");
  const unsigned bits = digits * 4;
  Builder b("bcdalu" + std::to_string(digits));

  const auto a = b.bus("a", bits);
  const auto bb = b.bus("b", bits);
  const GateId mode_bcd = b.input("bcd");  // 1 = BCD-adjust the result
  const GateId op0 = b.input("op0");
  const GateId op1 = b.input("op1");
  const GateId cin = b.input("cin");

  // Binary adder core.
  const AdderBits sum = cla_adder(b, a, bb, cin);

  // Per-digit BCD adjust: if digit > 9 or digit carry, add 6.
  std::vector<GateId> adjusted(bits);
  std::vector<GateId> digit_carries;
  const GateId zero = b.netlist().add_gate(GateFunc::kConst0, {});
  for (unsigned dg = 0; dg < digits; ++dg) {
    const unsigned lo = dg * 4;
    const GateId d3 = sum.sum[lo + 3];
    const GateId d2 = sum.sum[lo + 2];
    const GateId d1 = sum.sum[lo + 1];
    // digit > 9  <=>  d3 & (d2 | d1)
    const GateId gt9 = b.and_(d3, b.or_(d2, d1));
    const GateId adjust = b.and_(mode_bcd, gt9);
    // Add 0110 when adjusting (ripple within the digit).
    const std::vector<GateId> six = {zero, adjust, adjust, zero};
    std::vector<GateId> digit = {sum.sum[lo], sum.sum[lo + 1], sum.sum[lo + 2],
                                 sum.sum[lo + 3]};
    const AdderBits adj = ripple_adder(b, digit, six, zero);
    for (unsigned i = 0; i < 4; ++i) adjusted[lo + i] = adj.sum[i];
    digit_carries.push_back(adj.carry_out);
  }

  // Logic ops + result mux (op1 selects arithmetic vs logic; op0 picks which).
  std::vector<GateId> result(bits);
  for (unsigned i = 0; i < bits; ++i) {
    const GateId land = b.and_(a[i], bb[i]);
    const GateId lxor = b.xor_(a[i], bb[i]);
    const GateId logic = b.mux(land, lxor, op0);
    const GateId arith = b.mux(sum.sum[i], adjusted[i], mode_bcd);
    result[i] = b.mux(arith, logic, op1);
  }

  // Barrel shifter (2 stages).
  for (unsigned s = 0; s < 2; ++s) {
    const GateId sh = b.input("sh" + std::to_string(s));
    const unsigned dist = 1u << s;
    std::vector<GateId> shifted(bits);
    for (unsigned i = 0; i < bits; ++i) {
      const GateId from = i >= dist ? result[i - dist] : zero;
      shifted[i] = b.mux(result[i], from, sh);
    }
    result = std::move(shifted);
  }

  b.bus_out("f", result);
  b.output("cout", sum.carry_out);
  std::vector<GateId> rn(bits);
  for (unsigned i = 0; i < bits; ++i) rn[i] = b.not_(result[i]);
  b.output("zero", b.and_tree(rn));
  b.output("parity", b.xor_tree(result));
  // Per-digit adjust carries, folded into one decimal-overflow flag: keeps
  // every BCD-adjust ripple chain observable (no dead cones for the DRC).
  b.output("adj_cout", b.or_tree(digit_carries));
  return b.take();
}

// ---------------------------------------------------------------------------
// Random DAG
// ---------------------------------------------------------------------------

Netlist make_pipelined_datapath(const PipelineOptions& options) {
  if (options.bits < 2 || options.stages == 0) {
    throw std::invalid_argument("make_pipelined_datapath: need bits >= 2 and stages >= 1");
  }
  Builder b("pipe" + std::to_string(options.bits) + "x" + std::to_string(options.stages));
  std::vector<GateId> state = b.bus("a", options.bits);
  const std::vector<GateId> mix = b.bus("b", options.bits);
  GateId carry = b.input("cin");

  for (unsigned s = 0; s < options.stages; ++s) {
    // Operand: the state rotated right by one (wiring only), mixed with b.
    std::vector<GateId> operand(options.bits);
    for (unsigned i = 0; i < options.bits; ++i) {
      operand[i] = b.xor_(state[(i + 1) % options.bits], mix[i]);
    }
    const AdderBits sum = cla_adder(b, state, operand, carry);
    state = sum.sum;
    carry = sum.carry_out;
    b.output("cout" + std::to_string(s), sum.carry_out);
  }
  b.bus_out("r", state);
  return b.take();
}

Netlist make_mesh_interconnect(const MeshOptions& options) {
  if (options.rows == 0 || options.cols == 0 || options.bits < 2) {
    throw std::invalid_argument("make_mesh_interconnect: need rows, cols >= 1 and bits >= 2");
  }
  Builder b("mesh" + std::to_string(options.rows) + "x" + std::to_string(options.cols) + "x" +
            std::to_string(options.bits));

  // North-edge buses (one per column) and west-edge buses (one per row).
  std::vector<std::vector<GateId>> north(options.cols);
  for (unsigned c = 0; c < options.cols; ++c) {
    north[c] = b.bus("n" + std::to_string(c) + "_", options.bits);
  }
  std::vector<std::vector<GateId>> west(options.rows);
  for (unsigned r = 0; r < options.rows; ++r) {
    west[r] = b.bus("w" + std::to_string(r) + "_", options.bits);
  }

  // Row-major sweep; `north` tracks the south-flowing bus per column and
  // `west[r]` the east-flowing bus of the current row.
  for (unsigned r = 0; r < options.rows; ++r) {
    for (unsigned c = 0; c < options.cols; ++c) {
      const GateId sel = b.input("sel" + std::to_string(r) + "_" + std::to_string(c));
      const std::vector<GateId>& n_bus = north[c];
      const std::vector<GateId>& w_bus = west[r];
      // cin = sel itself: observable and keeps the adder's carry chain live.
      const AdderBits sum = cla_adder(b, n_bus, w_bus, sel);
      std::vector<GateId> out(options.bits);
      for (unsigned i = 0; i < options.bits; ++i) {
        out[i] = b.mux(b.xor_(n_bus[i], w_bus[i]), sum.sum[i], sel);
      }
      b.output("co" + std::to_string(r) + "_" + std::to_string(c), sum.carry_out);
      north[c] = out;
      west[r] = std::move(out);
    }
  }
  for (unsigned r = 0; r < options.rows; ++r) {
    b.bus_out("e" + std::to_string(r) + "_", west[r]);
  }
  for (unsigned c = 0; c < options.cols; ++c) {
    b.bus_out("s" + std::to_string(c) + "_", north[c]);
  }
  return b.take();
}

Netlist make_random_dag(const RandomDagOptions& options) {
  if (options.n_inputs == 0 || options.n_gates == 0) {
    throw std::invalid_argument("make_random_dag: need inputs and gates");
  }
  util::Rng rng(options.seed);
  Builder b("rand" + std::to_string(options.seed));
  std::vector<GateId> nodes = b.bus("i", options.n_inputs);

  static constexpr GateFunc kFuncs[] = {GateFunc::kAnd,  GateFunc::kNand, GateFunc::kOr,
                                        GateFunc::kNor,  GateFunc::kXor,  GateFunc::kXnor,
                                        GateFunc::kInv,  GateFunc::kBuf,  GateFunc::kMux2,
                                        GateFunc::kAoi21, GateFunc::kOai21};
  for (unsigned i = 0; i < options.n_gates; ++i) {
    const GateFunc func = kFuncs[rng.index(std::size(kFuncs))];
    const auto range = netlist::func_arity(func);
    std::size_t arity = range.min;
    if (range.max > range.min) {
      const std::size_t cap = std::min<std::size_t>(range.max, options.max_arity);
      arity = range.min + rng.index(cap - range.min + 1);
    }
    std::vector<GateId> fanins;
    for (std::size_t k = 0; k < arity; ++k) {
      // Bias toward recent nodes to grow depth.
      const std::size_t window = std::max<std::size_t>(8, nodes.size() / 2);
      const std::size_t lo = nodes.size() > window ? nodes.size() - window : 0;
      fanins.push_back(nodes[lo + rng.index(nodes.size() - lo)]);
    }
    nodes.push_back(b.netlist().add_gate(func, fanins));
  }

  // Outputs: prefer sinks, fill with random nodes.
  std::vector<GateId> sinks;
  for (const GateId id : nodes) {
    if (b.netlist().gate(id).fanouts.empty() && !b.netlist().is_input(id)) {
      sinks.push_back(id);
    }
  }
  unsigned made = 0;
  for (const GateId s : sinks) {
    if (made >= options.n_outputs) break;
    b.output("o" + std::to_string(made++), s);
  }
  while (made < options.n_outputs) {
    b.output("o" + std::to_string(made++),
             nodes[options.n_inputs + rng.index(nodes.size() - options.n_inputs)]);
  }
  return b.take();
}

}  // namespace statsizer::circuits
