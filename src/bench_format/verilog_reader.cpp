#include "bench_format/verilog_reader.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace statsizer::bench_format {

using netlist::GateId;
using netlist::Netlist;

namespace {

Status err(int line, const std::string& what) {
  return Status::invalid_argument("line " + std::to_string(line) + ": " + what);
}

/// Character-level lexer over comment-stripped text. Identifiers are liberal
/// (any run outside whitespace and punctuation) so flattened bus-bit names
/// survive; `\escaped ` identifiers are also accepted (backslash dropped,
/// terminated by whitespace) per the Verilog LRM.
class Lexer {
 public:
  explicit Lexer(std::string text) : text_(std::move(text)) {}

  struct Token {
    enum class Kind { kId, kPunct, kEnd } kind = Kind::kEnd;
    /// Identifier text, or the punctuation character: a view of the lexer's
    /// text, valid while the lexer lives.
    std::string_view value;
    int line = 0;
  };

  Token next() {
    skip_space();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;
    const char c = text_[pos_];
    if (is_punct(c)) {
      t.kind = Token::Kind::kPunct;
      t.value = std::string_view(text_).substr(pos_++, 1);
      return t;
    }
    t.kind = Token::Kind::kId;
    const bool escaped = c == '\\';
    if (escaped) ++pos_;  // escaped identifier: everything up to whitespace, '\' dropped
    const std::size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      if (is_space(d) || (!escaped && is_punct(d))) break;
      ++pos_;
    }
    t.value = std::string_view(text_).substr(begin, pos_ - begin);
    return t;
  }

 private:
  static bool is_punct(char c) {
    return c == '(' || c == ')' || c == ',' || c == ';' || c == '.' || c == '=';
  }
  /// std::isspace in the "C" locale, without the per-character library call.
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  void skip_space() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (is_space(c)) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Replaces `//` and `/* */` comments with spaces, preserving newlines so
/// token line numbers stay accurate.
std::string strip_comments(std::string_view text) {
  std::string out(text);
  std::size_t i = 0;
  while (i + 1 < out.size()) {
    if (out[i] == '/' && out[i + 1] == '/') {
      while (i < out.size() && out[i] != '\n') out[i++] = ' ';
    } else if (out[i] == '/' && out[i + 1] == '*') {
      out[i] = out[i + 1] = ' ';
      i += 2;
      while (i + 1 < out.size() && !(out[i] == '*' && out[i + 1] == '/')) {
        if (out[i] != '\n') out[i] = ' ';
        ++i;
      }
      if (i + 1 >= out.size()) return out;  // unterminated; caught as junk later
      out[i] = out[i + 1] = ' ';
      i += 2;
    } else {
      ++i;
    }
  }
  return out;
}

struct Connection {
  std::string pin;
  std::string net;
  int line = 0;
};

struct Instance {
  std::string cell_name;
  std::string inst_name;
  std::vector<Connection> connections;
  int line = 0;
};

struct Assign {
  std::string lhs;
  std::string rhs;
  int line = 0;
};

}  // namespace

StatusOr<Netlist> read_verilog(std::string_view text, const liberty::Library& lib,
                               Provenance* provenance) {
  Lexer lex(strip_comments(text));
  using Token = Lexer::Token;

  // The expect_* helpers consume one token; on a mismatch they record the
  // syntax error in `error` and return false.
  Status error;
  const auto got = [](const Token& t) {
    return t.kind == Token::Kind::kEnd ? std::string("<eof>") : std::string(t.value);
  };
  const auto expect_punct = [&](const char* what) {
    const Token t = lex.next();
    if (t.kind == Token::Kind::kPunct && t.value == what) return true;
    error = err(t.line, std::string("expected '") + what + "', got '" + got(t) + "'");
    return false;
  };
  const auto expect_id = [&](const char* what, Token& out) {
    out = lex.next();
    if (out.kind == Token::Kind::kId) return true;
    error = err(out.line, std::string("expected ") + what + ", got '" + got(out) + "'");
    return false;
  };

  // ---- module header -------------------------------------------------------
  Token kw;
  if (!expect_id("'module'", kw)) return error;
  if (kw.value != "module") {
    return err(kw.line, "expected 'module', got '" + std::string(kw.value) + "'");
  }
  Token mod_name;
  if (!expect_id("module name", mod_name)) return error;

  std::vector<std::string> header_ports;
  Token t = lex.next();
  if (t.kind == Token::Kind::kPunct && t.value == "(") {
    for (;;) {
      t = lex.next();
      if (t.kind == Token::Kind::kPunct && t.value == ")") break;
      if (t.kind != Token::Kind::kId) return err(t.line, "expected port name in module header");
      header_ports.emplace_back(t.value);
      t = lex.next();
      if (t.kind == Token::Kind::kPunct && t.value == ")") break;
      if (t.kind != Token::Kind::kPunct || t.value != ",") {
        return err(t.line, "expected ',' or ')' in module port list");
      }
    }
    t = lex.next();
  }
  if (t.kind != Token::Kind::kPunct || t.value != ";") {
    return err(t.line, "expected ';' after module header");
  }

  // ---- body ---------------------------------------------------------------
  std::vector<std::pair<std::string, int>> input_decls;   // name, line
  std::vector<std::pair<std::string, int>> output_decls;  // name, line
  std::unordered_map<std::string, int> declared;          // any net -> decl line
  std::vector<Instance> instances;
  std::vector<Assign> assigns;

  const auto declare = [&](std::string_view name, int line) -> Status {
    const auto [it, inserted] = declared.emplace(name, line);
    if (!inserted) {
      return err(line, "net '" + it->first + "' declared twice (first at line " +
                           std::to_string(it->second) + ")");
    }
    return Status();
  };

  const std::size_t max_pins = lib.max_arity() + 1;  // a cell's inputs and its output
  bool saw_endmodule = false;
  for (;;) {
    t = lex.next();
    if (t.kind == Token::Kind::kEnd) break;
    if (t.kind != Token::Kind::kId) {
      return err(t.line, "unexpected '" + std::string(t.value) + "'");
    }

    if (t.value == "endmodule") {
      saw_endmodule = true;
      t = lex.next();
      if (t.kind != Token::Kind::kEnd) return err(t.line, "text after 'endmodule'");
      break;
    }

    if (t.value == "input" || t.value == "output" || t.value == "wire") {
      const std::string kind(t.value);
      for (;;) {
        Token id;
        if (!expect_id("net name", id)) return error;
        if (Status s = declare(id.value, id.line); !s.ok()) return s;
        if (kind == "input") input_decls.emplace_back(id.value, id.line);
        if (kind == "output") output_decls.emplace_back(id.value, id.line);
        Token sep = lex.next();
        if (sep.kind == Token::Kind::kPunct && sep.value == ";") break;
        if (sep.kind != Token::Kind::kPunct || sep.value != ",") {
          return err(sep.line, "expected ',' or ';' in " + kind + " declaration");
        }
      }
      continue;
    }

    if (t.value == "assign") {
      Assign a;
      a.line = t.line;
      Token lhs;
      if (!expect_id("assign target", lhs)) return error;
      a.lhs = lhs.value;
      if (!expect_punct("=")) return error;
      Token rhs;
      if (!expect_id("assign source net", rhs)) return error;
      a.rhs = rhs.value;
      if (!expect_punct(";")) return error;
      assigns.push_back(std::move(a));
      continue;
    }

    // Cell instantiation: <CELL> <inst> ( .PIN(net), ... );
    Instance inst;
    inst.cell_name = t.value;
    inst.line = t.line;
    Token inst_name;
    if (!expect_id("instance name", inst_name)) return error;
    inst.inst_name = inst_name.value;
    if (!expect_punct("(")) return error;
    inst.connections.reserve(max_pins);
    for (;;) {
      Token dot = lex.next();
      if (dot.kind == Token::Kind::kPunct && dot.value == ")") break;
      if (dot.kind != Token::Kind::kPunct || dot.value != ".") {
        return err(dot.line, "expected named connection '.PIN(net)' in instance '" +
                                 inst.inst_name + "'");
      }
      Connection c;
      Token pin;
      if (!expect_id("pin name", pin)) return error;
      c.pin = pin.value;
      c.line = pin.line;
      if (!expect_punct("(")) return error;
      Token net;
      if (!expect_id("net name", net)) return error;
      c.net = net.value;
      if (!expect_punct(")")) return error;
      inst.connections.push_back(std::move(c));
      Token sep = lex.next();
      if (sep.kind == Token::Kind::kPunct && sep.value == ")") break;
      if (sep.kind != Token::Kind::kPunct || sep.value != ",") {
        return err(sep.line, "expected ',' or ')' in instance connection list");
      }
    }
    if (!expect_punct(";")) return error;
    instances.push_back(std::move(inst));
  }
  if (!saw_endmodule) return Status::invalid_argument("missing 'endmodule'");

  // Header ports and directional declarations must agree.
  if (!header_ports.empty()) {
    const std::unordered_set<std::string> in_header(header_ports.begin(), header_ports.end());
    for (const auto& [name, line] : input_decls) {
      if (!in_header.contains(name)) {
        return err(line, "input '" + name + "' not listed in the module port list");
      }
    }
    for (const auto& [name, line] : output_decls) {
      if (!in_header.contains(name)) {
        return err(line, "output '" + name + "' not listed in the module port list");
      }
    }
  }

  // ---- bind instances against the library ---------------------------------
  // Net names below point into `instances` and the declarations, which no
  // longer change.
  struct GateDef {
    const Instance* inst = nullptr;
    std::uint32_t group_index = 0;
    std::uint16_t size_index = 0;
    std::vector<const std::string*> fanin_nets;  // in cell input-pin order
    bool on_stack = false;  // resolve(): on the current DFS path
  };
  std::unordered_map<std::string_view, GateDef> driven;  // output net -> definition
  driven.reserve(instances.size());
  std::vector<const std::string*> driven_order;
  driven_order.reserve(instances.size());

  /// A cell name's library binding, resolved once per distinct name.
  struct Binding {
    const liberty::Cell* cell = nullptr;
    std::uint32_t group_index = 0;
    std::uint16_t size_index = 0;
  };
  std::unordered_map<std::string_view, Binding> bindings;
  const auto bind = [&](const Instance& inst) -> StatusOr<Binding> {
    if (const auto it = bindings.find(inst.cell_name); it != bindings.end()) return it->second;
    const auto cell_index = lib.find_cell(inst.cell_name);
    if (!cell_index.has_value()) {
      return err(inst.line, "unknown cell '" + inst.cell_name + "' (library " +
                                lib.name() + ")");
    }
    const auto parsed = liberty::parse_cell_name(inst.cell_name);
    const auto group_index = lib.find_group(parsed.base);
    if (!group_index.has_value()) {
      return err(inst.line, "cell '" + inst.cell_name + "' has no sizing group");
    }
    const liberty::CellGroup& group = lib.group(*group_index);
    for (std::size_t s = 0; s < group.sizes().size(); ++s) {
      if (group.sizes()[s] == *cell_index) {
        const Binding b{&lib.cell(*cell_index), *group_index, static_cast<std::uint16_t>(s)};
        bindings.emplace(inst.cell_name, b);
        return b;
      }
    }
    return err(inst.line, "cell '" + inst.cell_name + "' missing from group '" +
                              group.base_name() + "'");
  };

  for (const Instance& inst : instances) {
    const StatusOr<Binding> binding = bind(inst);
    if (!binding.ok()) return binding.status();
    const liberty::Cell& cell = *binding->cell;

    GateDef def;
    def.inst = &inst;
    def.group_index = binding->group_index;
    def.size_index = binding->size_index;
    const auto input_pins = cell.input_pins();
    def.fanin_nets.assign(input_pins.size(), nullptr);
    std::vector<bool> pin_seen(input_pins.size(), false);
    const std::string* out_net = nullptr;

    for (const Connection& c : inst.connections) {
      if (!declared.contains(c.net)) {
        return err(c.line, "net '" + c.net + "' is not declared");
      }
      if (c.pin == cell.output().name) {
        if (out_net != nullptr) {
          return err(c.line, "output pin '" + c.pin + "' connected twice on instance '" +
                                 inst.inst_name + "'");
        }
        out_net = &c.net;
        continue;
      }
      bool matched = false;
      for (std::size_t i = 0; i < input_pins.size(); ++i) {
        if (input_pins[i]->name == c.pin) {
          if (pin_seen[i]) {
            return err(c.line, "pin '" + c.pin + "' connected twice on instance '" +
                                   inst.inst_name + "'");
          }
          pin_seen[i] = true;
          def.fanin_nets[i] = &c.net;
          matched = true;
          break;
        }
      }
      if (!matched) {
        return err(c.line, "cell '" + inst.cell_name + "' has no pin '" + c.pin + "'");
      }
    }
    if (out_net == nullptr) {
      return err(inst.line, "instance '" + inst.inst_name + "' leaves output pin '" +
                                cell.output().name + "' unconnected");
    }
    for (std::size_t i = 0; i < input_pins.size(); ++i) {
      if (!pin_seen[i]) {
        return err(inst.line, "instance '" + inst.inst_name + "' leaves input pin '" +
                                  input_pins[i]->name + "' unconnected");
      }
    }
    const auto [it, inserted] = driven.emplace(*out_net, std::move(def));
    if (!inserted) {
      return err(inst.line, "net '" + *out_net + "' driven twice (also by instance '" +
                                it->second.inst->inst_name + "')");
    }
    driven_order.push_back(out_net);
  }

  // ---- classify assigns: constant drivers vs output aliases ---------------
  // `assign x = 1'b0;` drives net x with a constant (kConst node);
  // `assign y = net;` aliases output port y to an existing net.
  const std::unordered_set<std::string> output_set = [&] {
    std::unordered_set<std::string> s;
    for (const auto& [name, _] : output_decls) s.insert(name);
    return s;
  }();
  std::unordered_map<std::string, netlist::GateFunc> const_nets;
  std::unordered_map<std::string, int> const_lines;  // const net -> assign line
  std::unordered_map<std::string, std::pair<std::string, int>> alias;  // port -> (net, line)
  for (const Assign& a : assigns) {
    if (!declared.contains(a.lhs)) return err(a.line, "net '" + a.lhs + "' is not declared");
    if (driven.contains(a.lhs)) {
      return err(a.line, "net '" + a.lhs + "' is driven both by an instance and an assign");
    }
    if (a.rhs == "1'b0" || a.rhs == "1'b1") {
      if (alias.contains(a.lhs) ||
          !const_nets.emplace(a.lhs, a.rhs == "1'b0" ? netlist::GateFunc::kConst0
                                                     : netlist::GateFunc::kConst1)
               .second) {
        return err(a.line, "net '" + a.lhs + "' assigned twice");
      }
      const_lines.emplace(a.lhs, a.line);
      continue;
    }
    if (!output_set.contains(a.lhs)) {
      return err(a.line, "assign target '" + a.lhs +
                             "' is not an output port (only constants and output aliasing "
                             "are supported)");
    }
    if (!declared.contains(a.rhs)) return err(a.line, "net '" + a.rhs + "' is not declared");
    if (const_nets.contains(a.lhs) ||
        !alias.emplace(a.lhs, std::make_pair(a.rhs, a.line)).second) {
      return err(a.line, "output '" + a.lhs + "' assigned twice");
    }
  }

  // ---- build the netlist (depth-first resolution, like read_bench) --------
  Netlist nl{std::string(mod_name.value)};
  // A net's node carries the net's name (names are unique: each net is
  // declared once and resolved once), so the netlist's own name index maps
  // resolved nets to their nodes.
  for (const auto& [name, line] : input_decls) {
    if (driven.contains(name) || const_nets.contains(name)) {
      return err(line, "input '" + name + "' is also driven inside the module");
    }
    (void)nl.add_input(name);
    if (provenance != nullptr) provenance->line_of.emplace(name, line);
  }

  std::vector<std::string_view> stack;  // current DFS path, for cycle witnesses
  Status failure;
  const std::function<GateId(const std::string&)> resolve =
      [&](const std::string& net) -> GateId {
    if (const GateId id = nl.find(net); id != netlist::kNoGate) return id;
    if (const auto it = const_nets.find(net); it != const_nets.end()) {
      const GateId id = nl.add_gate(it->second, std::initializer_list<GateId>{}, net);
      if (provenance != nullptr) {
        if (const auto cl = const_lines.find(net); cl != const_lines.end()) {
          provenance->line_of.emplace(net, cl->second);
        }
      }
      return id;
    }
    const auto def_it = driven.find(net);
    if (def_it == driven.end()) {
      if (failure.ok()) failure = Status::invalid_argument("net '" + net + "' has no driver");
      return netlist::kNoGate;
    }
    GateDef& def = def_it->second;
    if (def.on_stack) {
      if (failure.ok()) {
        // The DFS stack from the first occurrence of @p net down to here is
        // the cycle; report it in signal-flow order as the witness.
        std::vector<std::string> cycle;
        const auto first = std::find(stack.begin(), stack.end(), net);
        cycle.assign(first, stack.end());
        cycle.push_back(net);
        std::string path;
        for (const std::string& s : cycle) {
          if (!path.empty()) path += " -> ";
          path += s;
        }
        failure = Status::invalid_argument("line " + std::to_string(def.inst->line) +
                                ": combinational cycle: " + path);
        if (provenance != nullptr) provenance->cycle = std::move(cycle);
      }
      return netlist::kNoGate;
    }
    def.on_stack = true;
    stack.push_back(net);
    std::vector<GateId> fanins;
    fanins.reserve(def.fanin_nets.size());
    for (const std::string* f : def.fanin_nets) {
      const GateId fid = resolve(*f);
      if (fid == netlist::kNoGate) return netlist::kNoGate;
      fanins.push_back(fid);
    }
    def.on_stack = false;
    stack.pop_back();
    const GateId id = nl.add_gate(lib.group(def.group_index).func(), fanins, net);
    nl.gate(id).cell_group = def.group_index;
    nl.gate(id).size_index = def.size_index;
    if (provenance != nullptr) provenance->line_of.emplace(net, def.inst->line);
    return id;
  };

  // Constants first (in file order), then instance outputs: every declared
  // driver is materialized even when unreachable from a primary output, so
  // write_verilog(read_verilog(text)) reproduces the full structure.
  for (const Assign& a : assigns) {
    if (const_nets.contains(a.lhs)) {
      resolve(a.lhs);
      if (!failure.ok()) return failure;
    }
  }
  for (const std::string* net : driven_order) {
    resolve(*net);
    if (!failure.ok()) return failure;
  }

  // ---- primary outputs: direct nets or assign-aliases ---------------------
  for (const auto& [name, line] : output_decls) {
    const auto alias_it = alias.find(name);
    const std::string& net = alias_it == alias.end() ? name : alias_it->second.first;
    const int at = alias_it == alias.end() ? line : alias_it->second.second;
    const GateId id = resolve(net);
    if (!failure.ok()) return failure;
    if (id == netlist::kNoGate) {
      return err(at, "output '" + name + "' has no driver");
    }
    nl.add_output(name, id);
    if (provenance != nullptr) provenance->line_of.emplace(name, line);
  }

  if (const Status s = nl.check(); !s.ok()) return s;
  return nl;
}

StatusOr<Netlist> read_verilog_file(const std::string& path, const liberty::Library& lib,
                                    Provenance* provenance) {
  std::ifstream file(path);
  if (!file) return Status::invalid_argument("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (provenance != nullptr) provenance->file = path;
  return read_verilog(buffer.str(), lib, provenance);
}

}  // namespace statsizer::bench_format
