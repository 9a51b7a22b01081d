#include "bench_format/verilog_reader.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_format/assemble.h"

namespace statsizer::bench_format {

using netlist::Netlist;

namespace {

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

// Parsed statements: views of the lexer's text, valid while the lexer lives.
struct Connection {
  std::string_view pin;
  std::string_view net;
  int line = 0;
};

struct Instance {
  std::string_view cell_name;
  std::string_view inst_name;
  std::vector<Connection> connections;
  int line = 0;
};

struct Assign {
  std::string_view lhs;
  std::string_view rhs;
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
    return t.kind == Token::Kind::kEnd ? std::string_view("<eof>") : t.value;
  };
  const auto expect_punct = [&](const char* what) {
    const Token t = lex.next();
    if (t.kind == Token::Kind::kPunct && t.value == what) return true;
    error = line_error(t.line, "expected '", what, "', got '", got(t), "'");
    return false;
  };
  const auto expect_id = [&](const char* what, Token& out) {
    out = lex.next();
    if (out.kind == Token::Kind::kId) return true;
    error = line_error(out.line, "expected ", what, ", got '", got(out), "'");
    return false;
  };

  // ---- module header -------------------------------------------------------
  Token kw;
  if (!expect_id("'module'", kw)) return error;
  if (kw.value != "module") return line_error(kw.line, "expected 'module', got '", kw.value, "'");
  Token mod_name;
  if (!expect_id("module name", mod_name)) return error;

  std::vector<std::string_view> header_ports;
  Token t = lex.next();
  if (t.kind == Token::Kind::kPunct && t.value == "(") {
    for (;;) {
      t = lex.next();
      if (t.kind == Token::Kind::kPunct && t.value == ")") break;
      if (t.kind != Token::Kind::kId) {
        return line_error(t.line, "expected port name in module header");
      }
      header_ports.push_back(t.value);
      t = lex.next();
      if (t.kind == Token::Kind::kPunct && t.value == ")") break;
      if (t.kind != Token::Kind::kPunct || t.value != ",") {
        return line_error(t.line, "expected ',' or ')' in module port list");
      }
    }
    t = lex.next();
  }
  if (t.kind != Token::Kind::kPunct || t.value != ";") {
    return line_error(t.line, "expected ';' after module header");
  }

  // ---- body ---------------------------------------------------------------
  NetlistSource source;
  source.module = mod_name.value;
  std::unordered_map<std::string_view, int> declared;  // any net -> decl line
  std::vector<Instance> instances;
  std::vector<Assign> assigns;

  const std::size_t max_pins = lib.max_arity() + 1;  // a cell's inputs and its output
  bool saw_endmodule = false;
  for (;;) {
    t = lex.next();
    if (t.kind == Token::Kind::kEnd) break;
    if (t.kind != Token::Kind::kId) return line_error(t.line, "unexpected '", t.value, "'");

    if (t.value == "endmodule") {
      saw_endmodule = true;
      t = lex.next();
      if (t.kind != Token::Kind::kEnd) return line_error(t.line, "text after 'endmodule'");
      break;
    }

    if (t.value == "input" || t.value == "output" || t.value == "wire") {
      const std::string_view kind = t.value;
      for (;;) {
        Token id;
        if (!expect_id("net name", id)) return error;
        if (const auto [it, inserted] = declared.emplace(id.value, id.line); !inserted) {
          return line_error(id.line, "net '", id.value, "' declared twice (first at line ",
                            std::to_string(it->second), ")");
        }
        if (kind == "input") source.inputs.push_back({id.value, id.line});
        if (kind == "output") source.outputs.push_back({id.value, id.value, id.line, id.line});
        Token sep = lex.next();
        if (sep.kind == Token::Kind::kPunct && sep.value == ";") break;
        if (sep.kind != Token::Kind::kPunct || sep.value != ",") {
          return line_error(sep.line, "expected ',' or ';' in ", kind, " declaration");
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
      assigns.push_back(a);
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
        return line_error(dot.line, "expected named connection '.PIN(net)' in instance '",
                          inst.inst_name, "'");
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
      inst.connections.push_back(c);
      Token sep = lex.next();
      if (sep.kind == Token::Kind::kPunct && sep.value == ")") break;
      if (sep.kind != Token::Kind::kPunct || sep.value != ",") {
        return line_error(sep.line, "expected ',' or ')' in instance connection list");
      }
    }
    if (!expect_punct(";")) return error;
    instances.push_back(std::move(inst));
  }
  if (!saw_endmodule) return Status::invalid_argument("missing 'endmodule'");

  // Header ports and directional declarations must agree.
  if (!header_ports.empty()) {
    const std::unordered_set<std::string_view> in_header(header_ports.begin(),
                                                         header_ports.end());
    for (const NetlistSource::Port& in : source.inputs) {
      if (!in_header.contains(in.name)) {
        return line_error(in.line, "input '", in.name, "' not listed in the module port list");
      }
    }
    for (const NetlistSource::Output& out : source.outputs) {
      if (!in_header.contains(out.name)) {
        return line_error(out.line, "output '", out.name, "' not listed in the module port list");
      }
    }
  }

  // ---- bind instances against the library ---------------------------------
  source.drivers.reserve(instances.size() + assigns.size() + source.inputs.size());
  source.build_order.reserve(instances.size() + assigns.size());
  /// A cell name's library binding, resolved once per distinct name.
  struct Binding {
    const liberty::Cell* cell = nullptr;
    std::vector<const liberty::Pin*> input_pins;
    std::uint32_t group_index = 0;
    std::uint16_t size_index = 0;
  };
  std::unordered_map<std::string_view, Binding> bindings;
  const auto bind = [&](const Instance& inst) -> StatusOr<const Binding*> {
    if (const auto it = bindings.find(inst.cell_name); it != bindings.end()) return &it->second;
    const std::string cell_name(inst.cell_name);
    const auto cell_index = lib.find_cell(cell_name);
    if (!cell_index.has_value()) {
      return line_error(inst.line, "unknown cell '", cell_name, "' (library ", lib.name(), ")");
    }
    const auto group_index = lib.find_group(liberty::parse_cell_name(cell_name).base);
    if (!group_index.has_value()) {
      return line_error(inst.line, "cell '", cell_name, "' has no sizing group");
    }
    const liberty::CellGroup& group = lib.group(*group_index);
    const std::span<const std::uint32_t> sizes = group.sizes();
    const auto size = std::find(sizes.begin(), sizes.end(), *cell_index);
    if (size == sizes.end()) {
      return line_error(inst.line, "cell '", cell_name, "' missing from group '",
                        group.base_name(), "'");
    }
    const liberty::Cell& cell = lib.cell(*cell_index);
    const auto size_index = static_cast<std::uint16_t>(size - sizes.begin());
    const Binding b{&cell, cell.input_pins(), *group_index, size_index};
    return &bindings.emplace(inst.cell_name, b).first->second;
  };

  std::vector<bool> pin_seen;
  for (const Instance& inst : instances) {
    const StatusOr<const Binding*> binding = bind(inst);
    if (!binding.ok()) return binding.status();
    const Binding& b = **binding;
    const auto& input_pins = b.input_pins;

    NetDriver def;
    def.func = lib.group(b.group_index).func();
    def.line = inst.line;
    def.cell_group = b.group_index;
    def.size_index = b.size_index;
    def.fanins.assign(input_pins.size(), std::string_view());
    pin_seen.assign(input_pins.size(), false);
    const Connection* out = nullptr;

    for (const Connection& c : inst.connections) {
      if (!declared.contains(c.net)) return line_error(c.line, "net '", c.net, "' is not declared");
      if (c.pin == b.cell->output().name) {
        if (out != nullptr) {
          return line_error(c.line, "output pin '", c.pin, "' connected twice on instance '",
                            inst.inst_name, "'");
        }
        out = &c;
        continue;
      }
      const auto pin = std::find_if(input_pins.begin(), input_pins.end(),
                                    [&](const liberty::Pin* p) { return p->name == c.pin; });
      if (pin == input_pins.end()) {
        return line_error(c.line, "cell '", inst.cell_name, "' has no pin '", c.pin, "'");
      }
      const auto i = static_cast<std::size_t>(pin - input_pins.begin());
      if (pin_seen[i]) {
        return line_error(c.line, "pin '", c.pin, "' connected twice on instance '",
                          inst.inst_name, "'");
      }
      pin_seen[i] = true;
      def.fanins[i] = c.net;
    }
    if (out == nullptr) {
      return line_error(inst.line, "instance '", inst.inst_name, "' leaves output pin '",
                        b.cell->output().name, "' unconnected");
    }
    for (std::size_t i = 0; i < input_pins.size(); ++i) {
      if (!pin_seen[i]) {
        return line_error(inst.line, "instance '", inst.inst_name, "' leaves input pin '",
                          input_pins[i]->name, "' unconnected");
      }
    }
    if (const auto [it, inserted] = source.drivers.emplace(out->net, std::move(def)); !inserted) {
      return line_error(inst.line, "net '", out->net, "' driven twice (also at line ",
                        std::to_string(it->second.line), ")");
    }
    source.build_order.push_back(out->net);
  }

  // ---- constant drivers and output aliases --------------------------------
  // `assign x = 1'b0;` drives net x with a constant (kConst node); the
  // constants are built first, in file order. `assign y = net;` aliases
  // output port y to an existing net.
  std::unordered_map<std::string_view, NetlistSource::Output*> ports;
  for (NetlistSource::Output& out : source.outputs) ports.emplace(out.name, &out);
  std::unordered_set<std::string_view> aliased;
  std::vector<std::string_view> constants;
  for (const Assign& a : assigns) {
    if (!declared.contains(a.lhs)) return line_error(a.line, "net '", a.lhs, "' is not declared");
    const auto driver = source.drivers.find(a.lhs);
    const bool driven = driver != source.drivers.end();
    if (driven && driver->second.cell_group != netlist::kUnmapped) {
      return line_error(a.line, "net '", a.lhs, "' is driven both by an instance and an assign");
    }
    if (a.rhs == "1'b0" || a.rhs == "1'b1") {
      if (driven || aliased.contains(a.lhs)) {
        return line_error(a.line, "net '", a.lhs, "' assigned twice");
      }
      NetDriver& constant = source.drivers[a.lhs];
      constant.func = a.rhs == "1'b0" ? netlist::GateFunc::kConst0 : netlist::GateFunc::kConst1;
      constant.line = a.line;
      constants.push_back(a.lhs);
      continue;
    }
    const auto port = ports.find(a.lhs);
    if (port == ports.end()) {
      return line_error(a.line, "assign target '", a.lhs,
                        "' is not an output port (only constants and output aliasing are "
                        "supported)");
    }
    if (!declared.contains(a.rhs)) return line_error(a.line, "net '", a.rhs, "' is not declared");
    if (driven || !aliased.insert(a.lhs).second) {
      return line_error(a.line, "output '", a.lhs, "' assigned twice");
    }
    port->second->net = a.rhs;
    port->second->use_line = a.line;
  }
  source.build_order.insert(source.build_order.begin(), constants.begin(), constants.end());
  return assemble_netlist(std::move(source), provenance);
}

StatusOr<Netlist> read_verilog_file(const std::string& path, const liberty::Library& lib,
                                    Provenance* provenance) {
  const StatusOr<std::string> text = read_text_file(path);
  if (!text.ok()) return text.status();
  if (provenance != nullptr) provenance->file = path;
  return read_verilog(*text, lib, provenance);
}

}  // namespace statsizer::bench_format
