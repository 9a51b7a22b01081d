#include "liberty/parser.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <unordered_map>

namespace statsizer::liberty {

namespace {

constexpr int kMaxDepth = 64;  // group nesting bound, as util::Json's

enum class TokKind { kIdent, kString, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  char punct = 0;
  int line = 0;
};

/// Liberty tokenizer. Identifiers are generous: they include numbers, units
/// ("1ns"), dots and signs, since Liberty attribute values are free-form.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_space_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;

    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;  // escapes
        if (text_[pos_] == '\n') ++line_;
        value.push_back(text_[pos_++]);
      }
      if (pos_ < text_.size()) ++pos_;  // closing quote
      t.kind = TokKind::kString;
      t.text = std::move(value);
      return t;
    }
    if (c == '(' || c == ')' || c == '{' || c == '}' || c == ':' || c == ';' || c == ',') {
      ++pos_;
      t.kind = TokKind::kPunct;
      t.punct = c;
      t.text.assign(1, c);
      return t;
    }
    // Identifier / bare value.
    std::string value;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(d)) || d == '(' || d == ')' || d == '{' ||
          d == '}' || d == ':' || d == ';' || d == ',' || d == '"') {
        break;
      }
      value.push_back(d);
      ++pos_;
    }
    if (value.empty()) {
      // Unknown byte; skip it to guarantee progress.
      ++pos_;
      return next();
    }
    t.kind = TokKind::kIdent;
    t.text = std::move(value);
    return t;
  }

 private:
  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '\\' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
        ++line_;
        pos_ += 2;  // line continuation
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() && !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { advance(); }

  StatusOr<AstGroup> parse_top() {
    if (current_.kind != TokKind::kIdent) {
      return Status::error("line " + std::to_string(current_.line) +
                           ": expected a group name at top level");
    }
    return parse_group();
  }

 private:
  void advance() { current_ = lexer_.next(); }

  [[nodiscard]] bool is_punct(char c) const {
    return current_.kind == TokKind::kPunct && current_.punct == c;
  }

  Status expect_punct(char c) {
    if (!is_punct(c)) {
      return Status::error("line " + std::to_string(current_.line) + ": expected '" +
                           std::string(1, c) + "', got '" + current_.text + "'");
    }
    advance();
    return Status();
  }

  /// current_ is the group type identifier.
  StatusOr<AstGroup> parse_group() {
    AstGroup g;
    g.type = current_.text;
    advance();
    if (Status s = expect_punct('('); !s.ok()) return s;
    while (!is_punct(')')) {
      if (current_.kind == TokKind::kEnd) {
        return Status::error("unexpected end of input in group argument list");
      }
      if (current_.kind == TokKind::kIdent || current_.kind == TokKind::kString) {
        g.args.push_back(current_.text);
        advance();
      } else if (is_punct(',')) {
        advance();
      } else {
        return Status::error("line " + std::to_string(current_.line) +
                             ": unexpected token '" + current_.text + "' in arguments");
      }
    }
    advance();  // ')'
    if (Status s = expect_punct('{'); !s.ok()) return s;
    if (Status s = parse_group_body(g, 1); !s.ok()) return s;
    return g;
  }

  /// Parses statements until the matching '}' into @p g ('{' already eaten),
  /// @p g being nested @p depth groups deep.
  Status parse_group_body(AstGroup& g, int depth) {
    while (!is_punct('}')) {
      if (current_.kind == TokKind::kEnd) {
        return Status::error("unexpected end of input inside group '" + g.type + "'");
      }
      if (current_.kind != TokKind::kIdent) {
        return Status::error("line " + std::to_string(current_.line) +
                             ": expected statement, got '" + current_.text + "'");
      }
      const std::string name = current_.text;
      const int line = current_.line;
      advance();
      if (is_punct(':')) {
        advance();
        std::string value;
        while (current_.kind == TokKind::kIdent || current_.kind == TokKind::kString ||
               is_punct(',')) {
          if (!value.empty()) value += ' ';
          value += current_.text;
          advance();
        }
        if (Status s = expect_punct(';'); !s.ok()) return s;
        g.attrs.emplace_back(name, std::move(value));
      } else if (is_punct('(')) {
        advance();
        std::vector<std::string> values;
        while (!is_punct(')')) {
          if (current_.kind == TokKind::kEnd) {
            return Status::error("line " + std::to_string(line) +
                                 ": unterminated '(' in statement '" + name + "'");
          }
          if (current_.kind == TokKind::kIdent || current_.kind == TokKind::kString) {
            values.push_back(current_.text);
            advance();
          } else if (is_punct(',')) {
            advance();
          } else {
            return Status::error("line " + std::to_string(current_.line) +
                                 ": unexpected token '" + current_.text + "'");
          }
        }
        advance();
        if (is_punct('{')) {
          if (depth == kMaxDepth) {
            return Status::error("line " + std::to_string(line) + ": groups nested deeper than " +
                                 std::to_string(kMaxDepth));
          }
          advance();
          AstGroup child;
          child.type = name;
          child.args = std::move(values);
          Status s = parse_group_body(child, depth + 1);
          if (!s.ok()) return s;
          g.children.push_back(std::move(child));
        } else {
          if (Status s = expect_punct(';'); !s.ok()) return s;
          g.complex_attrs.emplace_back(name, std::move(values));
        }
      } else {
        return Status::error("line " + std::to_string(line) + ": statement '" + name +
                             "' must be followed by ':' or '('");
      }
    }
    advance();  // '}'
    return Status();
  }

  Lexer lexer_;
  Token current_;
};

/// LUT template registry: template name -> (index_1, index_2).
struct LutTemplate {
  std::vector<double> index1;
  std::vector<double> index2;
};

StatusOr<Lut> interpret_lut(const AstGroup& g,
                            const std::unordered_map<std::string, LutTemplate>& templates) {
  Lut lut;
  if (!g.args.empty()) {
    const auto it = templates.find(g.args[0]);
    if (it != templates.end()) {
      lut.index1 = it->second.index1;
      lut.index2 = it->second.index2;
    } else if (g.args[0] != "scalar") {
      return Status::error("unknown lu_table_template '" + g.args[0] + "'");
    }
  }
  if (const auto* idx = g.complex_attr("index_1")) {
    auto parsed = parse_number_list(idx->empty() ? "" : (*idx)[0]);
    if (!parsed.ok()) return parsed.status();
    lut.index1 = std::move(parsed.value());
  }
  if (const auto* idx = g.complex_attr("index_2")) {
    auto parsed = parse_number_list(idx->empty() ? "" : (*idx)[0]);
    if (!parsed.ok()) return parsed.status();
    lut.index2 = std::move(parsed.value());
  }
  const auto* values = g.complex_attr("values");
  if (values == nullptr) return Status::error("LUT group '" + g.type + "' has no values()");
  for (const std::string& row : *values) {
    auto parsed = parse_number_list(row);
    if (!parsed.ok()) return parsed.status();
    lut.values.insert(lut.values.end(), parsed->begin(), parsed->end());
  }
  if (!lut.shape_ok()) {
    return Status::error("LUT group '" + g.type + "': values count does not match indices");
  }
  return lut;
}

StatusOr<double> parse_double_attr(const AstGroup& g, std::string_view name) {
  const std::string_view v = g.attr(name);
  if (v.empty()) return Status::error("missing attribute '" + std::string(name) + "'");
  char* end = nullptr;
  const double value = std::strtod(std::string(v).c_str(), &end);
  return value;
}

StatusOr<TimingArc> interpret_arc(const AstGroup& g,
                                  const std::unordered_map<std::string, LutTemplate>& templates) {
  TimingArc arc;
  arc.related_pin = std::string(g.attr("related_pin"));
  if (arc.related_pin.empty()) return Status::error("timing() group without related_pin");
  const struct {
    const char* name;
    Lut TimingArc::*member;
  } kTables[] = {
      {"cell_rise", &TimingArc::cell_rise},
      {"cell_fall", &TimingArc::cell_fall},
      {"rise_transition", &TimingArc::rise_transition},
      {"fall_transition", &TimingArc::fall_transition},
  };
  for (const auto& entry : kTables) {
    if (const AstGroup* lut_group = g.child(entry.name)) {
      auto lut = interpret_lut(*lut_group, templates);
      if (!lut.ok()) return lut.status();
      arc.*(entry.member) = std::move(lut.value());
    }
  }
  if (arc.cell_rise.empty() && arc.cell_fall.empty()) {
    return Status::error("timing() from '" + arc.related_pin + "' has no delay tables");
  }
  // Tolerate single-polarity tables by mirroring.
  if (arc.cell_rise.empty()) arc.cell_rise = arc.cell_fall;
  if (arc.cell_fall.empty()) arc.cell_fall = arc.cell_rise;
  if (arc.rise_transition.empty()) arc.rise_transition = arc.fall_transition;
  if (arc.fall_transition.empty()) arc.fall_transition = arc.rise_transition;
  if (arc.rise_transition.empty()) {
    // No transition data at all: degrade to a zero-slew scalar.
    arc.rise_transition.values = {0.0};
    arc.fall_transition.values = {0.0};
  }
  return arc;
}

StatusOr<Pin> interpret_pin(const AstGroup& g,
                            const std::unordered_map<std::string, LutTemplate>& templates) {
  Pin pin;
  if (g.args.empty()) return Status::error("pin group without a name");
  pin.name = g.args[0];
  const std::string_view dir = g.attr("direction");
  if (dir == "input") {
    pin.direction = PinDirection::kInput;
  } else if (dir == "output") {
    pin.direction = PinDirection::kOutput;
  } else {
    return Status::error("pin " + pin.name + ": direction must be input or output");
  }
  if (!g.attr("capacitance").empty()) {
    auto v = parse_double_attr(g, "capacitance");
    if (!v.ok()) return v.status();
    pin.capacitance_ff = *v;
  }
  if (!g.attr("max_capacitance").empty()) {
    auto v = parse_double_attr(g, "max_capacitance");
    if (!v.ok()) return v.status();
    pin.max_capacitance_ff = *v;
  }
  if (!g.attr("max_transition").empty()) {
    auto v = parse_double_attr(g, "max_transition");
    if (!v.ok()) return v.status();
    pin.max_transition_ps = *v;
  }
  pin.function = std::string(g.attr("function"));
  for (const AstGroup& child : g.children) {
    if (child.type == "timing") {
      auto arc = interpret_arc(child, templates);
      if (!arc.ok()) return arc.status();
      pin.arcs.push_back(std::move(arc.value()));
    }
  }
  return pin;
}

}  // namespace

std::string_view AstGroup::attr(std::string_view name) const {
  for (const auto& [k, v] : attrs) {
    if (k == name) return v;
  }
  return {};
}

const std::vector<std::string>* AstGroup::complex_attr(std::string_view name) const {
  for (const auto& [k, v] : complex_attrs) {
    if (k == name) return &v;
  }
  return nullptr;
}

const AstGroup* AstGroup::child(std::string_view wanted_type) const {
  for (const AstGroup& c : children) {
    if (c.type == wanted_type) return &c;
  }
  return nullptr;
}

StatusOr<std::vector<double>> parse_number_list(std::string_view text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[pos])) || text[pos] == ',')) {
      ++pos;
    }
    if (pos >= text.size()) break;
    const std::size_t start = pos;
    while (pos < text.size() && !std::isspace(static_cast<unsigned char>(text[pos])) &&
           text[pos] != ',') {
      ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) {
      return Status::error("bad number in list: '" + token + "'");
    }
    out.push_back(v);
  }
  return out;
}

StatusOr<AstGroup> parse_ast(std::string_view text) {
  Parser parser(text);
  return parser.parse_top();
}

StatusOr<Library> parse_library(std::string_view text) {
  auto ast = parse_ast(text);
  if (!ast.ok()) return ast.status();
  const AstGroup& root = *ast;
  if (root.type != "library") {
    return Status::error("top-level group is '" + root.type + "', expected 'library'");
  }
  Library lib(root.args.empty() ? "lib" : root.args[0]);

  std::unordered_map<std::string, LutTemplate> templates;
  for (const AstGroup& child : root.children) {
    if (child.type != "lu_table_template") continue;
    if (child.args.empty()) return Status::error("lu_table_template without a name");
    LutTemplate t;
    if (const auto* idx = child.complex_attr("index_1")) {
      auto parsed = parse_number_list(idx->empty() ? "" : (*idx)[0]);
      if (!parsed.ok()) return parsed.status();
      t.index1 = std::move(parsed.value());
    }
    if (const auto* idx = child.complex_attr("index_2")) {
      auto parsed = parse_number_list(idx->empty() ? "" : (*idx)[0]);
      if (!parsed.ok()) return parsed.status();
      t.index2 = std::move(parsed.value());
    }
    templates.emplace(child.args[0], std::move(t));
  }

  for (const AstGroup& child : root.children) {
    if (child.type != "cell") continue;
    if (child.args.empty()) return Status::error("cell group without a name");
    Cell cell;
    cell.name = child.args[0];
    if (!child.attr("area").empty()) {
      auto v = parse_double_attr(child, "area");
      if (!v.ok()) return v.status();
      cell.area_um2 = *v;
    }
    for (const AstGroup& pin_group : child.children) {
      if (pin_group.type != "pin") continue;
      auto pin = interpret_pin(pin_group, templates);
      if (!pin.ok()) {
        return Status::error("cell " + cell.name + ": " + pin.status().message());
      }
      cell.pins.push_back(std::move(pin.value()));
    }
    lib.add_cell(std::move(cell));
  }

  if (Status s = lib.finalize(); !s.ok()) return s;
  return lib;
}

}  // namespace statsizer::liberty
