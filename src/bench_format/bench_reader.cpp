#include "bench_format/bench_reader.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include "bench_format/assemble.h"

namespace statsizer::bench_format {

using netlist::GateFunc;
using netlist::Netlist;

namespace {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

StatusOr<GateFunc> func_from_name(std::string_view raw, int line) {
  const std::string f = upper(raw);
  if (f == "AND") return GateFunc::kAnd;
  if (f == "NAND") return GateFunc::kNand;
  if (f == "OR") return GateFunc::kOr;
  if (f == "NOR") return GateFunc::kNor;
  if (f == "XOR") return GateFunc::kXor;
  if (f == "NXOR" || f == "XNOR") return GateFunc::kXnor;
  if (f == "NOT" || f == "INV") return GateFunc::kInv;
  if (f == "BUF" || f == "BUFF") return GateFunc::kBuf;
  if (f == "DFF") return line_error(line, "DFF is not supported (combinational netlists only)");
  return line_error(line, "unknown function '", raw, "'");
}

}  // namespace

StatusOr<Netlist> read_bench(std::string_view text, std::string name,
                             Provenance* provenance) {
  NetlistSource source;
  source.module = std::move(name);
  int line_no = 0;
  for (std::size_t next = 0; next < text.size();) {
    const std::size_t newline = std::min(text.find('\n', next), text.size());
    std::string_view line = text.substr(next, newline - next);
    line = trim(line.substr(0, line.find('#')));  // drop the comment
    next = newline + 1;
    ++line_no;
    if (line.empty()) continue;

    // A port declaration is INPUT(name) / OUTPUT(name); a gate assignment has
    // an '='. Checking the prefix alone would misparse gate targets that
    // merely *start* with INPUT/OUTPUT (e.g. "INPUT_REG_3 = AND(a, b)"), so
    // the port branch requires the absence of '=' AND the keyword to be
    // exactly INPUT/OUTPUT up to the '('.
    const std::string uline = upper(line);
    const bool is_input = uline.starts_with("INPUT");
    if ((is_input || uline.starts_with("OUTPUT")) && line.find('=') == std::string_view::npos) {
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos || close <= open) {
        return line_error(line_no, "malformed port: ", line);
      }
      const std::string_view keyword = trim(std::string_view(uline).substr(0, open));
      if (keyword != "INPUT" && keyword != "OUTPUT") {
        return line_error(line_no, "expected INPUT(...) or OUTPUT(...), got: ", line);
      }
      if (!trim(line.substr(close + 1)).empty()) {
        return line_error(line_no, "trailing text after port declaration: ", line);
      }
      const std::string_view port = trim(line.substr(open + 1, close - open - 1));
      if (port.empty()) return line_error(line_no, "empty port name");
      if (is_input) {
        source.inputs.push_back({port, line_no});
      } else {
        // A repeated OUTPUT declaration parses: both primary outputs are
        // materialized and drc::check_netlist reports the multi-driven net.
        source.outputs.push_back({port, port, line_no, line_no});
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) return line_error(line_no, "expected assignment: ", line);
    const std::string_view target = trim(line.substr(0, eq));
    const std::string_view rhs = trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos || close <= open) {
      return line_error(line_no, "malformed gate: ", line);
    }
    if (!trim(rhs.substr(close + 1)).empty()) {
      return line_error(line_no, "trailing text after gate definition: ", line);
    }
    auto func = func_from_name(trim(rhs.substr(0, open)), line_no);
    if (!func.ok()) return func.status();

    NetDriver def;
    def.func = *func;
    def.line = line_no;
    const std::string_view args = rhs.substr(open + 1, close - open - 1);
    if (!trim(args).empty()) {
      std::size_t pos = 0;
      for (;;) {
        const std::size_t comma = std::min(args.find(',', pos), args.size());
        const std::string_view arg = trim(args.substr(pos, comma - pos));
        if (arg.empty()) {
          return line_error(line_no, "empty fanin argument (stray comma?): ", line);
        }
        def.fanins.push_back(arg);
        if (comma == args.size()) break;
        pos = comma + 1;
      }
    }
    // .bench allows 1-input AND/OR (identity) and NAND/NOR (inversion).
    if (def.fanins.size() == 1) {
      if (def.func == GateFunc::kAnd || def.func == GateFunc::kOr) def.func = GateFunc::kBuf;
      if (def.func == GateFunc::kNand || def.func == GateFunc::kNor) def.func = GateFunc::kInv;
    }
    if (!source.drivers.try_emplace(target, std::move(def)).second) {
      return line_error(line_no, "signal '", target, "' defined twice");
    }
    source.build_order.push_back(target);
  }
  return assemble_netlist(std::move(source), provenance);
}

StatusOr<Netlist> read_bench_file(const std::string& path, Provenance* provenance) {
  const StatusOr<std::string> text = read_text_file(path);
  if (!text.ok()) return text.status();
  if (provenance != nullptr) provenance->file = path;
  return read_bench(*text, std::filesystem::path(path).stem().string(), provenance);
}

}  // namespace statsizer::bench_format
