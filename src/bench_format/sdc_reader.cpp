#include "bench_format/sdc_reader.h"

#include <cctype>
#include <charconv>
#include <sstream>

#include "bench_format/assemble.h"

namespace statsizer::bench_format {

namespace {

/// Tokens of one SDC line: words, '[', ']', and brace-quoted literals
/// (returned with their braces stripped; inner '[' ']' are literal, so port
/// names like "a[3]" survive when written as {a[3]}).
struct SdcToken {
  enum class Kind { kWord, kOpenBracket, kCloseBracket, kBraced } kind = Kind::kWord;
  std::string value;
};

StatusOr<std::vector<SdcToken>> lex_line(const std::string& line, int line_no) {
  std::vector<SdcToken> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') break;  // comment to end of line
    if (c == '[') {
      tokens.push_back({SdcToken::Kind::kOpenBracket, "["});
      ++i;
      continue;
    }
    if (c == ']') {
      tokens.push_back({SdcToken::Kind::kCloseBracket, "]"});
      ++i;
      continue;
    }
    if (c == '{') {
      const auto close = line.find('}', i + 1);
      if (close == std::string::npos) return line_error(line_no, "unterminated '{' in: " + line);
      tokens.push_back({SdcToken::Kind::kBraced, line.substr(i + 1, close - i - 1)});
      i = close + 1;
      continue;
    }
    if (c == '}') return line_error(line_no, "unmatched '}' in: " + line);
    std::string word;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
           line[i] != '[' && line[i] != ']' && line[i] != '{' && line[i] != '}' &&
           line[i] != '#') {
      word += line[i++];
    }
    tokens.push_back({SdcToken::Kind::kWord, std::move(word)});
  }
  return tokens;
}

StatusOr<double> parse_number(const std::string& word, int line_no) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(word.data(), word.data() + word.size(), value);
  if (ec != std::errc() || ptr != word.data() + word.size()) {
    return line_error(line_no, "expected a number, got '" + word + "'");
  }
  return value;
}

/// Parses a bracketed object list: "[get_ports {a b}]", "[get_ports a]",
/// "[all_inputs]" / "[all_outputs]". @p cursor starts at the '['.
StatusOr<SdcPortDelay> parse_object_list(const std::vector<SdcToken>& tokens,
                                         std::size_t& cursor, bool inputs, int line_no) {
  SdcPortDelay result;
  ++cursor;  // consume '['
  if (cursor >= tokens.size() || tokens[cursor].kind != SdcToken::Kind::kWord) {
    return line_error(line_no, "expected get_ports / all_inputs / all_outputs after '['");
  }
  const std::string& command = tokens[cursor].value;
  const char* all_cmd = inputs ? "all_inputs" : "all_outputs";
  if (command == all_cmd) {
    result.all_ports = true;
    ++cursor;
  } else if (command == "get_ports") {
    ++cursor;
    while (cursor < tokens.size() &&
           (tokens[cursor].kind == SdcToken::Kind::kWord ||
            tokens[cursor].kind == SdcToken::Kind::kBraced)) {
      if (tokens[cursor].kind == SdcToken::Kind::kBraced) {
        // A braced literal may list several whitespace-separated ports.
        std::istringstream parts(tokens[cursor].value);
        std::string p;
        while (parts >> p) result.ports.push_back(p);
      } else {
        result.ports.push_back(tokens[cursor].value);
      }
      ++cursor;
    }
    if (result.ports.empty()) return line_error(line_no, "get_ports with no ports");
  } else {
    return line_error(line_no, "unsupported object query '" + command + "'");
  }
  if (cursor >= tokens.size() || tokens[cursor].kind != SdcToken::Kind::kCloseBracket) {
    return line_error(line_no, "expected ']' to close the object list");
  }
  ++cursor;
  return result;
}

Status parse_port_delay(const std::vector<SdcToken>& tokens, bool inputs, int line_no,
                        Sdc& sdc) {
  SdcPortDelay entry;
  bool have_delay = false;
  bool have_objects = false;
  std::size_t cursor = 1;
  while (cursor < tokens.size()) {
    const SdcToken& t = tokens[cursor];
    if (t.kind == SdcToken::Kind::kWord && t.value == "-clock") {
      if (cursor + 1 >= tokens.size()) return line_error(line_no, "-clock needs a clock name");
      cursor += 2;  // clock name recorded nowhere: single-clock analysis
      continue;
    }
    if (t.kind == SdcToken::Kind::kWord && !t.value.empty() && t.value[0] == '-') {
      return line_error(line_no, "unsupported flag '" + t.value + "'");
    }
    if (t.kind == SdcToken::Kind::kWord && !have_delay) {
      auto v = parse_number(t.value, line_no);
      if (!v.ok()) return v.status();
      entry.delay_ps = *v;
      have_delay = true;
      ++cursor;
      continue;
    }
    if (t.kind == SdcToken::Kind::kOpenBracket) {
      if (have_objects) return line_error(line_no, "more than one object list");
      auto objects = parse_object_list(tokens, cursor, inputs, line_no);
      if (!objects.ok()) return objects.status();
      entry.ports = std::move(objects->ports);
      entry.all_ports = objects->all_ports;
      have_objects = true;
      continue;
    }
    return line_error(line_no, "unexpected '" + t.value + "'");
  }
  if (!have_delay) return line_error(line_no, "missing delay value");
  if (!have_objects) return line_error(line_no, "missing [get_ports ...] / [all_...] object list");
  entry.line = line_no;
  (inputs ? sdc.input_delays : sdc.output_delays).push_back(std::move(entry));
  return Status();
}

}  // namespace

StatusOr<Sdc> read_sdc(std::string_view text) {
  Sdc sdc;
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    auto tokens_or = lex_line(line, line_no);
    if (!tokens_or.ok()) return tokens_or.status();
    const std::vector<SdcToken>& tokens = *tokens_or;
    if (tokens.empty()) continue;
    if (tokens[0].kind != SdcToken::Kind::kWord) {
      return line_error(line_no, "expected a command, got '" + tokens[0].value + "'");
    }
    const std::string& command = tokens[0].value;

    if (command == "create_clock") {
      std::size_t cursor = 1;
      while (cursor < tokens.size()) {
        const SdcToken& t = tokens[cursor];
        if (t.kind == SdcToken::Kind::kWord && t.value == "-period") {
          if (cursor + 1 >= tokens.size() ||
              tokens[cursor + 1].kind != SdcToken::Kind::kWord) {
            return line_error(line_no, "-period needs a value");
          }
          auto v = parse_number(tokens[cursor + 1].value, line_no);
          if (!v.ok()) return v.status();
          sdc.clock_period_ps = *v;
          cursor += 2;
          continue;
        }
        if (t.kind == SdcToken::Kind::kWord && t.value == "-name") {
          if (cursor + 1 >= tokens.size() ||
              tokens[cursor + 1].kind != SdcToken::Kind::kWord) {
            return line_error(line_no, "-name needs a value");
          }
          sdc.clock_name = tokens[cursor + 1].value;
          cursor += 2;
          continue;
        }
        if (t.kind == SdcToken::Kind::kOpenBracket) {
          // Clock source object list ("[get_ports clk]"): parsed for syntax,
          // unused — combinational netlists have no clock pin.
          auto objects = parse_object_list(tokens, cursor, /*inputs=*/true, line_no);
          if (!objects.ok()) return objects.status();
          continue;
        }
        return line_error(line_no, "unexpected '" + t.value + "' in create_clock");
      }
      if (!sdc.clock_period_ps.has_value()) {
        return line_error(line_no, "create_clock without -period");
      }
      sdc.clock_line = line_no;
      continue;
    }

    if (command == "set_input_delay" || command == "set_output_delay") {
      if (Status s = parse_port_delay(tokens, command == "set_input_delay", line_no, sdc);
          !s.ok()) {
        return s;
      }
      continue;
    }

    return line_error(line_no, "unsupported SDC command '" + command + "'");
  }
  return sdc;
}

StatusOr<Sdc> read_sdc_file(const std::string& path) {
  const StatusOr<std::string> text = read_text_file(path);
  if (!text.ok()) return text.status();
  return read_sdc(*text);
}

}  // namespace statsizer::bench_format
