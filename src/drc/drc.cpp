#include "drc/drc.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "netlist/topo.h"
#include "util/json.h"

namespace statsizer::drc {

using netlist::GateFunc;
using netlist::GateId;
using netlist::Netlist;

namespace {

/// Witness lists are truncated to this many entries.
constexpr std::size_t kMaxWitness = 8;

/// Deterministic short rendering of a physical quantity (platform-stable for
/// the value ranges DRC prints; diagnostics must not vary run to run).
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// True for node kinds that are correct without a cell binding.
bool expects_no_cell(GateFunc func) {
  return func == GateFunc::kInput || func == GateFunc::kConst0 || func == GateFunc::kConst1;
}

void attribute(Diagnostic& d, const bench_format::Provenance* prov) {
  if (prov == nullptr) return;
  d.file = prov->file;
  d.line = prov->line(d.object);
}

/// Joins up to @p limit names; appends ", ..." when truncated.
std::string name_list(const std::vector<std::string>& names, std::size_t limit) {
  std::string out;
  for (std::size_t i = 0; i < names.size() && i < limit; ++i) {
    if (!out.empty()) out += ", ";
    out += names[i];
  }
  if (names.size() > limit) out += ", ...";
  return out;
}

// ---- structural rules -------------------------------------------------------

/// Kahn completion check; on failure appends one kCombinationalCycle
/// diagnostic whose witness is the loop in signal-flow order (deterministic:
/// the walk starts at the lowest unresolved id and always follows the first
/// unresolved fanin). Returns true when the netlist is acyclic.
bool check_cycle(const Netlist& nl, const bench_format::Provenance* prov,
                 DrcReport& report) {
  const std::size_t n = nl.node_count();
  std::vector<std::uint32_t> pending(n);
  std::vector<GateId> ready;
  std::size_t done = 0;
  for (GateId id = 0; id < n; ++id) {
    pending[id] = static_cast<std::uint32_t>(nl.gate(id).fanins.size());
    if (pending[id] == 0) ready.push_back(id);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    ++done;
    for (const GateId consumer : nl.gate(ready[head]).fanouts) {
      if (--pending[consumer] == 0) ready.push_back(consumer);
    }
  }
  if (done == n) return true;

  // Every unresolved node has at least one unresolved fanin, so walking
  // first-unresolved-fanin pointers from the lowest unresolved id must
  // revisit a node; the revisit closes the loop. The walk follows fanins
  // (against signal flow), so the witness is the reversed slice.
  GateId start = netlist::kNoGate;
  for (GateId id = 0; id < n && start == netlist::kNoGate; ++id) {
    if (pending[id] != 0) start = id;
  }
  std::vector<GateId> walk;
  std::unordered_map<GateId, std::size_t> pos;
  GateId at = start;
  while (!pos.contains(at)) {
    pos.emplace(at, walk.size());
    walk.push_back(at);
    for (const GateId f : nl.gate(at).fanins) {
      if (pending[f] != 0) {
        at = f;
        break;
      }
    }
  }
  Diagnostic d;
  d.rule = Rule::kCombinationalCycle;
  d.severity = Severity::kError;
  for (std::size_t i = walk.size(); i > pos[at]; --i) {
    d.witness.push_back(nl.gate(walk[i - 1]).name);
  }
  d.witness.push_back(d.witness.front());
  d.object = d.witness.front();
  d.message = "combinational cycle through '" + d.object + "' (" +
              std::to_string(d.witness.size() - 1) + " nodes)";
  attribute(d, prov);
  report.diagnostics.push_back(std::move(d));
  return false;
}

void check_multi_driven(const Netlist& nl, const bench_format::Provenance* prov,
                        DrcReport& report) {
  std::unordered_map<std::string, std::vector<GateId>> drivers_of;
  for (const netlist::Output& o : nl.outputs()) drivers_of[o.name].push_back(o.driver);
  for (const netlist::Output& o : nl.outputs()) {
    const auto it = drivers_of.find(o.name);
    if (it == drivers_of.end() || it->second.size() < 2) continue;
    Diagnostic d;
    d.rule = Rule::kMultiDrivenNet;
    d.severity = Severity::kError;
    d.object = o.name;
    d.message = "primary output '" + o.name + "' declared " +
                std::to_string(it->second.size()) + " times";
    bool distinct = false;
    for (const GateId g : it->second) {
      d.witness.push_back(nl.gate(g).name);
      distinct = distinct || g != it->second.front();
    }
    if (distinct) d.message += " with different drivers";
    attribute(d, prov);
    report.diagnostics.push_back(std::move(d));
    drivers_of.erase(it);  // one finding per name
  }
}

void check_connectivity(const Netlist& nl, const bench_format::Provenance* prov,
                        DrcReport& report) {
  const std::vector<bool> observable = netlist::observable_mask(nl);
  std::vector<std::string> cone;  // dead nodes that still feed something
  for (GateId id = 0; id < nl.node_count(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    const bool sink = g.fanouts.empty() && g.po_count == 0;
    if (sink) {
      Diagnostic d;
      d.rule = nl.is_input(id) ? Rule::kFloatingInput : Rule::kDanglingOutput;
      d.severity = Severity::kWarning;
      d.object = g.name;
      d.message = nl.is_input(id)
                      ? "primary input '" + g.name + "' drives nothing"
                      : "output of gate '" + g.name + "' (" +
                            std::string(netlist::func_name(g.func)) + ") feeds nothing";
      attribute(d, prov);
      report.diagnostics.push_back(std::move(d));
    } else if (!observable[id]) {
      cone.push_back(g.name);
    }
  }
  if (!cone.empty()) {
    Diagnostic d;
    d.rule = Rule::kDeadCone;
    d.severity = Severity::kWarning;
    d.message = std::to_string(cone.size()) +
                " node(s) feed only logic unreachable from any primary output: " +
                name_list(cone, kMaxWitness);
    d.object = cone.front();
    cone.resize(std::min(cone.size(), kMaxWitness));
    d.witness = std::move(cone);
    attribute(d, prov);
    report.diagnostics.push_back(std::move(d));
  }
}

void append_structural(const Netlist& nl, const bench_format::Provenance* prov,
                       DrcReport& report) {
  check_cycle(nl, prov, report);
  check_multi_driven(nl, prov, report);
  check_connectivity(nl, prov, report);
}

// ---- binding rules ----------------------------------------------------------

/// Validates every gate's (cell_group, size_index) binding against the
/// library. Returns true when clean enough for the electrical rules (which
/// dereference the bound cells).
bool append_binding(const sta::TimingContext& ctx,
                    const bench_format::Provenance* prov, DrcReport& report) {
  const Netlist& nl = ctx.netlist();
  const liberty::Library& lib = ctx.library();
  bool clean = true;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    const netlist::Gate& g = nl.gate(id);
    if (expects_no_cell(g.func)) continue;
    std::string what;
    if (g.cell_group == netlist::kUnmapped) {
      what = "gate '" + g.name + "' (" + std::string(netlist::func_name(g.func)) +
             ") has no cell binding";
    } else if (g.cell_group >= lib.groups().size()) {
      what = "gate '" + g.name + "' bound to nonexistent cell group #" +
             std::to_string(g.cell_group);
    } else {
      const liberty::CellGroup& grp = lib.group(g.cell_group);
      if (g.size_index >= grp.size_count()) {
        what = "gate '" + g.name + "' size index " + std::to_string(g.size_index) +
               " out of range for " + grp.base_name() + " (" +
               std::to_string(grp.size_count()) + " sizes)";
      } else if (grp.func() != g.func || grp.arity() != g.fanins.size()) {
        what = "gate '" + g.name + "' (" + std::string(netlist::func_name(g.func)) + "/" +
               std::to_string(g.fanins.size()) + " inputs) bound to incompatible cell " +
               grp.base_name();
      }
    }
    if (what.empty()) continue;
    clean = false;
    Diagnostic d;
    d.rule = Rule::kUnknownCell;
    d.severity = Severity::kError;
    d.object = g.name;
    d.message = std::move(what);
    attribute(d, prov);
    report.diagnostics.push_back(std::move(d));
  }
  return clean;
}

// ---- electrical rules -------------------------------------------------------

/// Appends gate @p id's fanout, load and slew findings, in that order.
void electrical_rules(const sta::TimingContext& ctx, const DrcOptions& options,
                      const bench_format::Provenance* prov, GateId id, DrcReport& report) {
  const Netlist& nl = ctx.netlist();
  const netlist::Gate& g = nl.gate(id);
  const auto found = [&](Diagnostic& d) {
    attribute(d, prov);
    report.diagnostics.push_back(std::move(d));
  };

  const std::size_t fanout = g.fanouts.size() + g.po_count;
  if (fanout > options.max_fanout) {
    Diagnostic d;
    d.rule = Rule::kFanoutExceeded;
    d.severity = Severity::kWarning;
    d.object = g.name;
    d.message = "'" + g.name + "' drives " + std::to_string(fanout) +
                " sinks (limit " + std::to_string(options.max_fanout) + ")";
    for (std::size_t i = 0; i < g.fanouts.size() && i < kMaxWitness; ++i) {
      d.witness.push_back(nl.gate(g.fanouts[i]).name);
    }
    found(d);
  }

  if (!ctx.has_cell(id)) return;
  const liberty::Cell& cell = ctx.cell(id);

  const double max_cap = cell.output().max_capacitance_ff;
  if (max_cap > 0.0 && ctx.load_ff(id) > options.load_limit_scale * max_cap) {
    Diagnostic d;
    d.rule = Rule::kLoadExceedsLimit;
    d.severity = Severity::kWarning;
    d.object = g.name;
    d.message = "'" + g.name + "' (" + cell.name + ") drives " + num(ctx.load_ff(id)) +
                " fF, over " + num(options.load_limit_scale) + "x its max_capacitance of " +
                num(max_cap) + " fF";
    // Witness: the heaviest consumers, by descending pin cap then GateId.
    std::vector<std::pair<double, GateId>> heavy;
    for (const GateId c : g.fanouts) {
      double cap = 0.0;
      if (ctx.has_cell(c)) {
        const netlist::Gate& cg = nl.gate(c);
        for (std::size_t i = 0; i < cg.fanins.size(); ++i) {
          if (cg.fanins[i] == id) {
            cap = ctx.cell(c).input_cap_ff(i);
            break;
          }
        }
      }
      heavy.emplace_back(cap, c);
    }
    std::sort(heavy.begin(), heavy.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (std::size_t i = 0; i < heavy.size() && i < kMaxWitness; ++i) {
      d.witness.push_back(nl.gate(heavy[i].second).name + " (" + num(heavy[i].first) +
                          " fF)");
    }
    found(d);
  }

  // Slew limit: the binding pin is the tightest max_transition among this
  // gate's own output pin and every consumer input pin it drives.
  double limit = cell.output().max_transition_ps;
  std::string limiter = cell.name + "." + cell.output().name;
  for (const GateId c : g.fanouts) {
    if (!ctx.has_cell(c)) continue;
    const netlist::Gate& cg = nl.gate(c);
    const liberty::Cell& consumer = ctx.cell(c);
    const auto pins = consumer.input_pins();
    for (std::size_t i = 0; i < cg.fanins.size() && i < pins.size(); ++i) {
      if (cg.fanins[i] != id) continue;
      const double pin_limit = pins[i]->max_transition_ps;
      if (pin_limit > 0.0 && (limit <= 0.0 || pin_limit < limit)) {
        limit = pin_limit;
        limiter = nl.gate(c).name + "/" + consumer.name + "." + pins[i]->name;
      }
    }
  }
  if (limit > 0.0 && ctx.slew_ps(id) > limit) {
    Diagnostic d;
    d.rule = Rule::kSlewExceedsLimit;
    d.severity = Severity::kWarning;
    d.object = g.name;
    d.message = "'" + g.name + "' output slew " + num(ctx.slew_ps(id)) +
                " ps exceeds max_transition " + num(limit) + " ps at " + limiter;
    d.witness.push_back(limiter);
    found(d);
  }
}

void append_electrical(const sta::TimingContext& ctx, const DrcOptions& options,
                       const bench_format::Provenance* prov, DrcReport& report) {
  for (GateId id = 0; id < ctx.netlist().node_count(); ++id) {
    electrical_rules(ctx, options, prov, id, report);
  }
}

// ---- SDC coverage -----------------------------------------------------------

void sdc_port_rules(const Netlist& nl, const bench_format::Sdc& sdc,
                    const std::string& sdc_file, DrcReport& report) {
  const auto located = [&](Rule rule, Severity sev, std::string object,
                           std::string message, int line) {
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.object = std::move(object);
    d.message = std::move(message);
    d.file = sdc_file;
    d.line = line;
    report.diagnostics.push_back(std::move(d));
  };

  if (sdc.clock_period_ps.has_value() && *sdc.clock_period_ps <= 0.0) {
    const std::string clk = sdc.clock_name.empty() ? "clock" : sdc.clock_name;
    located(Rule::kNonPositiveClock, Severity::kError, clk,
            "create_clock period " + num(*sdc.clock_period_ps) + " ps is not positive",
            sdc.clock_line);
  }

  std::unordered_map<std::string, bool> po_names;  // name -> covered
  for (const netlist::Output& o : nl.outputs()) po_names.emplace(o.name, false);
  std::vector<bool> pi_covered(nl.node_count(), false);

  for (const bench_format::SdcPortDelay& e : sdc.input_delays) {
    if (e.all_ports) {
      for (const GateId id : nl.inputs()) pi_covered[id] = true;
      continue;
    }
    for (const std::string& port : e.ports) {
      const GateId id = nl.find(port);
      if (id == netlist::kNoGate || !nl.is_input(id)) {
        located(Rule::kUnknownConstraintPort, Severity::kError, port,
                "set_input_delay names '" + port + "', not a primary input", e.line);
      } else {
        pi_covered[id] = true;
      }
    }
  }
  for (const bench_format::SdcPortDelay& e : sdc.output_delays) {
    if (e.all_ports) {
      // lint-ok: unordered-iter order-insensitive bulk mark; no output assembled
      for (auto& [_, covered] : po_names) covered = true;
      continue;
    }
    for (const std::string& port : e.ports) {
      const auto it = po_names.find(port);
      if (it == po_names.end()) {
        located(Rule::kUnknownConstraintPort, Severity::kError, port,
                "set_output_delay names '" + port + "', not a primary output", e.line);
      } else {
        it->second = true;
      }
    }
  }

  // Coverage warnings only make sense once the design is constrained at all:
  // a clock defines the required-time frame the arrivals feed.
  if (sdc.clock_period_ps.has_value() && *sdc.clock_period_ps > 0.0) {
    std::vector<std::string> uncovered;
    for (const GateId id : nl.inputs()) {
      if (!pi_covered[id]) uncovered.push_back(nl.gate(id).name);
    }
    if (!uncovered.empty()) {
      Diagnostic d;
      d.rule = Rule::kUnconstrainedInput;
      d.severity = Severity::kWarning;
      d.object = uncovered.front();
      d.message = std::to_string(uncovered.size()) +
                  " primary input(s) have no set_input_delay: " +
                  name_list(uncovered, kMaxWitness);
      uncovered.resize(std::min(uncovered.size(), kMaxWitness));
      d.witness = std::move(uncovered);
      d.file = sdc_file;
      report.diagnostics.push_back(std::move(d));
    }
  } else if (!sdc.clock_period_ps.has_value()) {
    Diagnostic d;
    d.rule = Rule::kUnconstrainedOutput;
    d.severity = Severity::kWarning;
    d.message = "no create_clock: primary outputs have no required time";
    d.file = sdc_file;
    report.diagnostics.push_back(std::move(d));
  }
}

}  // namespace

std::string_view rule_id(Rule rule) {
  switch (rule) {
    case Rule::kCombinationalCycle: return "combinational-cycle";
    case Rule::kFloatingInput: return "floating-input";
    case Rule::kMultiDrivenNet: return "multi-driven-net";
    case Rule::kDanglingOutput: return "dangling-output";
    case Rule::kDeadCone: return "dead-cone";
    case Rule::kUnknownCell: return "unknown-cell";
    case Rule::kFanoutExceeded: return "fanout-exceeded";
    case Rule::kLoadExceedsLimit: return "load-exceeds-limit";
    case Rule::kSlewExceedsLimit: return "slew-exceeds-limit";
    case Rule::kUnconstrainedInput: return "unconstrained-input";
    case Rule::kUnconstrainedOutput: return "unconstrained-output";
    case Rule::kUnknownConstraintPort: return "unknown-constraint-port";
    case Rule::kNonPositiveClock: return "non-positive-clock";
  }
  return "unknown";
}

std::string_view severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::size_t DrcReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t DrcReport::warnings() const { return diagnostics.size() - errors(); }

const Diagnostic* DrcReport::first_error() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return &d;
  }
  return nullptr;
}

DrcReport check_netlist(const Netlist& nl, const bench_format::Provenance* provenance) {
  DrcReport report;
  append_structural(nl, provenance, report);
  return report;
}

DrcReport run_drc(const sta::TimingContext& ctx, const DrcOptions& options,
                  const bench_format::Provenance* provenance,
                  const bench_format::Sdc* sdc, const std::string& sdc_file) {
  DrcReport report;
  append_structural(ctx.netlist(), provenance, report);
  // Electrical rules dereference the bound cells, so a broken binding must
  // stop the sweep at the binding stage.
  if (append_binding(ctx, provenance, report)) {
    append_electrical(ctx, options, provenance, report);
  }
  if (sdc != nullptr) sdc_port_rules(ctx.netlist(), *sdc, sdc_file, report);
  return report;
}

std::string format_text(const DrcReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    if (!d.file.empty()) {
      out += d.file;
      if (d.line > 0) out += ":" + std::to_string(d.line);
      out += ": ";
    } else if (d.line > 0) {
      out += "line " + std::to_string(d.line) + ": ";
    }
    out += severity_name(d.severity);
    out += ": [";
    out += rule_id(d.rule);
    out += "] ";
    out += d.message;
    if (!d.witness.empty()) {
      out += " (witness: ";
      for (std::size_t i = 0; i < d.witness.size(); ++i) {
        if (i > 0) out += " -> ";
        out += d.witness[i];
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

std::string format_json(const DrcReport& report) {
  util::Json root;
  root["errors"] = report.errors();
  root["warnings"] = report.warnings();
  util::Json& diagnostics = root["diagnostics"] = util::Json::Array{};
  for (const Diagnostic& d : report.diagnostics) {
    util::Json j;
    j["rule"] = rule_id(d.rule);
    j["severity"] = severity_name(d.severity);
    j["object"] = d.object;
    j["message"] = d.message;
    util::Json& witness = j["witness"] = util::Json::Array{};
    for (const std::string& w : d.witness) witness.push_back(w);
    j["file"] = d.file;
    j["line"] = d.line;
    diagnostics.push_back(std::move(j));
  }
  return root.dump() + "\n";
}

}  // namespace statsizer::drc
