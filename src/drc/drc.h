// Static design-rule analysis over a netlist, its library bindings, and its
// timing constraints — the preflight that runs before any sizing engine
// touches a design. Diagnostics are structured (rule id, severity, the named
// object, a witness such as the cycle path or the worst-offender fanout
// list) and, when the ingestion readers recorded provenance, attributed to
// source file:line.
//
// Two entry points:
//   * check_netlist()  — structural rules only (cycle, floating input,
//     multi-driven output, dangling output, dead cone). Needs nothing but
//     the netlist; core::Flow runs it on every load.
//   * run_drc()        — the full sweep: structural + cell-binding +
//     electrical (fanout / capacitive load / slew against the bound cells'
//     library limits at the nominal corner) + SDC coverage. Needs a
//     TimingContext snapshot.
//
// Determinism contract: every rule runs serially in a fixed order, so the
// diagnostic vector is a pure function of its inputs. Structural and binding
// rules go in id order, electrical rules in GateId order (a gate's fanout,
// load, then slew finding), SDC rules in command order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_format/provenance.h"
#include "bench_format/sdc_reader.h"
#include "netlist/netlist.h"
#include "sta/graph.h"

namespace statsizer::drc {

/// Every design rule the analysis knows. Stable ids (rule_id()) are the
/// external contract: corpus markers, --lint JSON, and tests key on them.
enum class Rule : std::uint8_t {
  kCombinationalCycle,   ///< error: netlist has a combinational loop
  kFloatingInput,        ///< warning: primary input drives nothing
  kMultiDrivenNet,       ///< error: primary output name declared twice
  kDanglingOutput,       ///< warning: gate output feeds nothing
  kDeadCone,             ///< warning: logic cone unreachable from any PO
  kUnknownCell,          ///< error: gate lacks a (valid) library binding
  kFanoutExceeded,       ///< warning: fanout count above DrcOptions::max_fanout
  kLoadExceedsLimit,     ///< warning: load above scale * cell max_capacitance
  kSlewExceedsLimit,     ///< warning: nominal slew above pin max_transition
  kUnconstrainedInput,   ///< warning: PI without an SDC arrival
  kUnconstrainedOutput,  ///< warning: PO without a required time
  kUnknownConstraintPort,///< error: SDC names a port the netlist lacks
  kNonPositiveClock,     ///< error: create_clock period <= 0
};

/// Stable kebab-case identifier ("combinational-cycle", "dead-cone", ...).
[[nodiscard]] std::string_view rule_id(Rule rule);

enum class Severity : std::uint8_t { kWarning, kError };

/// "warning" / "error".
[[nodiscard]] std::string_view severity_name(Severity severity);

/// One finding. @p witness carries rule-specific evidence: the cycle path in
/// signal-flow order (first node repeated last), the heaviest load consumers,
/// the limiting slew pin, or the uncovered port list. @p file / @p line are
/// filled when ingestion provenance (or the SDC source) locates the object.
struct Diagnostic {
  Rule rule = Rule::kCombinationalCycle;
  Severity severity = Severity::kError;
  std::string object;   ///< gate / net / port name ("" for design-wide findings)
  std::string message;
  std::vector<std::string> witness;
  std::string file;
  int line = 0;

  [[nodiscard]] bool operator==(const Diagnostic&) const = default;
};

struct DrcOptions {
  /// Fanout-count bound (edges + primary outputs) per driver.
  std::size_t max_fanout = 128;
  /// The load rule fires at load > scale * max_capacitance. Initial mappings
  /// deliberately undersize (baseline sizing resolves ordinary overloads), so
  /// the DRC screens only gross violations; 1.0 would flag half-sized but
  /// perfectly optimizable designs.
  double load_limit_scale = 2.0;
  /// The electrical rules run serially: a parallel sweep lost at every
  /// thread count. A constant, not a knob, kept for readers of the name.
  static constexpr std::size_t threads = 1;
};

struct DrcReport {
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] std::size_t errors() const;
  [[nodiscard]] std::size_t warnings() const;
  [[nodiscard]] bool has_errors() const { return errors() > 0; }
  [[nodiscard]] bool empty() const { return diagnostics.empty(); }
  /// First error-severity diagnostic; nullptr when clean of errors.
  [[nodiscard]] const Diagnostic* first_error() const;
};

/// Structural rules only: combinational cycle (with witness path), floating
/// primary input, multi-driven primary output, dangling gate output, dead
/// cone. Safe on any netlist, including cyclic ones built by hand — this is
/// how in-memory cycles surface as diagnostics instead of the
/// std::logic_error topological_order() throws.
[[nodiscard]] DrcReport check_netlist(const netlist::Netlist& nl,
                                      const bench_format::Provenance* provenance = nullptr);

/// The full sweep over a timing snapshot: structural + binding + electrical
/// + SDC coverage. @p sdc (optional) enables the per-statement constraint
/// rules with @p sdc_file/line attribution; without it the dense
/// ctx.constraints() vectors are screened heuristically (an empty
/// TimingConstraints yields no SDC findings).
[[nodiscard]] DrcReport run_drc(const sta::TimingContext& ctx,
                                const DrcOptions& options = {},
                                const bench_format::Provenance* provenance = nullptr,
                                const bench_format::Sdc* sdc = nullptr,
                                const std::string& sdc_file = {});

/// Human-readable rendering, one line per diagnostic
/// ("file:line: error: [rule-id] message (witness: a -> b)").
[[nodiscard]] std::string format_text(const DrcReport& report);

/// Machine-readable rendering, one line of util::Json (members sorted):
/// {"diagnostics":[{...}, ...],"errors":N,"warnings":M}.
[[nodiscard]] std::string format_json(const DrcReport& report);

}  // namespace statsizer::drc
