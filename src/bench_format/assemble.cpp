#include "bench_format/assemble.h"

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>

namespace statsizer::bench_format {

using netlist::GateFunc;
using netlist::GateId;
using netlist::kNoGate;
using netlist::Netlist;

namespace {

/// The depth-first build over a source's drivers. The path is an explicit
/// stack of frames; the fanin ids of every frame on it sit on one operand
/// stack, each frame's from its `base` up.
class Walk {
 public:
  Walk(std::unordered_map<std::string_view, NetDriver>& drivers, Netlist& nl,
       Provenance* provenance)
      : drivers_(drivers), nl_(nl), provenance_(provenance) {}

  /// Records @p name's line; the first record of a name wins.
  void note(std::string_view name, int line) {
    if (provenance_ != nullptr) provenance_->line_of.emplace(name, line);
  }

  /// Adds a primary input, entered as an already-built driver.
  Status add_input(const NetlistSource::Port& in) {
    const auto [it, inserted] = drivers_.try_emplace(in.name);
    if (!inserted) {
      return line_error(in.line, "input '", in.name,
                        it->second.func == GateFunc::kInput ? "' declared twice"
                                                            : "' is also driven");
    }
    it->second.func = GateFunc::kInput;
    it->second.id = nl_.add_input(std::string(in.name));
    note(in.name, in.line);
    return Status();
  }

  /// The node of @p net, built after its fanin cone. @p line reads @p net.
  StatusOr<GateId> build(std::string_view net, int line) {
    StatusOr<GateId> id = visit(net, line);
    if (!id.ok()) return id;
    while (!path_.empty()) {
      Frame& top = path_.back();
      const NetDriver& d = *top.driver;
      if (top.next < d.fanins.size()) {
        const StatusOr<GateId> fanin = visit(d.fanins[top.next], d.line);
        if (!fanin.ok()) return fanin;
        if (*fanin != kNoGate) {  // else visit pushed the fanin's frame
          operands_.push_back(*fanin);
          ++top.next;
        }
        continue;
      }
      id = emit(top);
      path_.pop_back();
      if (!path_.empty()) {
        operands_.push_back(*id);
        ++path_.back().next;
      }
    }
    return id;
  }

 private:
  struct Frame {
    std::string_view net;
    NetDriver* driver;
    std::size_t next;  ///< the next fanin pin to resolve
    std::size_t base;  ///< where this frame's fanin ids start in operands_
  };

  /// @p net's node if it is built; else kNoGate, its driver pushed.
  StatusOr<GateId> visit(std::string_view net, int line) {
    const auto it = drivers_.find(net);
    if (it == drivers_.end()) return line_error(line, "net '", net, "' has no driver");
    NetDriver& d = it->second;
    if (d.id != kNoGate) return d.id;
    if (d.on_path) return cycle(net, d.line);
    const netlist::ArityRange arity = netlist::func_arity(d.func);
    if (d.fanins.size() < arity.min || d.fanins.size() > arity.max) {
      return line_error(d.line, "wrong fanin count for ", netlist::func_name(d.func), ": ",
                        std::to_string(d.fanins.size()), " (takes ", std::to_string(arity.min),
                        arity.max == arity.min ? ")" : " or more)");
    }
    d.on_path = true;
    path_.push_back(Frame{net, &d, 0, operands_.size()});
    return kNoGate;
  }

  GateId emit(const Frame& f) {
    NetDriver& d = *f.driver;
    const GateId id = nl_.add_gate(d.func, std::span(operands_).subspan(f.base),
                                   std::string(f.net));
    nl_.gate(id).cell_group = d.cell_group;
    nl_.gate(id).size_index = d.size_index;
    note(f.net, d.line);
    operands_.resize(f.base);
    d.on_path = false;
    d.id = id;
    return id;
  }

  /// The path from @p net's frame back to @p net, in signal-flow order.
  Status cycle(std::string_view net, int line) {
    auto frame = std::find_if(path_.begin(), path_.end(),
                              [net](const Frame& f) { return f.net == net; });
    std::vector<std::string> witness;
    std::string text;
    for (; frame != path_.end(); ++frame) {
      witness.emplace_back(frame->net);
      text += witness.back() + " -> ";
    }
    witness.emplace_back(net);
    Status s = line_error(line, "combinational cycle: ", text, witness.back());
    if (provenance_ != nullptr) provenance_->cycle = std::move(witness);
    return s;
  }

  std::unordered_map<std::string_view, NetDriver>& drivers_;
  Netlist& nl_;
  Provenance* provenance_;
  std::vector<Frame> path_;
  std::vector<GateId> operands_;
};

}  // namespace

StatusOr<Netlist> assemble_netlist(NetlistSource source, Provenance* provenance) {
  Netlist nl(std::move(source.module));
  Walk walk(source.drivers, nl, provenance);
  for (const NetlistSource::Port& in : source.inputs) {
    if (Status s = walk.add_input(in); !s.ok()) return s;
  }
  for (const std::string_view net : source.build_order) {
    // Every build_order net has a driver, so no line is ever reported.
    if (const StatusOr<GateId> id = walk.build(net, 0); !id.ok()) return id.status();
  }
  for (const NetlistSource::Output& out : source.outputs) {
    const StatusOr<GateId> id = walk.build(out.net, out.use_line);
    if (!id.ok()) return id.status();
    nl.add_output(std::string(out.name), *id);
    walk.note(out.name, out.line);
  }
  if (const Status s = nl.check(); !s.ok()) return s;
  return nl;
}

StatusOr<std::string> read_text_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::invalid_argument("cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return std::move(text).str();
}

}  // namespace statsizer::bench_format
