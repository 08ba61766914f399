#include "src/sast/mhp.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "src/util/strings.hpp"

namespace home::sast {

std::string PhaseInterval::to_string() const {
  std::ostringstream os;
  os << "[" << min << "," << (unbounded ? std::string("inf") : std::to_string(max))
     << (unbounded ? ")" : "]");
  return os.str();
}

namespace {

bool is_one_thread_label(const std::string& label) {
  return label == "master" || label == "single" || label == "section";
}

/// Does this worksharing construct end with an implied barrier?  Per the
/// OpenMP spec: for / sections / single do (unless nowait); master and
/// section (the individual block) do not.
bool has_implied_barrier(const CfgNode& end_node) {
  if (end_node.kind != CfgNodeKind::kOmpWorksharingEnd) return false;
  const std::string& label = end_node.label;
  if (label != "for" && label != "sections" && label != "single") return false;
  if (end_node.stmt && end_node.stmt->clauses.count("nowait")) return false;
  return true;
}

/// Structural pass: enclosing-construct chains per node, derived from the
/// builder's id ordering (a construct's body ids lie strictly between its
/// begin and end node ids) and the match links.
void structural_pass(const Cfg& cfg, const FnContext& ctx, FunctionFacts& ff) {
  const std::size_t n = cfg.nodes().size();
  ff.nodes_.assign(n, NodeFacts{});
  ff.lines_.assign(n, 0);
  ff.context_parallel_ = ctx.may_parallel;
  ff.context_master_ = ctx.may_parallel && ctx.always_master;

  std::vector<int> parallel_stack;
  struct WsFrame {
    int node;
    std::string label;
  };
  std::vector<WsFrame> ws_stack;

  for (const CfgNode& node : cfg.nodes()) {
    // Pops happen before recording the end node's facts: construct markers
    // belong to the *enclosing* context.
    switch (node.kind) {
      case CfgNodeKind::kOmpParallelEnd:
        if (!parallel_stack.empty()) parallel_stack.pop_back();
        break;
      case CfgNodeKind::kOmpWorksharingEnd:
        if (!ws_stack.empty()) ws_stack.pop_back();
        break;
      default:
        break;
    }

    NodeFacts& facts = ff.nodes_[static_cast<std::size_t>(node.id)];
    ff.lines_[static_cast<std::size_t>(node.id)] = node.line;
    if (ctx.may_parallel) facts.region_chain.push_back(kContextRegion);
    for (int region : parallel_stack) facts.region_chain.push_back(region);
    facts.in_parallel = !facts.region_chain.empty();

    // Innermost one-thread construct.  A calling context that is always
    // master-serialized makes everything outside the function's own lexical
    // parallel regions effectively single-threaded too.
    for (const WsFrame& frame : ws_stack) {
      if (!is_one_thread_label(frame.label)) continue;
      facts.exclusive = frame.node;
      if (frame.label == "master") facts.in_master = true;
      if (frame.label == "single") facts.in_single = true;
      if (frame.label == "section") facts.in_section = true;
    }
    if (facts.exclusive == -1 && ff.context_master_ && parallel_stack.empty()) {
      facts.exclusive = kContextRegion;
      facts.in_master = true;
    }

    switch (node.kind) {
      case CfgNodeKind::kOmpParallelBegin:
        parallel_stack.push_back(node.id);
        break;
      case CfgNodeKind::kOmpWorksharing:
        ws_stack.push_back({node.id, node.label});
        break;
      default:
        break;
    }
  }
}

/// BFS from entry: reachability + shortest-path parents for witnesses.
void reachability_pass(const Cfg& cfg, FunctionFacts& ff) {
  const std::size_t n = cfg.nodes().size();
  ff.bfs_parent_.assign(n, -1);
  if (n == 0 || cfg.entry() < 0) return;
  std::deque<int> work{cfg.entry()};
  ff.nodes_[static_cast<std::size_t>(cfg.entry())].reachable = true;
  while (!work.empty()) {
    const int id = work.front();
    work.pop_front();
    for (int succ : cfg.node(id).succs) {
      NodeFacts& facts = ff.nodes_[static_cast<std::size_t>(succ)];
      if (facts.reachable) continue;
      facts.reachable = true;
      ff.bfs_parent_[static_cast<std::size_t>(succ)] = id;
      work.push_back(succ);
    }
  }
}

/// Is `node` a barrier that synchronizes region R?  Explicit barriers and
/// implied worksharing barriers bind to their *innermost* enclosing region.
bool is_barrier_for(const Cfg& cfg, const FunctionFacts& ff, int node, int R) {
  const CfgNode& n = cfg.node(node);
  const bool barrier =
      n.kind == CfgNodeKind::kOmpBarrier || has_implied_barrier(n);
  if (!barrier) return false;
  const NodeFacts& facts = ff.at(node);
  return !facts.region_chain.empty() && facts.region_chain.back() == R;
}

/// Forward interval dataflow of barrier-crossing counts within one region.
/// Lattice: intervals ordered by inclusion; join = hull; widening: max caps
/// at kPhaseCap and flips to unbounded (barriers inside loops).
void phase_pass(const Cfg& cfg, FunctionFacts& ff, int region, int entry) {
  const std::size_t n = cfg.nodes().size();
  std::vector<PhaseInterval> in(n);
  std::vector<char> seen(n, 0);
  std::vector<char> queued(n, 0);

  auto member = [&](int id) {
    const std::vector<int>& chain = ff.at(id).region_chain;
    return std::find(chain.begin(), chain.end(), region) != chain.end();
  };

  std::deque<int> work{entry};
  seen[static_cast<std::size_t>(entry)] = 1;
  queued[static_cast<std::size_t>(entry)] = 1;
  in[static_cast<std::size_t>(entry)] = PhaseInterval{0, 0, false};

  while (!work.empty()) {
    const int id = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(id)] = 0;

    PhaseInterval out = in[static_cast<std::size_t>(id)];
    if (is_barrier_for(cfg, ff, id, region)) {
      out.min = std::min(out.min + 1, kPhaseCap);
      if (!out.unbounded) {
        out.max += 1;
        if (out.max >= kPhaseCap) out.unbounded = true;
      }
    }

    for (int succ : cfg.node(id).succs) {
      // Stay inside the region (the region-end node is not a member).
      if (succ != entry && !member(succ)) continue;
      if (succ == entry) continue;  // back to region begin: new instance.
      PhaseInterval& dst = in[static_cast<std::size_t>(succ)];
      PhaseInterval merged = dst;
      if (!seen[static_cast<std::size_t>(succ)]) {
        merged = out;
      } else {
        merged.min = std::min(merged.min, out.min);
        merged.unbounded = merged.unbounded || out.unbounded;
        merged.max = std::max(merged.max, out.max);
        if (merged.max >= kPhaseCap) merged.unbounded = true;
      }
      if (!seen[static_cast<std::size_t>(succ)] ||
          merged.min != dst.min || merged.max != dst.max ||
          merged.unbounded != dst.unbounded) {
        seen[static_cast<std::size_t>(succ)] = 1;
        dst = merged;
        if (!queued[static_cast<std::size_t>(succ)]) {
          queued[static_cast<std::size_t>(succ)] = 1;
          work.push_back(succ);
        }
      }
    }
  }

  for (std::size_t id = 0; id < n; ++id) {
    if (seen[id] && member(static_cast<int>(id))) {
      ff.nodes_[id].phases[region] = in[id];
    }
  }
}

/// Full per-function pass under a fixed calling context.
FunctionFacts analyze_function(const Cfg& cfg, const FnContext& ctx) {
  FunctionFacts ff;
  structural_pass(cfg, ctx, ff);
  reachability_pass(cfg, ff);

  // Lockset dataflow, seeded with the context's guaranteed locks.
  const std::vector<LockState> locksets = compute_must_locksets(
      cfg, ctx.locks_top ? std::set<std::string>{} : ctx.entry_locks);
  for (std::size_t id = 0; id < ff.nodes_.size(); ++id) {
    if (!locksets[id].top) ff.nodes_[id].locks = locksets[id].locks;
  }

  // One phase analysis per parallel region, plus the virtual context region.
  for (const CfgNode& node : cfg.nodes()) {
    if (node.kind == CfgNodeKind::kOmpParallelBegin) {
      phase_pass(cfg, ff, node.id, node.id);
    }
  }
  if (ctx.may_parallel && cfg.entry() >= 0) {
    phase_pass(cfg, ff, kContextRegion, cfg.entry());
  }
  return ff;
}

std::vector<int> common_prefix(const std::vector<int>& a,
                               const std::vector<int>& b) {
  std::vector<int> out;
  for (std::size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    out.push_back(a[i]);
  }
  return out;
}

bool disjoint(const std::set<std::string>& a, const std::set<std::string>& b) {
  for (const std::string& x : a) {
    if (b.count(x)) return false;
  }
  return true;
}

}  // namespace

bool FunctionFacts::mhp(int a, int b, bool use_phases) const {
  const NodeFacts& fa = at(a);
  const NodeFacts& fb = at(b);
  if (!fa.reachable || !fb.reachable) return false;
  if (!fa.in_parallel || !fb.in_parallel) return false;
  // Different top-level regions execute sequentially (fork-join).
  const std::vector<int> common = common_prefix(fa.region_chain, fb.region_chain);
  if (common.empty()) return false;
  // Same one-thread construct body: executed by a single thread.
  if (fa.exclusive != -1 && fa.exclusive == fb.exclusive) return false;
  // Master bodies always run on the master thread, even across constructs.
  if (fa.in_master && fb.in_master) return false;
  if (use_phases) {
    // Barrier separation within the innermost common region.
    const int region = common.back();
    const auto pa = fa.phases.find(region);
    const auto pb = fb.phases.find(region);
    if (pa != fa.phases.end() && pb != fb.phases.end() &&
        !pa->second.overlaps(pb->second)) {
      return false;
    }
  }
  return true;
}

bool FunctionFacts::self_mhp(int a) const {
  const NodeFacts& fa = at(a);
  return fa.reachable && fa.in_parallel && fa.exclusive == -1;
}

bool FunctionFacts::mhp_unguarded(int a, int b, bool use_phases) const {
  return mhp(a, b, use_phases) && disjoint(at(a).locks, at(b).locks);
}

bool FunctionFacts::self_unguarded(int a) const {
  return self_mhp(a) && at(a).locks.empty();
}

std::string FunctionFacts::witness(int node) const {
  std::vector<int> lines;
  for (int id = node; id >= 0; id = bfs_parent_[static_cast<std::size_t>(id)]) {
    const int line = lines_[static_cast<std::size_t>(id)];
    if (line > 0 && (lines.empty() || lines.back() != line)) {
      lines.push_back(line);
    }
  }
  std::reverse(lines.begin(), lines.end());
  if (lines.empty()) return "entry";
  std::ostringstream os;
  os << "entry";
  const std::size_t kMax = 8;
  const std::size_t skip_from = lines.size() > kMax ? kMax / 2 : lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines.size() > kMax && i == skip_from) {
      os << " -> ..";
      i = lines.size() - kMax / 2 - 1;
      continue;
    }
    os << " -> line " << lines[i];
  }
  return os.str();
}

std::string FunctionFacts::describe(int node) const {
  const NodeFacts& facts = at(node);
  std::ostringstream os;
  if (!facts.reachable) return "unreachable";
  os << (facts.in_parallel ? "parallel" : "serial");
  if (!facts.region_chain.empty()) {
    const int region = facts.region_chain.back();
    const auto it = facts.phases.find(region);
    if (it != facts.phases.end()) os << " phase " << it->second.to_string();
  }
  if (facts.in_master) os << " master";
  if (facts.in_single) os << " single";
  if (facts.in_section) os << " section";
  if (!facts.locks.empty()) {
    os << " locks {"
       << util::join(std::vector<std::string>(facts.locks.begin(),
                                              facts.locks.end()),
                     ", ")
       << "}";
  }
  return os.str();
}

ProgramFacts compute_program_facts(const TranslationUnit& unit,
                                   const std::vector<Cfg>& cfgs) {
  ProgramFacts facts;
  const CallGraph graph = CallGraph::build(unit, cfgs);
  for (const std::string& name : graph.function_names()) {
    facts.contexts[name].recursive = graph.recursive(name);
  }

  // Interprocedural fixed point: recompute per-function facts under the
  // current contexts, fold each parallel call site's (lockset, master?) into
  // its callee's context, repeat until nothing changes.  Every context field
  // is monotone, so convergence is guaranteed; the iteration cap with
  // explicit widening (drop recursive members to the bottom context) is a
  // safety net.
  const int cap = static_cast<int>(unit.functions.size()) * 3 + 8;
  for (int round = 0; round < cap; ++round) {
    facts.functions.clear();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const std::string& name = unit.functions[i].name;
      facts.functions.push_back(analyze_function(cfgs[i], facts.contexts[name]));
    }

    bool changed = false;
    for (const CallSite& site : graph.call_sites()) {
      const FunctionFacts& caller = facts.functions[
          static_cast<std::size_t>(site.caller_index)];
      const NodeFacts& nf = caller.at(site.node);
      if (!nf.reachable || !nf.in_parallel) continue;
      if (!graph.defined(site.callee)) continue;
      changed |= facts.contexts[site.callee].join_parallel_site(nf.locks,
                                                                nf.in_master);
    }
    if (!changed) break;
    if (round == cap - 2) {
      // Widening: recursion that is still oscillating drops to ⊥ context.
      for (auto& [name, ctx] : facts.contexts) {
        if (ctx.recursive && ctx.may_parallel) {
          ctx.locks_top = false;
          ctx.entry_locks.clear();
          ctx.always_master = false;
        }
      }
    }
  }
  return facts;
}

}  // namespace home::sast
