#include "src/sast/diagnostics.hpp"

#include <deque>
#include <sstream>

#include "src/util/strings.hpp"

namespace home::sast {
namespace {

bool has_class(const MpiCallSite& s, std::uint8_t classes) {
  return s.row != nullptr && (s.row->classes & classes) != 0;
}

/// The argument at `pos` of the routine's C binding, "?" when absent.
std::string arg_at(const MpiCallSite& s, int pos) {
  return pos >= 0 && static_cast<std::size_t>(pos) < s.args.size()
             ? s.args[static_cast<std::size_t>(pos)]
             : "?";
}

/// The (source, tag, comm) argument texts of a receive or probe.
struct RecvKey {
  std::string src, tag, comm;
  bool operator==(const RecvKey&) const = default;
};

RecvKey recv_key(const MpiCallSite& s) {
  const trace::ArgPositions& a = s.row->args;
  return {arg_at(s, a.source), arg_at(s, a.recv_tag), arg_at(s, a.comm)};
}

/// Is there a CFG path between the two nodes (either direction)?  Uses only
/// node ids and successor lists — safe after the AST is gone.
bool path_connected(const Cfg& cfg, int a, int b) {
  auto reaches = [&](int from, int to) {
    std::vector<char> seen(cfg.nodes().size(), 0);
    std::deque<int> work{from};
    seen[static_cast<std::size_t>(from)] = 1;
    while (!work.empty()) {
      const int id = work.front();
      work.pop_front();
      if (id == to) return true;
      for (int succ : cfg.node(id).succs) {
        if (!seen[static_cast<std::size_t>(succ)]) {
          seen[static_cast<std::size_t>(succ)] = 1;
          work.push_back(succ);
        }
      }
    }
    return false;
  };
  return reaches(a, b) || reaches(b, a);
}

bool unbounded_phase(const FunctionFacts& ff, int node) {
  const NodeFacts& nf = ff.at(node);
  if (nf.region_chain.empty()) return false;
  const auto it = nf.phases.find(nf.region_chain.back());
  return it != nf.phases.end() && it->second.unbounded;
}

/// Severity of a pair (or self, i == j) finding whose argument-matching
/// reasoning used `key_args`.  kDefinite requires the tight proof: one
/// function, CFG path connectivity, bounded barrier phases, and argument
/// texts that are concrete and thread-independent ("same tag" reasoning
/// breaks when the tag is derived from omp_get_thread_num).
Severity classify_pair(const AnalysisResult& analysis, std::size_t i,
                       std::size_t j,
                       const std::vector<std::string>& key_args) {
  const MpiCallSite& a = analysis.calls[i];
  const MpiCallSite& b = analysis.calls[j];
  if (a.fn_index != b.fn_index) return Severity::kPossible;
  const FunctionFacts& ff =
      analysis.facts.functions[static_cast<std::size_t>(a.fn_index)];
  if (i != j &&
      !path_connected(analysis.cfgs[static_cast<std::size_t>(a.fn_index)],
                      a.node_id, b.node_id)) {
    return Severity::kPossible;
  }
  if (unbounded_phase(ff, a.node_id) || unbounded_phase(ff, b.node_id)) {
    return Severity::kPossible;
  }
  for (const std::string& arg : key_args) {
    if (arg == "?" || thread_dependent_arg(analysis, a, arg)) {
      return Severity::kPossible;
    }
  }
  return Severity::kDefinite;
}

std::string site_witness(const AnalysisResult& analysis, std::size_t i) {
  const MpiCallSite& site = analysis.calls[i];
  if (site.fn_index < 0) return "";
  return analysis.facts.functions[static_cast<std::size_t>(site.fn_index)]
      .witness(site.node_id);
}

bool site_reachable(const AnalysisResult& analysis, const MpiCallSite& site) {
  if (site.fn_index < 0) return true;
  return analysis.facts.functions[static_cast<std::size_t>(site.fn_index)]
      .at(site.node_id)
      .reachable;
}

}  // namespace

const char* warning_class_name(WarningClass w) {
  switch (w) {
    case WarningClass::kInitialization: return "InitializationViolation";
    case WarningClass::kFinalization: return "FinalizationViolation";
    case WarningClass::kConcurrentRecv: return "ConcurrentRecvViolation";
    case WarningClass::kConcurrentRequest: return "ConcurrentRequestViolation";
    case WarningClass::kProbe: return "ProbeViolation";
    case WarningClass::kCollectiveCall: return "CollectiveCallViolation";
    case WarningClass::kUnmatchedSend: return "UnmatchedSend";
    case WarningClass::kUnmatchedRecv: return "UnmatchedRecv";
    case WarningClass::kCollectiveOrder: return "CollectiveOrderDivergence";
    case WarningClass::kDeadlock: return "CommDeadlock";
  }
  return "?";
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kDefinite: return "definite";
    case Severity::kPossible: return "possible";
  }
  return "?";
}

std::string StaticWarning::to_string() const {
  std::ostringstream os;
  os << "[static] "
     << (severity == Severity::kDefinite ? "definite " : "potential ")
     << warning_class_name(cls);
  if (line > 0) os << " at line " << line;
  if (!site.empty()) {
    os << " (" << site;
    if (!site2.empty()) os << " / " << site2;
    os << ")";
  }
  os << ": " << message;
  if (!witness.empty()) os << " [witness: " << witness << "]";
  return os.str();
}

std::vector<StaticWarning> diagnose(const AnalysisResult& analysis) {
  std::vector<StaticWarning> warnings;
  auto warn = [&](WarningClass cls, Severity severity, int line,
                  const std::string& site, const std::string& site2,
                  const std::string& witness, const std::string& message) {
    warnings.push_back(
        StaticWarning{cls, severity, line, site, site2, witness, message});
  };

  // V1: plain MPI_Init (thread level SINGLE) with MPI inside parallel regions.
  bool has_parallel_mpi = false;
  for (std::size_t i = 0; i < analysis.calls.size(); ++i) {
    const MpiCallSite& site = analysis.calls[i];
    if (site.in_parallel && site_reachable(analysis, site)) {
      has_parallel_mpi = true;
      break;
    }
  }
  if (analysis.uses_plain_init && has_parallel_mpi) {
    warn(WarningClass::kInitialization, Severity::kDefinite, 0, "", "", "",
         "MPI_Init provides only MPI_THREAD_SINGLE but MPI calls appear "
         "inside omp parallel regions; use MPI_Init_thread");
  }
  // V1: requested level below MULTIPLE with parallel MPI calls the engine
  // cannot prove compliant with that level.
  if (analysis.uses_init_thread && !analysis.requested_level.empty() &&
      analysis.requested_level != "MPI_THREAD_MULTIPLE") {
    for (std::size_t i = 0; i < analysis.calls.size(); ++i) {
      const MpiCallSite& site = analysis.calls[i];
      if (!site.in_parallel ||
          (site.row && site.row->type == trace::MpiCallType::kInitThread)) {
        continue;
      }
      if (!site_reachable(analysis, site)) continue;
      if (analysis.requested_level == "MPI_THREAD_FUNNELED") {
        // FUNNELED pins MPI to the main thread: only master bodies comply.
        // `single` serializes but may pick a non-master thread — possible,
        // not definite.
        if (site.in_master) continue;
        warn(WarningClass::kInitialization,
             site.in_single || site.in_section ? Severity::kPossible
                                               : Severity::kDefinite,
             site.line, site.label, "", site_witness(analysis, i),
             site.routine + " may run off the main thread under " +
                 analysis.requested_level);
      } else if (analysis.requested_level == "MPI_THREAD_SERIALIZED") {
        // SERIALIZED requires mutual exclusion between all MPI calls: warn
        // when the engine finds a statically-concurrent unguarded pairing.
        bool racy = site_self_race(analysis, i);
        std::size_t peer = i;
        for (std::size_t j = 0; !racy && j < analysis.calls.size(); ++j) {
          if (j != i && sites_may_race(analysis, i, j)) {
            racy = true;
            peer = j;
          }
        }
        if (!racy) continue;
        warn(WarningClass::kInitialization,
             classify_pair(analysis, i, peer, {}), site.line, site.label,
             peer == i ? "" : analysis.calls[peer].label,
             site_witness(analysis, i),
             site.routine + " is not serialized under " +
                 analysis.requested_level);
      } else if (analysis.requested_level == "MPI_THREAD_SINGLE") {
        warn(WarningClass::kInitialization, Severity::kDefinite, site.line,
             site.label, "", site_witness(analysis, i),
             site.routine + " inside a parallel region under MPI_THREAD_SINGLE");
      }
    }
  }

  // V2: MPI_Finalize inside a parallel region.
  for (std::size_t i = 0; i < analysis.calls.size(); ++i) {
    const MpiCallSite& site = analysis.calls[i];
    if (!site.row || site.row->type != trace::MpiCallType::kFinalize ||
        !site.in_parallel) {
      continue;
    }
    if (!site_reachable(analysis, site)) continue;
    warn(WarningClass::kFinalization,
         site_self_race(analysis, i) ? Severity::kDefinite
                                     : Severity::kPossible,
         site.line, site.label, "", site_witness(analysis, i),
         "MPI_Finalize inside an omp parallel region may run off the main "
         "thread or race with pending MPI calls");
  }

  // Pairwise checks, gated by the MHP + lockset engine: a pair fires only
  // when the two sites may execute concurrently with disjoint must-locksets
  // (i == j: a team-executed site racing with itself).
  for (std::size_t i = 0; i < analysis.calls.size(); ++i) {
    for (std::size_t j = i; j < analysis.calls.size(); ++j) {
      if (!sites_may_race(analysis, i, j)) continue;
      const MpiCallSite& a = analysis.calls[i];
      const MpiCallSite& b = analysis.calls[j];
      const std::string site2 = i == j ? "" : b.label;
      const std::string wit = site_witness(analysis, i);

      // V3: receives with identical (source, tag, comm) argument text.
      if (has_class(a, trace::kReceiveClass) &&
          has_class(b, trace::kReceiveClass)) {
        const RecvKey ka = recv_key(a);
        if (ka == recv_key(b)) {
          warn(WarningClass::kConcurrentRecv,
               classify_pair(analysis, i, j, {ka.src, ka.tag, ka.comm}),
               a.line, a.label, site2, wit,
               "concurrent receives share source=" + ka.src + " tag=" +
                   ka.tag + " comm=" + ka.comm);
        }
      }
      // V5: probe racing probe/recv on the same (source, tag, comm).
      const std::uint8_t matching = trace::kProbeClass | trace::kReceiveClass;
      if ((has_class(a, trace::kProbeClass) && has_class(b, matching)) ||
          (has_class(b, trace::kProbeClass) && has_class(a, matching))) {
        const RecvKey ka = recv_key(a);
        if (ka == recv_key(b)) {
          warn(WarningClass::kProbe,
               classify_pair(analysis, i, j, {ka.src, ka.tag}), a.line,
               a.label, site2, wit,
               "probe and receive race on source=" + ka.src + " tag=" +
                   ka.tag);
        }
      }
      // V4: Wait/Test on the same request expression.
      if (has_class(a, trace::kCompletionClass) &&
          has_class(b, trace::kCompletionClass)) {
        const std::string ra = arg_at(a, a.row->args.request);
        const std::string rb = arg_at(b, b.row->args.request);
        if (ra == rb) {
          warn(WarningClass::kConcurrentRequest,
               classify_pair(analysis, i, j, {ra}), a.line, a.label, site2,
               wit, "concurrent completion calls on request " + ra);
        }
      }
      // V6: collectives on the same communicator expression.
      if (has_class(a, trace::kCollectiveClass) &&
          has_class(b, trace::kCollectiveClass)) {
        const std::string ca = arg_at(a, a.row->args.comm);
        const std::string cb = arg_at(b, b.row->args.comm);
        if (ca == cb) {
          warn(WarningClass::kCollectiveCall,
               classify_pair(analysis, i, j, {ca}), a.line, a.label, site2,
               wit, "concurrent collectives on communicator " + ca);
        }
      }
    }
  }

  return warnings;
}

std::vector<StaticWarning> diagnose_source(const std::string& source) {
  return diagnose(analyze_source(source));
}

}  // namespace home::sast
