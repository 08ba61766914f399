#include "src/sast/commstat.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "src/sast/analysis.hpp"
#include "src/sast/parser.hpp"

namespace home::sast {
namespace {

// ---------------------------------------------------------------------------
// Small text utilities over the AST's raw argument/condition strings.

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string strip_parens(std::string s) {
  s = trim(s);
  while (s.size() >= 2 && s.front() == '(' && s.back() == ')') {
    // Only strip if the parens actually wrap the whole expression.
    int depth = 0;
    bool wraps = true;
    for (std::size_t i = 0; i + 1 < s.size(); ++i) {
      if (s[i] == '(') ++depth;
      if (s[i] == ')') --depth;
      if (depth == 0) { wraps = false; break; }
    }
    if (!wraps) break;
    s = trim(s.substr(1, s.size() - 2));
  }
  return s;
}

bool parse_int(const std::string& s, int* out) {
  const std::string t = trim(s);
  if (t.empty()) return false;
  std::size_t i = (t[0] == '-' || t[0] == '+') ? 1 : 0;
  if (i >= t.size()) return false;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (!std::isdigit(static_cast<unsigned char>(t[j]))) return false;
  }
  *out = std::stoi(t);
  return true;
}

/// `a OP b` split at the first top-level comparison operator.
bool split_compare(const std::string& s, std::string* lhs, std::string* op,
                   std::string* rhs) {
  static const char* kOps[] = {"==", "!=", "<=", ">=", "<", ">"};
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') --depth;
    if (depth != 0) continue;
    for (const char* o : kOps) {
      const std::size_t n = std::strlen(o);
      if (s.compare(i, n, o) == 0) {
        *lhs = trim(s.substr(0, i));
        *op = o;
        *rhs = trim(s.substr(i + n));
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rank guards: conditions of the form `rank OP (c | size - c)`.

/// rhs value `base + nmul * nprocs` (nmul is 0 or 1).
struct RankConst {
  int base = 0;
  int nmul = 0;
  int value(int n) const { return base + nmul * n; }
};

struct Guard {
  std::string op;  // "==", "!=", "<", "<=", ">", ">="
  RankConst rhs;
  bool negated = false;  ///< else-branch of the guard.

  bool eval(int rank, int n) const {
    const int v = rhs.value(n);
    bool r = false;
    if (op == "==") r = rank == v;
    else if (op == "!=") r = rank != v;
    else if (op == "<") r = rank < v;
    else if (op == "<=") r = rank <= v;
    else if (op == ">") r = rank > v;
    else if (op == ">=") r = rank >= v;
    return negated ? !r : r;
  }
};

bool parse_rank_const(const std::string& text, const std::string& sizevar,
                      RankConst* out) {
  const std::string t = strip_parens(text);
  int v = 0;
  if (parse_int(t, &v)) {
    *out = {v, 0};
    return true;
  }
  if (!sizevar.empty()) {
    if (t == sizevar) {
      *out = {0, 1};
      return true;
    }
    const std::size_t minus = t.find('-');
    if (minus != std::string::npos && trim(t.substr(0, minus)) == sizevar &&
        parse_int(t.substr(minus + 1), &v)) {
      *out = {-v, 1};
      return true;
    }
  }
  return false;
}

bool parse_guard(const std::string& cond, const std::string& rankvar,
                 const std::string& sizevar, Guard* out) {
  std::string lhs, op, rhs;
  if (!split_compare(strip_parens(cond), &lhs, &op, &rhs)) return false;
  if (strip_parens(lhs) != rankvar) return false;
  RankConst rc;
  if (!parse_rank_const(rhs, sizevar, &rc)) return false;
  out->op = op;
  out->rhs = rc;
  out->negated = false;
  return true;
}

// ---------------------------------------------------------------------------
// Rank-expression parsing for peer arguments.

RankExpr parse_rank_expr(const std::string& text, const std::string& rankvar,
                         const std::string& sizevar) {
  RankExpr e;
  const std::string t = strip_parens(text);
  if (t == "MPI_ANY_SOURCE") {
    e.kind = RankExpr::kWildcard;
    return e;
  }
  int v = 0;
  if (parse_int(t, &v)) {
    e.kind = RankExpr::kConst;
    e.c = v;
    return e;
  }
  if (t == rankvar) {
    e.kind = RankExpr::kRelative;
    e.c = 0;
    return e;
  }
  // rank + c / rank - c (top level).
  int depth = 0;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i] == '(') ++depth;
    if (t[i] == ')') --depth;
    if (depth != 0 || (t[i] != '+' && t[i] != '-')) continue;
    const std::string a = trim(t.substr(0, i));
    const std::string b = trim(t.substr(i + 1));
    if (strip_parens(a) == rankvar && parse_int(b, &v)) {
      e.kind = RankExpr::kRelative;
      e.c = t[i] == '+' ? v : -v;
      return e;
    }
  }
  // (rank + c) % size  /  (rank - c + size) % size — ring shifts.
  const std::size_t mod = t.rfind('%');
  if (mod != std::string::npos && !sizevar.empty() &&
      strip_parens(t.substr(mod + 1)) == sizevar) {
    const std::string inner = strip_parens(t.substr(0, mod));
    // Fold `rank`, integer literals, and `size` terms: rank + c (+ size).
    std::istringstream is(inner);
    int c = 0;
    bool saw_rank = false, ok = true;
    int sign = 1;
    std::string tok;
    auto flush = [&](const std::string& term) {
      if (term.empty()) return;
      int iv = 0;
      if (term == rankvar) saw_rank = true;
      else if (term == sizevar) { /* + size folds away mod size */ }
      else if (parse_int(term, &iv)) c += sign * iv;
      else ok = false;
    };
    std::string term;
    for (char ch : inner) {
      if (ch == '+' || ch == '-') {
        flush(trim(term));
        term.clear();
        sign = ch == '+' ? 1 : -1;
      } else {
        term += ch;
      }
    }
    flush(trim(term));
    if (ok && saw_rank) {
      e.kind = RankExpr::kRing;
      e.c = c;
      return e;
    }
  }
  e.kind = RankExpr::kUnknown;
  return e;
}

// ---------------------------------------------------------------------------
// Extraction: walk main's statement tree, projecting rank-parametric ops.

struct ParamOp {
  CommOp op;
  const trace::MpiRoutine* row = nullptr;
  std::vector<Guard> guards;
};

struct ExtractState {
  std::string rankvar = "rank";
  std::string sizevar;
  std::vector<ParamOp> ops;
  std::vector<std::string> imprecision;
  std::string pending_site;
  std::vector<Guard> guards;
  int conditional_depth = 0;
  int loop_depth = 0;

  void note(const std::string& why) {
    for (const std::string& s : imprecision) {
      if (s == why) return;
    }
    imprecision.push_back(why);
  }
};

/// Argument position as an index (-1, "none", becomes out of range).
std::size_t arg_index(std::int8_t pos) {
  return pos < 0 ? static_cast<std::size_t>(-1) : static_cast<std::size_t>(pos);
}

void add_op(ExtractState& st, CommOpKind kind, const CallExpr& call,
            const trace::MpiRoutine& row, std::int8_t peer_pos,
            std::int8_t tag_pos, const std::string& fn) {
  const std::size_t peer_arg = arg_index(peer_pos);
  const std::size_t tag_arg = arg_index(tag_pos);
  const std::size_t comm_arg = arg_index(row.args.comm);
  ParamOp p;
  p.row = &row;
  p.op.kind = kind;
  p.op.routine = call.callee;
  p.op.line = call.line;
  p.op.conditional = st.conditional_depth > 0;
  p.op.in_loop = st.loop_depth > 0;
  if (kind != CommOpKind::kCollective) {
    if (peer_arg < call.args.size()) {
      p.op.peer = parse_rank_expr(call.args[peer_arg], st.rankvar, st.sizevar);
    }
    if (p.op.peer.kind == RankExpr::kUnknown) {
      st.note("unresolved peer expression at line " +
              std::to_string(call.line));
    }
    if (tag_arg < call.args.size()) {
      int tv = 0;
      const std::string t = trim(call.args[tag_arg]);
      if (parse_int(t, &tv)) {
        p.op.tag = tv;
        p.op.tag_known = true;
      } else if (t != "MPI_ANY_TAG") {
        st.note("non-constant tag at line " + std::to_string(call.line));
      }
    }
  }
  if (comm_arg < call.args.size()) p.op.comm = trim(call.args[comm_arg]);
  if (!p.op.comm.empty() && p.op.comm != "MPI_COMM_WORLD") {
    st.note("non-world communicator " + p.op.comm);
  }
  p.op.label = st.pending_site.empty()
                   ? fn + ":" + std::to_string(call.line) + ":" + call.callee
                   : st.pending_site;
  st.pending_site.clear();
  p.guards = st.guards;
  st.ops.push_back(std::move(p));
}

void extract_call(ExtractState& st, const CallExpr& call,
                  const std::string& fn) {
  const std::string& name = call.callee;
  if (name == "HOME_SITE") {
    if (!call.args.empty()) {
      std::string s = strip_parens(call.args[0]);
      if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
        s = s.substr(1, s.size() - 2);
      }
      st.pending_site = s;
    }
    return;
  }
  if (name == "MPI_Comm_rank" && call.args.size() >= 2) {
    std::string v = strip_parens(call.args[1]);
    if (!v.empty() && v[0] == '&') v = trim(v.substr(1));
    if (!v.empty()) st.rankvar = v;
    return;
  }
  if (name == "MPI_Comm_size" && call.args.size() >= 2) {
    std::string v = strip_parens(call.args[1]);
    if (!v.empty() && v[0] == '&') v = trim(v.substr(1));
    if (!v.empty()) st.sizevar = v;
    return;
  }
  const trace::MpiRoutine* row = trace::find_routine(name);
  if (row == nullptr) return;
  const trace::ArgPositions& a = row->args;
  if (row->sends()) {
    add_op(st, CommOpKind::kSend, call, *row, a.dest, a.send_tag, fn);
  }
  if (row->receives()) {
    add_op(st, CommOpKind::kRecv, call, *row, a.source, a.recv_tag, fn);
    if (row->type == trace::MpiCallType::kIrecv) {
      st.note(std::string(row->name) + " modeled as blocking at line " +
              std::to_string(call.line));
    }
  }
  if (row->collective()) {
    add_op(st, CommOpKind::kCollective, call, *row, -1, -1, fn);
  }
}

/// Constant trip count of `for (i = A; i <(=) B; ...)`, or -1.
int loop_trip_count(const std::string& header) {
  // header text is "init; cond; step".
  const std::size_t s1 = header.find(';');
  if (s1 == std::string::npos) return -1;
  const std::size_t s2 = header.find(';', s1 + 1);
  if (s2 == std::string::npos) return -1;
  const std::string init = header.substr(0, s1);
  const std::string cond = header.substr(s1 + 1, s2 - s1 - 1);
  const std::size_t eq = init.rfind('=');
  int start = 0;
  if (eq == std::string::npos || !parse_int(init.substr(eq + 1), &start)) {
    return -1;
  }
  std::string lhs, op, rhs;
  if (!split_compare(cond, &lhs, &op, &rhs)) return -1;
  int bound = 0;
  if (!parse_int(rhs, &bound)) return -1;
  if (op == "<") return bound - start;
  if (op == "<=") return bound - start + 1;
  return -1;
}

void extract_stmt(ExtractState& st, const Stmt& stmt, const std::string& fn) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      for (const auto& c : stmt.children) extract_stmt(st, *c, fn);
      break;
    case StmtKind::kExpr:
    case StmtKind::kReturn:
      for (const CallExpr& call : stmt.calls) extract_call(st, call, fn);
      break;
    case StmtKind::kIf: {
      Guard g;
      if (parse_guard(stmt.text, st.rankvar, st.sizevar, &g)) {
        st.guards.push_back(g);
        if (stmt.body) extract_stmt(st, *stmt.body, fn);
        st.guards.back().negated = true;
        if (stmt.else_body) extract_stmt(st, *stmt.else_body, fn);
        st.guards.pop_back();
      } else {
        ++st.conditional_depth;
        if (stmt.body) extract_stmt(st, *stmt.body, fn);
        if (stmt.else_body) extract_stmt(st, *stmt.else_body, fn);
        --st.conditional_depth;
        // Only note when the branch actually contains communication.
      }
      break;
    }
    case StmtKind::kFor: {
      const int trips = loop_trip_count(stmt.text);
      if (trips >= 0 && trips <= 8) {
        for (int i = 0; i < trips; ++i) {
          if (stmt.body) extract_stmt(st, *stmt.body, fn);
        }
      } else {
        ++st.loop_depth;
        if (stmt.body) extract_stmt(st, *stmt.body, fn);
        --st.loop_depth;
      }
      break;
    }
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
    case StmtKind::kSwitch:
      ++st.loop_depth;
      for (const auto& c : stmt.children) extract_stmt(st, *c, fn);
      if (stmt.body) extract_stmt(st, *stmt.body, fn);
      --st.loop_depth;
      break;
    case StmtKind::kOmp:
      // Team execution: the op may run once per thread — repetition the
      // per-rank sequence matcher cannot count.
      ++st.loop_depth;
      if (stmt.body) extract_stmt(st, *stmt.body, fn);
      --st.loop_depth;
      break;
    case StmtKind::kEmpty:
      break;
  }
}

// ---------------------------------------------------------------------------
// The abstract machine: one universe, eager sends, DFS over wildcard picks.

struct ProjOp {
  const CommOp* op = nullptr;
  int peer = -1;  ///< resolved; -1 = wildcard, -2 = invalid.
  int phase = 0;
};

struct Msg {
  int src = 0;
  int tag = -1;
  std::string comm;
  std::uint64_t seq = 0;
  std::string send_label;
};

struct MachineState {
  std::vector<std::size_t> pc;
  std::vector<std::deque<Msg>> queues;
  std::uint64_t next_seq = 0;
  std::map<std::string, std::uint64_t> occurrences;  ///< per pick site.
  std::vector<explore::Decision> picks;
  /// (send label, recv label) consumed with exactly one eligible candidate.
  std::vector<std::pair<std::string, std::string>> unique_matches;
};

/// One terminal outcome of a DFS branch.
struct Outcome {
  bool completed = false;
  std::set<std::string> unmatched_sends;      ///< leftover send labels.
  std::set<std::string> unmatched_recvs;      ///< starved recv labels.
  std::set<std::string> collective_div;       ///< divergence descriptions.
  std::string deadlock_key;                   ///< canonical cycle key ("" none).
  std::string deadlock_desc;
  std::vector<explore::Decision> picks;
  std::vector<std::pair<std::string, std::string>> unique_matches;
  std::map<int, std::size_t> recv_lines;      ///< line of each starved recv.
};

bool msg_matches(const Msg& m, const ProjOp& recv) {
  if (recv.peer >= 0 && m.src != recv.peer) return false;
  if (recv.op->tag_known && m.tag >= 0 && m.tag != recv.op->tag) return false;
  return recv.op->comm == m.comm || recv.op->comm.empty() || m.comm.empty();
}

/// Eligible queued messages for a recv: oldest per distinct source (wildcard)
/// or the oldest matching message (concrete source, non-overtaking).
std::vector<std::size_t> eligible_messages(const std::deque<Msg>& queue,
                                           const ProjOp& recv) {
  std::vector<std::size_t> out;
  std::set<int> seen_src;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (!msg_matches(queue[i], recv)) continue;
    if (seen_src.count(queue[i].src)) continue;
    seen_src.insert(queue[i].src);
    out.push_back(i);
    if (recv.peer >= 0) break;  // concrete source: oldest only.
  }
  return out;
}

/// Does rank r still have a (future) send that could match `recv`?
bool has_future_sender(const std::vector<std::vector<ProjOp>>& prog,
                       const MachineState& s, int r, const ProjOp& recv,
                       int recv_rank) {
  for (std::size_t i = s.pc[static_cast<std::size_t>(r)];
       i < prog[static_cast<std::size_t>(r)].size(); ++i) {
    const ProjOp& op = prog[static_cast<std::size_t>(r)][i];
    if (op.op->kind != CommOpKind::kSend) continue;
    if (op.peer != recv_rank && op.peer != -1) continue;
    if (recv.peer >= 0 && recv.peer != r) continue;
    if (recv.op->tag_known && op.op->tag_known && op.op->tag != recv.op->tag) {
      continue;
    }
    return true;
  }
  return false;
}

/// DFS state budget per universe; exceeding it records imprecision.
constexpr std::size_t kMaxStates = 4096;

struct Machine {
  const std::vector<std::vector<ProjOp>>& prog;
  int n;
  std::size_t* states_used;
  std::vector<Outcome> outcomes;
  bool budget_exhausted = false;
  /// site -> max eligible alternatives observed at any pick consult.
  std::map<std::string, std::size_t>* site_alternatives;
  std::map<std::string, std::uint64_t>* site_occurrences;

  const ProjOp& cur(const MachineState& s, int r) const {
    return prog[static_cast<std::size_t>(r)][s.pc[static_cast<std::size_t>(r)]];
  }
  bool done(const MachineState& s, int r) const {
    return s.pc[static_cast<std::size_t>(r)] >=
           prog[static_cast<std::size_t>(r)].size();
  }

  /// Run every rank's sends (eager) and same-signature collective
  /// rendezvous and uniquely-matched concrete receives to quiescence.
  void run_forced(MachineState& s) {
    bool progress = true;
    while (progress) {
      progress = false;
      // Eager sends never block.
      for (int r = 0; r < n; ++r) {
        while (!done(s, r) && cur(s, r).op->kind == CommOpKind::kSend) {
          const ProjOp& op = cur(s, r);
          if (op.peer >= 0 && op.peer < n) {
            Msg m;
            m.src = r;
            m.tag = op.op->tag_known ? op.op->tag : -1;
            m.comm = op.op->comm;
            m.seq = s.next_seq++;
            m.send_label = op.op->label;
            s.queues[static_cast<std::size_t>(op.peer)].push_back(m);
          }
          ++s.pc[static_cast<std::size_t>(r)];
          progress = true;
        }
      }
      // Concrete-source receives: the match is unique (non-overtaking), and
      // with eager sends waiting longer can never change it — complete now.
      for (int r = 0; r < n; ++r) {
        if (done(s, r) || cur(s, r).op->kind != CommOpKind::kRecv) continue;
        const ProjOp& recv = cur(s, r);
        if (recv.peer == -1) continue;  // wildcard: handled by the DFS.
        auto elig = eligible_messages(s.queues[static_cast<std::size_t>(r)],
                                      recv);
        if (elig.empty()) continue;
        const Msg m = s.queues[static_cast<std::size_t>(r)][elig[0]];
        s.queues[static_cast<std::size_t>(r)].erase(
            s.queues[static_cast<std::size_t>(r)].begin() +
            static_cast<std::ptrdiff_t>(elig[0]));
        s.unique_matches.emplace_back(m.send_label, recv.op->label);
        ++s.pc[static_cast<std::size_t>(r)];
        progress = true;
      }
      // Collective rendezvous: world collectives need EVERY rank at the same
      // signature — a rank that already finished (or sits elsewhere) can
      // never arrive, and finish() classifies that as divergence.
      bool all_at_collective = true;
      std::string sig;
      for (int r = 0; r < n; ++r) {
        if (done(s, r) || cur(s, r).op->kind != CommOpKind::kCollective) {
          all_at_collective = false;
          break;
        }
        const std::string rsig = cur(s, r).op->routine + "|" + cur(s, r).op->comm;
        if (sig.empty()) sig = rsig;
        else if (sig != rsig) { all_at_collective = false; break; }
      }
      if (all_at_collective && !sig.empty()) {
        for (int r = 0; r < n; ++r) ++s.pc[static_cast<std::size_t>(r)];
        progress = true;
      }
    }
  }

  void finish(MachineState&& s) {
    Outcome out;
    out.picks = std::move(s.picks);
    out.unique_matches = std::move(s.unique_matches);
    bool all_done = true;
    for (int r = 0; r < n; ++r) {
      if (!done(s, r)) { all_done = false; break; }
    }
    if (all_done) {
      out.completed = true;
      for (int r = 0; r < n; ++r) {
        for (const Msg& m : s.queues[static_cast<std::size_t>(r)]) {
          out.unmatched_sends.insert(m.send_label);
        }
      }
      outcomes.push_back(std::move(out));
      return;
    }
    // Stuck: classify via the wait-for graph.
    std::vector<std::vector<int>> waits(static_cast<std::size_t>(n));
    std::vector<bool> blocked(static_cast<std::size_t>(n), false);
    for (int r = 0; r < n; ++r) {
      if (done(s, r)) continue;
      blocked[static_cast<std::size_t>(r)] = true;
      const ProjOp& op = cur(s, r);
      if (op.op->kind == CommOpKind::kRecv) {
        bool any_sender = false;
        for (int o = 0; o < n; ++o) {
          if (o == r) continue;
          if (has_future_sender(prog, s, o, op, r)) {
            waits[static_cast<std::size_t>(r)].push_back(o);
            any_sender = true;
          }
        }
        if (!any_sender) {
          out.unmatched_recvs.insert(op.op->label);
          out.recv_lines[op.op->line] = 1;
        }
      } else if (op.op->kind == CommOpKind::kCollective) {
        bool missing_forever = false;
        for (int o = 0; o < n; ++o) {
          if (o == r || done(s, o)) {
            if (o != r && done(s, o)) missing_forever = true;
            continue;
          }
          const ProjOp& other = cur(s, o);
          if (other.op->kind == CommOpKind::kCollective &&
              other.op->routine == op.op->routine &&
              other.op->comm == op.op->comm) {
            continue;  // already arrived.
          }
          waits[static_cast<std::size_t>(r)].push_back(o);
          if (other.op->kind == CommOpKind::kCollective &&
              (other.op->routine != op.op->routine ||
               other.op->comm != op.op->comm)) {
            out.collective_div.insert(
                op.op->routine + " at " + op.op->label + " vs " +
                other.op->routine + " at " + other.op->label);
          }
        }
        if (missing_forever) {
          out.collective_div.insert(op.op->routine + " at " + op.op->label +
                                    " never completes: a rank finished "
                                    "without arriving");
        }
      }
    }
    // Cycle search (n <= 8: plain DFS with a path set).
    std::vector<int> cycle;
    for (int start = 0; start < n && cycle.empty(); ++start) {
      if (!blocked[static_cast<std::size_t>(start)]) continue;
      std::vector<int> path;
      std::set<int> on_path;
      std::function<bool(int)> dfs = [&](int v) {
        path.push_back(v);
        on_path.insert(v);
        for (int w : waits[static_cast<std::size_t>(v)]) {
          if (on_path.count(w)) {
            auto it = std::find(path.begin(), path.end(), w);
            cycle.assign(it, path.end());
            return true;
          }
          if (dfs(w)) return true;
        }
        path.pop_back();
        on_path.erase(v);
        return false;
      };
      dfs(start);
    }
    if (!cycle.empty()) {
      std::ostringstream desc;
      std::vector<std::string> key_parts;
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        const int r = cycle[i];
        const ProjOp& op = cur(s, r);
        desc << "rank " << r << " blocked at " << op.op->label;
        if (i + 1 < cycle.size()) desc << " -> ";
        key_parts.push_back(std::to_string(r) + ":" + op.op->label);
      }
      std::sort(key_parts.begin(), key_parts.end());
      std::string key;
      for (const std::string& p : key_parts) key += p + ";";
      out.deadlock_key = key;
      out.deadlock_desc = desc.str();
    }
    outcomes.push_back(std::move(out));
  }

  void run(MachineState s) {
    std::vector<MachineState> stack;
    stack.push_back(std::move(s));
    while (!stack.empty()) {
      if (*states_used >= kMaxStates) {
        budget_exhausted = true;
        return;
      }
      ++*states_used;
      MachineState st = std::move(stack.back());
      stack.pop_back();
      run_forced(st);
      // Find the lowest-rank wildcard recv with eligible messages.
      int pick_rank = -1;
      std::vector<std::size_t> elig;
      for (int r = 0; r < n; ++r) {
        if (done(st, r)) continue;
        const ProjOp& op = cur(st, r);
        if (op.op->kind != CommOpKind::kRecv || op.peer != -1) continue;
        elig = eligible_messages(st.queues[static_cast<std::size_t>(r)], op);
        if (!elig.empty()) { pick_rank = r; break; }
      }
      if (pick_rank < 0) {
        finish(std::move(st));
        continue;
      }
      const ProjOp& recv = cur(st, pick_rank);
      const std::string& site = recv.op->label;
      const std::uint64_t occ = st.occurrences[site]++;
      auto& alt = (*site_alternatives)[site];
      alt = std::max(alt, elig.size());
      auto& occs = (*site_occurrences)[site];
      occs = std::max(occs, occ + 1);
      for (std::size_t choice = elig.size(); choice-- > 0;) {
        MachineState child = st;
        auto& q = child.queues[static_cast<std::size_t>(pick_rank)];
        const Msg m = q[elig[choice]];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(elig[choice]));
        if (elig.size() == 1) {
          child.unique_matches.emplace_back(m.send_label, recv.op->label);
        } else {
          explore::Decision d;
          d.kind = explore::HookKind::kWildcardPick;
          d.rank = pick_rank;
          d.lane = 0;
          d.site = site;
          d.occurrence = occ;
          d.is_pick = true;
          d.value = choice;
          child.picks.push_back(d);
        }
        ++child.pc[static_cast<std::size_t>(pick_rank)];
        stack.push_back(std::move(child));
      }
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------

int RankExpr::resolve(int rank, int n) const {
  switch (kind) {
    case kConst:
      return (c >= 0 && c < n) ? c : -2;
    case kRelative: {
      const int v = rank + c;
      return (v >= 0 && v < n) ? v : -2;
    }
    case kRing: {
      int v = (rank + c) % n;
      if (v < 0) v += n;
      return v;
    }
    case kWildcard:
      return -1;
    case kUnknown:
      return -2;
  }
  return -2;
}

std::string RankExpr::to_string() const {
  switch (kind) {
    case kConst: return std::to_string(c);
    case kRelative:
      if (c == 0) return "rank";
      return c > 0 ? "rank+" + std::to_string(c) : "rank" + std::to_string(c);
    case kRing: return "(rank" + (c >= 0 ? "+" + std::to_string(c)
                                         : std::to_string(c)) + ")%nprocs";
    case kWildcard: return "*";
    case kUnknown: return "?";
  }
  return "?";
}

bool CommstatResult::has_definite() const {
  for (const StaticWarning& w : warnings) {
    if (w.severity == Severity::kDefinite) return true;
  }
  return false;
}

std::string CommstatResult::to_string() const {
  std::ostringstream os;
  std::size_t definite = 0;
  for (const StaticWarning& w : warnings) {
    if (w.severity == Severity::kDefinite) ++definite;
  }
  os << "commstat: " << ops << " ops, universes {";
  for (std::size_t i = 0; i < universes.size(); ++i) {
    if (i) os << ",";
    os << universes[i];
  }
  os << "}, " << states << " states, " << warnings.size() << " warnings ("
     << definite << " definite), " << guidance.ambiguous.size()
     << " ambiguous sites, " << guidance.ordered.size() << " ordered pairs";
  if (!imprecision.empty()) os << ", " << imprecision.size() << " imprecision";
  return os.str();
}

CommstatResult analyze_comm(const TranslationUnit& unit,
                            const AnalysisResult& analysis,
                            const CommstatOptions& options) {
  CommstatResult result;
  const Function* main_fn = unit.find_function("main");
  if (!main_fn || !main_fn->body) return result;

  ExtractState ex;
  extract_stmt(ex, *main_fn->body, "main");
  result.ops = ex.ops.size();
  result.imprecision = ex.imprecision;
  if (ex.ops.empty()) return result;

  // MPI calls living outside main (interprocedural) are not projected; the
  // MHP facts tell us which ops sit inside parallel regions (team-repeated).
  for (const MpiCallSite& c : analysis.calls) {
    if (c.function != "main" && c.row != nullptr &&
        (c.row->sends() || c.row->receives())) {
      bool noted = false;
      for (const std::string& s : result.imprecision) {
        if (s.rfind("comm ops outside main", 0) == 0) { noted = true; break; }
      }
      if (!noted) {
        result.imprecision.push_back("comm ops outside main not projected (" +
                                     c.label + ")");
      }
    }
    if (c.function == "main" && c.in_parallel) {
      result.imprecision.push_back("op inside parallel region at " + c.label);
    }
  }
  bool any_cond = false;
  for (const ParamOp& p : ex.ops) {
    if (p.op.conditional) {
      result.imprecision.push_back("conditional comm op at " + p.op.label);
      any_cond = true;
    }
    if (p.op.in_loop) {
      result.imprecision.push_back("unmodeled repetition at " + p.op.label);
      any_cond = true;
    }
    if (p.op.kind != CommOpKind::kCollective &&
        p.op.peer.kind == RankExpr::kUnknown) {
      any_cond = true;
    }
  }
  (void)any_cond;

  // Universe sizes: explicit, or derived from the guard/peer constants.
  std::vector<int> sizes = options.universes;
  if (sizes.empty()) {
    int maxc = 1;
    for (const ParamOp& p : ex.ops) {
      for (const Guard& g : p.guards) {
        if (g.rhs.nmul == 0) maxc = std::max(maxc, g.rhs.base);
      }
      if (p.op.peer.kind == RankExpr::kConst) {
        maxc = std::max(maxc, p.op.peer.c);
      }
    }
    const int base = std::min(std::max(2, maxc + 1), 6);
    sizes.push_back(base);
    if (base < 6) sizes.push_back(base + 1);
  }
  result.universes = sizes;

  const bool imprecise = !result.imprecision.empty();

  struct FindingAgg {
    Severity severity = Severity::kPossible;
    std::string desc;
    int line = 0;
    std::string label;
    int universe = 0;
    std::vector<explore::Decision> picks;
  };
  std::map<std::string, FindingAgg> agg;  ///< key -> best finding.
  std::map<std::string, std::size_t> site_alternatives;
  std::map<std::string, std::uint64_t> site_occurrences;
  std::set<std::pair<std::string, std::string>> unique_matches;
  std::map<std::string, int> site_phase;
  int largest_ok_universe = -1;
  std::vector<std::vector<ProjOp>> largest_prog;

  for (int n : sizes) {
    // Project per-rank op lists.
    std::vector<std::vector<ProjOp>> prog(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      int phase = 0;
      for (const ParamOp& p : ex.ops) {
        bool active = true;
        for (const Guard& g : p.guards) {
          if (!g.eval(r, n)) { active = false; break; }
        }
        if (!active) continue;
        ProjOp proj;
        proj.op = &p.op;
        proj.phase = phase;
        if (p.op.kind == CommOpKind::kCollective) {
          if (p.row->type == trace::MpiCallType::kBarrier) ++phase;
        } else {
          proj.peer = p.op.peer.resolve(r, n);
          if (proj.peer == -2) continue;  // out-of-range peer: skip the op.
        }
        site_phase[p.op.label] = proj.phase;
        prog[static_cast<std::size_t>(r)].push_back(proj);
      }
    }

    Machine machine{prog, n, &result.states, {}, false, &site_alternatives,
                    &site_occurrences};
    MachineState init;
    init.pc.assign(static_cast<std::size_t>(n), 0);
    init.queues.resize(static_cast<std::size_t>(n));
    machine.run(std::move(init));
    if (machine.budget_exhausted) {
      result.imprecision.push_back("state budget exhausted at n=" +
                                   std::to_string(n));
    }
    if (machine.outcomes.empty()) continue;
    largest_ok_universe = n;
    largest_prog = prog;

    // A finding is definite in this universe iff it occurs on every branch.
    const std::size_t branches = machine.outcomes.size();
    std::map<std::string, std::size_t> counts;
    std::map<std::string, FindingAgg> local;
    for (const Outcome& out : machine.outcomes) {
      for (const auto& um : out.unique_matches) unique_matches.insert(um);
      auto record = [&](const std::string& key, const std::string& desc,
                        const std::string& label,
                        const std::vector<explore::Decision>* picks) {
        ++counts[key];
        if (!local.count(key)) {
          FindingAgg f;
          f.desc = desc;
          f.label = label;
          f.universe = n;
          if (picks) f.picks = *picks;
          local[key] = f;
        }
      };
      for (const std::string& lbl : out.unmatched_sends) {
        record("US|" + lbl, "message sent at " + lbl +
               " is never received (n=" + std::to_string(n) + ")", lbl,
               nullptr);
      }
      for (const std::string& lbl : out.unmatched_recvs) {
        record("UR|" + lbl, "receive at " + lbl +
               " can never be matched (n=" + std::to_string(n) + ")", lbl,
               nullptr);
      }
      for (const std::string& d : out.collective_div) {
        record("CD|" + d, "collective order divergence: " + d, "", nullptr);
      }
      if (!out.deadlock_key.empty()) {
        record("DL|" + out.deadlock_key,
               "circular wait (n=" + std::to_string(n) + "): " +
                   out.deadlock_desc,
               "", &out.picks);
      }
    }
    for (auto& [key, f] : local) {
      f.severity = (!imprecise && !machine.budget_exhausted &&
                    counts[key] == branches)
                       ? Severity::kDefinite
                       : Severity::kPossible;
      auto it = agg.find(key);
      if (it == agg.end()) {
        agg.emplace(key, std::move(f));
      } else if (f.severity == Severity::kDefinite &&
                 it->second.severity == Severity::kPossible) {
        it->second = std::move(f);
      }
    }
  }

  // Emit warnings + deadlock witnesses.
  for (auto& [key, f] : agg) {
    StaticWarning w;
    w.severity = f.severity;
    w.site = f.label;
    w.message = f.desc;
    if (key.rfind("US|", 0) == 0) w.cls = WarningClass::kUnmatchedSend;
    else if (key.rfind("UR|", 0) == 0) w.cls = WarningClass::kUnmatchedRecv;
    else if (key.rfind("CD|", 0) == 0) w.cls = WarningClass::kCollectiveOrder;
    else w.cls = WarningClass::kDeadlock;
    if (w.cls == WarningClass::kDeadlock) {
      CommWitness wit;
      wit.description = f.desc;
      wit.universe = f.universe;
      wit.schedule.strategy = "static_witness";
      wit.schedule.decisions = f.picks;
      w.witness = "candidate schedule with " +
                  std::to_string(f.picks.size()) + " pick(s)";
      result.witnesses.push_back(std::move(wit));
    }
    result.warnings.push_back(std::move(w));
  }

  // Guidance: ambiguous sites, ordered pairs, per-phase ambiguity.
  std::map<int, std::size_t> phase_amb;
  for (const auto& [site, alts] : site_alternatives) {
    if (alts < 2) continue;
    explore::AmbiguousSite a;
    a.site = site;
    a.alternatives = alts;
    a.occurrences = site_occurrences[site];
    a.phase = site_phase.count(site) ? site_phase[site] : 0;
    phase_amb[a.phase] += alts - 1;
    result.guidance.ambiguous.push_back(std::move(a));
  }
  for (const auto& [phase, amb] : phase_amb) {
    result.guidance.phase_ambiguity.emplace_back(phase, amb);
  }
  std::set<std::pair<std::string, std::string>> emitted;
  if (largest_ok_universe > 0) {
    for (int r = 0; r < largest_ok_universe; ++r) {
      const auto& ops = largest_prog[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
        const std::string& a = ops[i].op->label;
        const std::string& b = ops[i + 1].op->label;
        if (a == b || !emitted.insert({a, b}).second) continue;
        result.guidance.ordered.push_back(
            {a, b, "program-order(rank " + std::to_string(r) + ")"});
      }
    }
  }
  for (const auto& [send_lbl, recv_lbl] : unique_matches) {
    if (send_lbl == recv_lbl || !emitted.insert({send_lbl, recv_lbl}).second) {
      continue;
    }
    result.guidance.ordered.push_back({send_lbl, recv_lbl, "unique-match"});
  }
  return result;
}

CommstatResult analyze_comm_source(const std::string& source,
                                   const CommstatOptions& options) {
  const TranslationUnit unit = parse(source);
  const AnalysisResult analysis = analyze(unit);
  return analyze_comm(unit, analysis, options);
}

}  // namespace home::sast
