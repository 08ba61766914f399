#include "src/diagnose/certificate.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace home::diagnose {

const char* edge_kind_name(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kProgramOrder: return "program-order";
    case EdgeKind::kMessage: return "message";
    case EdgeKind::kFork: return "fork";
    case EdgeKind::kJoin: return "join";
    case EdgeKind::kBarrier: return "barrier";
    case EdgeKind::kLock: return "lock";
  }
  return "?";
}

namespace {

constexpr std::size_t npos = detect::HbIndex::npos;

Endpoint make_endpoint(const detect::HbIndex& hb, std::size_t idx,
                       const trace::StringTable* strings) {
  const trace::Event& e = hb.events()[idx];
  Endpoint ep;
  ep.seq = e.seq;
  ep.tid = e.tid;
  ep.rank = e.rank;
  if (e.mpi) {
    ep.mpi_call = trace::routine_of(e.mpi->type).name;
    if (strings != nullptr && e.mpi->callsite != 0) {
      ep.callsite = strings->lookup(e.mpi->callsite);
    }
  }
  ep.locks = e.locks_held;
  ep.barrier_phase = hb.barriers_before(idx);
  ep.stamp_own = hb.stamp_get(idx, e.tid);
  return ep;
}

/// Trace events a certificate keeps on each side of an endpoint, same thread.
constexpr std::size_t kContextWindow = 5;

std::vector<ContextEvent> endpoint_context(const detect::HbIndex& hb,
                                          std::size_t idx) {
  const std::vector<trace::Event>& events = hb.events();
  const std::span<const std::uint32_t> mine = hb.events_of(events[idx].tid);
  const std::size_t my_pos = hb.position_of(idx);
  const std::size_t lo = my_pos > kContextWindow ? my_pos - kContextWindow : 0;
  const std::size_t hi = std::min(mine.size(), my_pos + kContextWindow + 1);
  std::vector<ContextEvent> out;
  out.reserve(hi - lo);
  for (std::size_t p = lo; p < hi; ++p) {
    ContextEvent c;
    c.seq = events[mine[p]].seq;
    c.is_endpoint = mine[p] == idx;
    c.text = trace::event_to_string(events[mine[p]]);
    out.push_back(std::move(c));
  }
  return out;
}

NonOrderWitness make_witness(const detect::HbIndex& hb, std::size_t src,
                             std::size_t dst) {
  const std::vector<trace::Event>& events = hb.events();
  NonOrderWitness w;
  w.src = events[src].seq;
  w.dst = events[dst].seq;
  const trace::Tid stid = events[src].tid;
  w.src_own = hb.stamp_get(src, stid);
  w.dst_view = hb.stamp_get(dst, stid);
  const std::size_t frontier = hb.knowledge_frontier(dst, stid);
  if (frontier == npos) return w;  // dst knows nothing of src's thread.
  w.frontier = events[frontier].seq;
  w.chain = shortest_chain(hb, frontier, dst);
  return w;
}

void render_witness(std::ostringstream& os, const NonOrderWitness& w,
                    const char* dir) {
  os << "  no HB path " << dir << ": own(src)=" << w.src_own
     << " > view(dst)=" << w.dst_view;
  if (w.dst_view == 0) {
    os << " (dst never synchronized with src's thread)\n";
    return;
  }
  os << "; knowledge frontier seq " << w.frontier << ", carried by "
     << w.chain.size() << " sync hop(s):\n";
  for (const ChainLink& link : w.chain) {
    os << "    seq " << link.from << " -[" << edge_kind_name(link.edge)
       << "]-> seq " << link.to << "\n";
  }
}

void render_endpoint(std::ostringstream& os, const Endpoint& ep,
                     const char* label) {
  os << "  endpoint " << label << ": seq " << ep.seq << " tid " << ep.tid
     << " rank " << ep.rank;
  if (!ep.mpi_call.empty()) os << " " << ep.mpi_call;
  if (!ep.callsite.empty()) os << " @ " << ep.callsite;
  os << ", locks {";
  for (std::size_t i = 0; i < ep.locks.size(); ++i) {
    if (i > 0) os << ",";
    os << ep.locks[i];
  }
  os << "}, barrier phase " << ep.barrier_phase << ", own clock "
     << ep.stamp_own << "\n";
}

bool fail(std::string* why, std::string message) {
  if (why != nullptr) *why = std::move(message);
  return false;
}

}  // namespace

std::string Certificate::to_string() const {
  std::ostringstream os;
  os << "Causal chain for " << key << "\n  " << violation.to_string() << "\n";
  if (e1.seq != 0) render_endpoint(os, e1, "A");
  if (e2.seq != 0) render_endpoint(os, e2, "B");
  if (!has_pair) {
    os << "  single-endpoint violation class: no pairwise HB witness\n";
  } else if (hb_unordered) {
    render_witness(os, w12, "A->B");
    render_witness(os, w21, "B->A");
    os << "  locksets disjoint: " << (disjoint_locks ? "yes" : "no") << "\n";
  } else {
    os << "  endpoints are HB-ordered (ordering-rule violation class)\n";
  }
  if (!causal_picks.empty()) {
    os << "  causal schedule picks: " << causal_picks.size() << "\n";
    for (const explore::Decision& d : causal_picks) {
      os << "    " << hook_kind_name(d.kind) << " rank " << d.rank << " lane "
         << d.lane << " @ " << d.site << " #" << d.occurrence << " -> "
         << d.value << "\n";
    }
  }
  if (!minimized.empty()) {
    os << "  minimized schedule: " << minimized.decisions.size()
       << " decision(s)"
       << (minimized_verified ? ", replay-verified" : ", NOT verified") << "\n";
  }
  return os.str();
}

std::vector<ChainLink> shortest_chain(const detect::HbIndex& hb,
                                      std::size_t from, std::size_t to) {
  std::vector<ChainLink> chain;
  const std::vector<trace::Event>& events = hb.events();
  if (from >= to || to >= events.size()) return chain;
  // Every edge joins clocks, so an event on a path from `from` carries at
  // least from's own component: the search skips every event that does not.
  const trace::Tid ftid = events[from].tid;
  const std::uint64_t fown = hb.stamp_get(from, ftid);
  if (hb.stamp_get(to, ftid) < fown) return chain;

  // Breadth-first from `to` back along the recorded sources.  Every source
  // precedes its target, so only the [from, to] window can lie on a path;
  // search state is indexed relative to it.
  const std::size_t width = to - from + 1;
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> next(width, kUnseen);  // hop toward `to`.
  std::vector<EdgeKind> via(width, EdgeKind::kProgramOrder);
  std::vector<std::size_t> queue{to};
  next[width - 1] = to;
  bool found = false;
  for (std::size_t head = 0; head < queue.size() && !found; ++head) {
    const std::size_t cur = queue[head];
    hb.for_each_source(cur, [&](std::size_t src, EdgeKind kind) {
      if (found || src < from || next[src - from] != kUnseen ||
          hb.stamp_get(src, ftid) < fown) {
        return;
      }
      next[src - from] = cur;
      via[src - from] = kind;
      found = src == from;
      queue.push_back(src);
    });
  }
  if (!found) return chain;

  for (std::size_t cur = from; cur != to; cur = next[cur - from]) {
    chain.push_back(
        ChainLink{events[cur].seq, events[next[cur - from]].seq,
                  via[cur - from]});
  }
  return chain;
}

Certificate build_certificate(const detect::HbIndex& hb,
                              const spec::Violation& v,
                              const trace::StringTable* strings) {
  Certificate cert;
  cert.violation = v;
  cert.key = spec::violation_key(v);

  const std::vector<trace::Event>& events = hb.events();
  const std::size_t i1 = v.call1 != 0 ? hb.index_of_seq(v.call1) : npos;
  const std::size_t i2 = v.call2 != 0 ? hb.index_of_seq(v.call2) : npos;
  if (i1 == npos && i2 == npos) return cert;

  if (i1 != npos) {
    cert.e1 = make_endpoint(hb, i1, strings);
    cert.context1 = endpoint_context(hb, i1);
  }
  if (i2 != npos) {
    cert.e2 = make_endpoint(hb, i2, strings);
    cert.context2 = endpoint_context(hb, i2);
  }
  if (i1 == npos || i2 == npos) return cert;

  cert.has_pair = true;
  cert.disjoint_locks =
      trace::locksets_disjoint(events[i1].locks_held, events[i2].locks_held);
  if (events[i1].tid != events[i2].tid && hb.concurrent(i1, i2)) {
    cert.hb_unordered = true;
    cert.w12 = make_witness(hb, i1, i2);
    cert.w21 = make_witness(hb, i2, i1);
  }
  return cert;
}

namespace {

/// Independent recomputation for the verifier: thread `tid` arrived at
/// barrier object `obj` before events[end] — a raw trace scan rather than
/// the builder's recorded positions, so a builder bug cannot vouch for
/// itself.
bool arrived_before(const std::vector<trace::Event>& events, std::size_t end,
                    trace::ObjId obj, trace::Tid tid) {
  for (std::size_t i = 0; i < end; ++i) {
    const trace::Event& e = events[i];
    if (e.kind == trace::EventKind::kBarrier && e.obj == obj && e.tid == tid) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool verify_link(const detect::HbIndex& hb, const ChainLink& link,
                 const detect::HappensBeforeConfig& hb_cfg, std::string* why) {
  const std::size_t a = hb.index_of_seq(link.from);
  const std::size_t b = hb.index_of_seq(link.to);
  if (a == npos || b == npos) {
    return fail(why, "chain link references an event not in the trace");
  }
  const trace::Event& ea = hb.events()[a];
  const trace::Event& eb = hb.events()[b];
  if (!(ea.seq < eb.seq)) {
    return fail(why, "chain link runs backwards in the trace order");
  }
  if (!hb.ordered(a, b)) {
    return fail(why, "chain link endpoints are not HB-ordered");
  }
  switch (link.edge) {
    case EdgeKind::kProgramOrder:
      if (ea.tid != eb.tid) {
        return fail(why, "program-order link crosses threads");
      }
      break;
    case EdgeKind::kMessage:
      if (ea.kind != trace::EventKind::kMsgSend ||
          eb.kind != trace::EventKind::kMsgRecv || ea.obj != eb.obj) {
        return fail(why, "message link is not a send->recv on one object");
      }
      break;
    case EdgeKind::kFork: {
      // The target reads the child's clock: the child's own event, or the
      // join that absorbs the child.
      const auto child = static_cast<trace::Tid>(ea.obj);
      const bool absorbs = eb.kind == trace::EventKind::kThreadJoin &&
                           static_cast<trace::Tid>(eb.obj) == child;
      if (ea.kind != trace::EventKind::kThreadFork ||
          (eb.tid != child && !absorbs)) {
        return fail(why, "fork link does not target the forked thread");
      }
      break;
    }
    case EdgeKind::kJoin:
      if (eb.kind != trace::EventKind::kThreadJoin ||
          static_cast<trace::Tid>(eb.obj) != ea.tid) {
        return fail(why, "join link does not absorb the joined thread");
      }
      break;
    case EdgeKind::kBarrier: {
      if (ea.kind != trace::EventKind::kBarrier) {
        return fail(why, "barrier link does not start at an arrival");
      }
      // The target reads the clock of a participant that arrived at the
      // same barrier object before it (arrival stamps are pre-completion,
      // so the fan-out lands on the participant's *next* event, or on the
      // join that absorbs the participant).
      const bool arrived =
          arrived_before(hb.events(), b, ea.obj, eb.tid) ||
          (eb.kind == trace::EventKind::kThreadJoin &&
           arrived_before(hb.events(), b, ea.obj,
                          static_cast<trace::Tid>(eb.obj)));
      if (!arrived) {
        return fail(why, "barrier link target's thread never arrived");
      }
      break;
    }
    case EdgeKind::kLock:
      if (!hb_cfg.lock_edges || ea.kind != trace::EventKind::kLockRelease ||
          eb.kind != trace::EventKind::kLockAcquire || ea.obj != eb.obj) {
        return fail(why, "lock link is invalid under this HB configuration");
      }
      break;
  }
  return true;
}

namespace {

/// Independent recomputation for the verifier, a raw trace scan like
/// arrived_before.
std::uint64_t barrier_phase_before(const std::vector<trace::Event>& events,
                                   std::size_t idx) {
  const trace::Tid tid = events[idx].tid;
  std::uint64_t phase = 0;
  for (std::size_t i = 0; i < idx; ++i) {
    if (events[i].tid == tid && events[i].kind == trace::EventKind::kBarrier) {
      ++phase;
    }
  }
  return phase;
}

bool check_endpoint(const detect::HbIndex& hb, const Endpoint& ep,
                    trace::Seq call_seq, const trace::StringTable* strings,
                    const char* label, std::string* why) {
  const std::string who = std::string("endpoint ") + label;
  if (ep.seq == 0 || ep.seq != call_seq) {
    return fail(why, who + " does not match the violation's call seq");
  }
  const std::size_t idx = hb.index_of_seq(ep.seq);
  if (idx == npos) return fail(why, who + " is not in the trace");
  const trace::Event& e = hb.events()[idx];
  if (e.kind != trace::EventKind::kMpiCall || !e.mpi) {
    return fail(why, who + " is not an MPI call event");
  }
  if (e.tid != ep.tid || e.rank != ep.rank) {
    return fail(why, who + " thread/rank does not match the trace");
  }
  if (strings != nullptr) {
    const std::string label_now =
        e.mpi->callsite != 0 ? strings->lookup(e.mpi->callsite) : "";
    if (label_now != ep.callsite) {
      return fail(why, who + " callsite label does not match the trace");
    }
  }
  if (ep.locks != e.locks_held) {
    return fail(why, who + " lockset does not match the trace");
  }
  if (ep.barrier_phase != barrier_phase_before(hb.events(), idx)) {
    return fail(why, who + " barrier phase does not match the trace");
  }
  if (ep.stamp_own != hb.stamp_get(idx, e.tid)) {
    return fail(why, who + " own stamp does not match the recomputed clock");
  }
  return true;
}

bool check_witness(const detect::HbIndex& hb, const NonOrderWitness& w,
                   const Endpoint& src_ep, const Endpoint& dst_ep,
                   const detect::HappensBeforeConfig& hb_cfg,
                   std::string* why) {
  if (w.src != src_ep.seq || w.dst != dst_ep.seq) {
    return fail(why, "witness endpoints do not match the certificate's");
  }
  const std::size_t si = hb.index_of_seq(w.src);
  const std::size_t di = hb.index_of_seq(w.dst);
  if (si == npos || di == npos) {
    return fail(why, "witness references an event not in the trace");
  }
  const trace::Tid stid = hb.events()[si].tid;
  if (w.src_own != hb.stamp_get(si, stid)) {
    return fail(why, "witness src_own does not match the recomputed stamp");
  }
  if (w.dst_view != hb.stamp_get(di, stid)) {
    return fail(why, "witness dst_view does not match the recomputed stamp");
  }
  if (!(w.src_own > w.dst_view)) {
    return fail(why, "witness inequality does not prove non-ordering");
  }
  if (w.dst_view == 0) {
    if (w.frontier != 0 || !w.chain.empty()) {
      return fail(why, "witness claims a frontier with a zero view");
    }
    return true;
  }
  const std::size_t fi = hb.index_of_seq(w.frontier);
  if (fi == npos) return fail(why, "witness frontier is not in the trace");
  if (hb.events()[fi].tid != stid ||
      hb.stamp_get(fi, stid) != w.dst_view) {
    return fail(why, "witness frontier is not dst's knowledge frontier");
  }
  if (w.chain.empty() || w.chain.size() > hb.events().size()) {
    return fail(why, "witness chain is empty or impossibly long");
  }
  if (w.chain.front().from != w.frontier) {
    return fail(why, "witness chain does not start at the frontier");
  }
  if (w.chain.back().to != w.dst) {
    return fail(why, "witness chain does not end at the destination");
  }
  for (std::size_t i = 0; i + 1 < w.chain.size(); ++i) {
    if (w.chain[i].to != w.chain[i + 1].from) {
      return fail(why, "witness chain has a broken hop");
    }
  }
  for (const ChainLink& link : w.chain) {
    if (!verify_link(hb, link, hb_cfg, why)) return false;
  }
  return true;
}

}  // namespace

bool verify_certificate(const Certificate& cert,
                        const std::vector<trace::Event>& events,
                        const trace::StringTable* strings,
                        const detect::HappensBeforeConfig& hb_cfg,
                        std::string* why) {
  if (spec::violation_key(cert.violation) != cert.key) {
    return fail(why, "certificate key does not match its violation");
  }
  // The independent replay: every stamp below is recomputed from the raw
  // trace, so a certificate fabricated from a different execution (or
  // tampered with) cannot agree with it.
  const detect::HbIndex hb =
      detect::HappensBeforeAnalysis(hb_cfg).run(events);

  const spec::Violation& v = cert.violation;
  if (v.call1 != 0 &&
      !check_endpoint(hb, cert.e1, v.call1, strings, "A", why)) {
    return false;
  }
  if (v.call2 != 0 &&
      !check_endpoint(hb, cert.e2, v.call2, strings, "B", why)) {
    return false;
  }
  if (!cert.has_pair) {
    if (cert.hb_unordered) {
      return fail(why, "single-endpoint certificate claims an HB witness");
    }
    return true;
  }
  if (v.call1 == 0 || v.call2 == 0) {
    return fail(why, "paired certificate lacks a call seq");
  }
  const std::size_t i1 = hb.index_of_seq(v.call1);
  const std::size_t i2 = hb.index_of_seq(v.call2);
  const bool disjoint = trace::locksets_disjoint(
      hb.events()[i1].locks_held, hb.events()[i2].locks_held);
  if (cert.disjoint_locks != disjoint) {
    return fail(why, "lockset-disjointness claim does not match the trace");
  }
  if (cert.hb_unordered) {
    if (hb.events()[i1].tid == hb.events()[i2].tid) {
      return fail(why, "HB witness claimed for a same-thread pair");
    }
    if (!hb.concurrent(i1, i2)) {
      return fail(why, "endpoints are HB-ordered, witness is vacuous");
    }
    if (!check_witness(hb, cert.w12, cert.e1, cert.e2, hb_cfg, why)) {
      return false;
    }
    if (!check_witness(hb, cert.w21, cert.e2, cert.e1, hb_cfg, why)) {
      return false;
    }
  }
  return true;
}

}  // namespace home::diagnose
