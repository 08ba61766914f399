// Explanation certificates (ISSUE-9 tentpole): the self-contained,
// machine-checkable record of *why* one spec::Violation was reported.
//
// A certificate packages, for the two conflicting MPI calls,
//   (a) the endpoints themselves plus a bounded per-thread context window of
//       surrounding trace events,
//   (b) a causal *non-ordering witness* in each direction: the stamp
//       inequality proving no happens-before path exists between the calls,
//       together with the shortest chain of synchronization events that
//       carries the knowledge the destination *does* have (its "frontier" of
//       the source thread) — the chain shows how far causality reaches and
//       therefore where it stops,
//   (c) the lockset and barrier phase held at each endpoint.
//
// Soundness of (b): IncrementalHb bumps the issuing thread's own clock
// component at every event, so an event E of thread t with own component V is
// exactly the V-th event of t, and for any other event D,
//     E happens-before D  <=>  stamp(D)[t] >= V.
// Hence `stamp(e1).own > stamp(e2)[tid1]` (and the symmetric inequality) is a
// complete proof of mutual non-ordering, and both sides are recomputable from
// the raw trace — which is what verify_certificate() does, from scratch,
// through an independent HB replay.  The chain is checked hop by hop: every
// link must be a structurally valid primitive sync edge (program order,
// message, fork, join, barrier, lock) whose endpoints are HB-ordered under
// the recomputed stamps, and it must run from the frontier event to the
// destination endpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/explore/schedule.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/event.hpp"
#include "src/trace/trace_log.hpp"

namespace home::diagnose {

/// The primitive synchronization edges a witness chain may use — exactly the
/// edges IncrementalHb::advance applies (detect::EdgeKind).
using EdgeKind = detect::EdgeKind;

const char* edge_kind_name(EdgeKind kind);

/// One hop of a witness chain, identified by event seqs (stable across
/// re-verification of the same trace).
struct ChainLink {
  trace::Seq from = 0;
  trace::Seq to = 0;
  EdgeKind edge = EdgeKind::kProgramOrder;
};

/// Proof that events[src] does NOT happen-before events[dst]:
/// `src_own > dst_view` under per-event stamps, where dst_view is dst's
/// stamp component for src's thread.  The chain explains dst_view: it is the
/// sync path that carried the frontier event (the last src-thread event dst
/// knows of) to dst; frontier == 0 (empty chain) when dst knows nothing of
/// src's thread at all.
struct NonOrderWitness {
  trace::Seq src = 0;
  trace::Seq dst = 0;
  std::uint64_t src_own = 0;   ///< src's own stamp component.
  std::uint64_t dst_view = 0;  ///< dst's stamp component for src's thread.
  trace::Seq frontier = 0;     ///< seq of dst's knowledge frontier (0 = none).
  std::vector<ChainLink> chain;
};

/// One endpoint of the conflicting pair, with the state the spec rules
/// consulted at that event.
struct Endpoint {
  trace::Seq seq = 0;
  trace::Tid tid = trace::kNoTid;
  int rank = trace::kNoRank;
  std::string mpi_call;                ///< the event's routine name.
  std::string callsite;
  std::vector<trace::ObjId> locks;     ///< lockset snapshot at the event.
  std::uint64_t barrier_phase = 0;     ///< barriers this thread passed before.
  std::uint64_t stamp_own = 0;         ///< own clock component at the event.
};

/// One surrounding trace event kept for human context (not verified).
struct ContextEvent {
  trace::Seq seq = 0;
  bool is_endpoint = false;
  std::string text;                    ///< trace::event_to_string rendering.
};

struct Certificate {
  spec::Violation violation;
  std::string key;                     ///< spec::violation_key(violation).

  /// Both endpoints resolved to trace events (single-endpoint violation
  /// classes — e.g. V1 serialized/funneled findings — leave has_pair false
  /// and carry only e1 / context1 when a call seq exists).
  bool has_pair = false;
  Endpoint e1, e2;
  /// Each endpoint with up to 5 events of its thread on either side.
  std::vector<ContextEvent> context1, context2;

  /// True when the two endpoints were mutually HB-unordered and both
  /// witnesses below were established.  (Finalization reports can pair an
  /// ordered call with MPI_Finalize; those carry endpoints but no witness.)
  bool hb_unordered = false;
  NonOrderWitness w12;                 ///< e1 !HB-> e2.
  NonOrderWitness w21;                 ///< e2 !HB-> e1.

  /// trace::locksets_disjoint over the endpoint locksets.
  bool disjoint_locks = false;

  // --- exploration provenance (filled when the run was explored) ----------
  /// Recorded schedule picks whose rank lies on the causal path (endpoint or
  /// witness-chain ranks) — the scheduler decisions that made the
  /// interleaving reachable.
  std::vector<explore::Decision> causal_picks;
  /// ddmin-minimized reproduction schedule (explore::Sweeper fills this;
  /// empty until minimization ran).
  explore::Schedule minimized;
  /// The minimized schedule was replay-verified to reproduce `key`.
  bool minimized_verified = false;

  /// Human rendering: the "Causal chain" block the CLIs and html_report show.
  std::string to_string() const;
};

/// Shortest chain (fewest hops) from events[from] to events[to] over the
/// HB edges the index recorded (HbIndex::for_each_source); empty when
/// unreachable or from >= to.  Every edge points forward in seq order, so
/// the search is bounded to the [from, to] index window.
std::vector<ChainLink> shortest_chain(const detect::HbIndex& hb,
                                      std::size_t from, std::size_t to);

/// Build the certificate for one violation from a finished HB index.
/// `strings` resolves callsite labels (may be null).
Certificate build_certificate(const detect::HbIndex& hb,
                              const spec::Violation& v,
                              const trace::StringTable* strings);

/// The verifier's check of one chain hop: `link` is a structurally valid
/// primitive sync edge of the trace under `hb_cfg` and HB-ordered.  `replay`
/// must be an HB replay of the trace independent of the certificate's
/// builder (verify_certificate runs its own); only its stamps and the raw
/// events are read, no recorded edge or position.
bool verify_link(const detect::HbIndex& replay, const ChainLink& link,
                 const detect::HappensBeforeConfig& hb_cfg,
                 std::string* why = nullptr);

/// The machine-checking oracle: re-derive every claim of `cert` from the raw
/// trace via an *independent* HB replay and reject on any mismatch.  Used as
/// the test oracle and as the --paranoid runtime mode.  `events` must be the
/// seq-sorted trace of the run that produced the certificate; `strings` may
/// be null (callsite labels are then not cross-checked).  On failure returns
/// false and, when `why` is non-null, stores the first failed check.
bool verify_certificate(const Certificate& cert,
                        const std::vector<trace::Event>& events,
                        const trace::StringTable* strings,
                        const detect::HappensBeforeConfig& hb_cfg,
                        std::string* why = nullptr);

}  // namespace home::diagnose
