// Provenance-engine tests (ISSUE-9 acceptance):
//  * certificates built from a detector run verify against an independent
//    HB replay of the raw trace, including witness chains through barriers,
//  * the witness edges are exactly HB: on random traces and on fork/join
//    shapes, a chain exists between two events iff they are HB-ordered, and
//    every hop passes the verifier's link check,
//  * the verifier is adversarial: corrupted chains, swapped endpoints,
//    forged locksets, tampered stamps/frontiers, barrier links into a
//    non-participant and mismatched keys are all rejected with a reason,
//  * ddmin minimization converges to the minimal reproducing decision
//    subset under a synthetic oracle and stays honest when the seed itself
//    does not reproduce,
//  * a 16-seed paranoid hidden-race sweep certifies every finding and every
//    minimized schedule replays to the same violation key, and
//  * the paper injection configs certify cleanly under --paranoid.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/hidden_race.hpp"
#include "src/detect/race_detector.hpp"
#include "src/diagnose/certificate.hpp"
#include "src/diagnose/minimize.hpp"
#include "src/diagnose/provenance.hpp"
#include "src/explore/sweeper.hpp"
#include "src/home/check.hpp"
#include "src/home/html_report.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/trace_log.hpp"
#include "tests/oracle/fixtures.hpp"

namespace home::diagnose {
namespace {

using trace::EventKind;
using trace::MpiCallType;

// Builds traces shaped exactly like HomeWrappers' output (spec_test idiom).
class TraceBuilder {
 public:
  struct CallSpec {
    MpiCallType type = MpiCallType::kRecv;
    int rank = 0;
    trace::Tid tid = 0;
    int peer = -1;
    int tag = -1;
    std::uint64_t comm = 1;
    std::uint64_t request = 0;
    bool on_main = false;
    std::uint8_t provided = 3;  // MPI_THREAD_MULTIPLE by default.
    std::vector<trace::ObjId> locks;
    const char* site = nullptr;
  };

  void call(const CallSpec& spec) {
    trace::MpiCallInfo info;
    info.type = spec.type;
    info.peer = spec.peer;
    info.tag = spec.tag;
    info.comm = spec.comm;
    info.request = spec.request;
    info.on_main_thread = spec.on_main;
    info.provided = spec.provided;
    if (spec.site) info.callsite = log_.strings().intern(spec.site);

    trace::Event call;
    call.tid = spec.tid;
    call.rank = spec.rank;
    call.kind = EventKind::kMpiCall;
    call.locks_held = spec.locks;
    call.mpi = info;
    const trace::Seq seq = log_.emit(std::move(call));

    for (spec::MonitoredVar var : spec::monitored_vars_for(spec.type)) {
      trace::Event write;
      write.tid = spec.tid;
      write.rank = spec.rank;
      write.kind = EventKind::kMemWrite;
      write.obj = spec::monitored_var_id(spec.rank, var);
      write.aux = seq;
      write.locks_held = spec.locks;
      log_.emit(std::move(write));
    }
  }

  void event(trace::Tid tid, EventKind kind, trace::ObjId obj) {
    trace::Event e;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    log_.emit(std::move(e));
  }

  void barrier(std::initializer_list<trace::Tid> tids, trace::ObjId id) {
    for (trace::Tid tid : tids) {
      trace::Event e;
      e.tid = tid;
      e.kind = EventKind::kBarrier;
      e.obj = id;
      e.aux = tids.size();
      log_.emit(std::move(e));
    }
  }

  trace::TraceLog log_;
};

// The HB configuration the default (kHybrid) RaceDetector runs with.
detect::HappensBeforeConfig default_hb_config() {
  detect::HappensBeforeConfig cfg;
  cfg.lock_edges = false;
  return cfg;
}

const spec::Violation* find_violation(const std::vector<spec::Violation>& vs,
                                      spec::ViolationType type) {
  for (const spec::Violation& v : vs) {
    if (v.type == type) return &v;
  }
  return nullptr;
}

/// Build + return the certificate of a trace's kConcurrentRecv finding,
/// together with everything the verifier needs.
struct Built {
  Certificate cert;
  std::vector<trace::Event> events;
  trace::StringTable* strings = nullptr;
};

Built build_recv_certificate(TraceBuilder& tb) {
  detect::RaceDetector detector;
  const detect::ConcurrencyReport report =
      detector.analyze(tb.log_.sorted_events());
  spec::Matcher matcher(&tb.log_.strings());
  const auto violations = matcher.match(report);
  const spec::Violation* v =
      find_violation(violations, spec::ViolationType::kConcurrentRecv);
  EXPECT_NE(v, nullptr) << "trace must produce a ConcurrentRecv finding";
  Built built;
  built.strings = &tb.log_.strings();
  built.events = tb.log_.sorted_events();
  if (v) {
    built.cert = build_certificate(report.hb(), *v, built.strings);
  }
  return built;
}

bool verify(const Built& b, const Certificate& cert, std::string* why = nullptr) {
  return verify_certificate(cert, b.events, b.strings, default_hb_config(), why);
}

/// Two unordered same-(source,tag,comm) receives with no synchronization at
/// all between the threads.
void unsynchronized_recvs(TraceBuilder& tb) {
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5,
           .site = "prov.r1"});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5,
           .site = "prov.r2"});
}

/// Both threads pass a barrier first, then receive concurrently: the
/// destination *has* synchronized with the source thread (dst_view > 0), so
/// the witness must carry a non-empty chain through the barrier edge.
void barrier_then_recvs(TraceBuilder& tb) {
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 1, .peer = 1, .tag = 0,
           .site = "prov.s1"});
  tb.barrier({1, 2}, 99);
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5,
           .site = "prov.r1"});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5,
           .site = "prov.r2"});
}

/// Forks t1..t3; t1 and t2 pass barrier 900 and t2 receives after it; t0
/// joins t1, then t3 (which never arrived), then receives.  t0 learns t2's
/// arrival only through the barrier fan-out into join(t1).
void barrier_then_join_recvs(TraceBuilder& tb) {
  for (trace::Tid child : {1, 2, 3}) {
    tb.event(0, EventKind::kThreadFork, static_cast<trace::ObjId>(child));
  }
  tb.barrier({1, 2}, 900);
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5,
           .site = "prov.r2"});
  tb.event(0, EventKind::kThreadJoin, 1);
  tb.event(0, EventKind::kThreadJoin, 3);
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 0, .peer = 2, .tag = 5,
           .site = "prov.r0"});
}

// --------------------------------------------------------- build + verify

TEST(Certificate, BuildsAndVerifiesUnsynchronizedRecvs) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  EXPECT_TRUE(b.cert.has_pair);
  EXPECT_TRUE(b.cert.hb_unordered);
  EXPECT_TRUE(b.cert.disjoint_locks);
  // Neither thread ever learned of the other: both views are zero and the
  // chains are empty.
  EXPECT_EQ(b.cert.w12.dst_view, 0u);
  EXPECT_EQ(b.cert.w21.dst_view, 0u);
  EXPECT_TRUE(b.cert.w12.chain.empty());
  EXPECT_TRUE(b.cert.w21.chain.empty());
  EXPECT_GT(b.cert.w12.src_own, b.cert.w12.dst_view);
  EXPECT_GT(b.cert.w21.src_own, b.cert.w21.dst_view);
  EXPECT_FALSE(b.cert.context1.empty());

  std::string why;
  EXPECT_TRUE(verify(b, b.cert, &why)) << why;
}

TEST(Certificate, WitnessChainCrossesBarrier) {
  TraceBuilder tb;
  barrier_then_recvs(tb);
  const Built b = build_recv_certificate(tb);
  EXPECT_TRUE(b.cert.hb_unordered);
  // At least one direction saw the other thread through the barrier: its
  // view is nonzero and the chain that carried it is non-empty and ends in
  // a barrier hop.
  const NonOrderWitness& w =
      b.cert.w12.dst_view > 0 ? b.cert.w12 : b.cert.w21;
  ASSERT_GT(w.dst_view, 0u);
  ASSERT_FALSE(w.chain.empty());
  EXPECT_NE(w.frontier, 0u);
  const bool has_barrier_hop = std::any_of(
      w.chain.begin(), w.chain.end(),
      [](const ChainLink& l) { return l.edge == EdgeKind::kBarrier; });
  EXPECT_TRUE(has_barrier_hop);

  std::string why;
  EXPECT_TRUE(verify(b, b.cert, &why)) << why;
}

TEST(Certificate, WitnessChainEntersAJoinThroughABarrier) {
  TraceBuilder tb;
  barrier_then_join_recvs(tb);
  const Built b = build_recv_certificate(tb);
  ASSERT_TRUE(b.cert.hb_unordered);
  const NonOrderWitness& w =
      b.cert.w12.dst_view > 0 ? b.cert.w12 : b.cert.w21;
  ASSERT_GT(w.dst_view, 0u);
  // t2's arrival -[barrier]-> join(t1) -> join(t3) -> t0's receive.
  ASSERT_EQ(w.chain.size(), 3u);
  EXPECT_EQ(w.chain.front().edge, EdgeKind::kBarrier);
  std::string why;
  EXPECT_TRUE(verify(b, b.cert, &why)) << why;
}

TEST(Certificate, HumanRenderingNamesTheKey) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  const std::string text = b.cert.to_string();
  EXPECT_NE(text.find("Causal chain for " + b.cert.key), std::string::npos);
  EXPECT_NE(text.find("prov.r1"), std::string::npos);
  EXPECT_NE(text.find("prov.r2"), std::string::npos);
}

// ------------------------------------------------------ adversarial checks

TEST(CertificateAdversarial, RejectsSwappedEndpoints) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  Certificate forged = b.cert;
  std::swap(forged.e1, forged.e2);
  std::string why;
  EXPECT_FALSE(verify(b, forged, &why));
  EXPECT_FALSE(why.empty());
}

TEST(CertificateAdversarial, RejectsDroppedChainLink) {
  TraceBuilder tb;
  barrier_then_recvs(tb);
  const Built b = build_recv_certificate(tb);
  Certificate forged = b.cert;
  NonOrderWitness& w = forged.w12.dst_view > 0 ? forged.w12 : forged.w21;
  ASSERT_FALSE(w.chain.empty());
  w.chain.pop_back();
  std::string why;
  EXPECT_FALSE(verify(b, forged, &why));
  EXPECT_FALSE(why.empty());
}

TEST(CertificateAdversarial, RejectsForgedLockset) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  Certificate forged = b.cert;
  forged.e1.locks.push_back(0x1000);  // claim a lock the event never held.
  std::string why;
  EXPECT_FALSE(verify(b, forged, &why));
  EXPECT_NE(why.find("lock"), std::string::npos) << why;
}

TEST(CertificateAdversarial, RejectsTamperedStampInequality) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  {
    Certificate forged = b.cert;
    forged.w12.dst_view += 1;  // pretend dst saw more than it did.
    EXPECT_FALSE(verify(b, forged));
  }
  {
    Certificate forged = b.cert;
    forged.e1.stamp_own += 7;  // inflate the endpoint's own clock.
    EXPECT_FALSE(verify(b, forged));
  }
}

TEST(CertificateAdversarial, RejectsTamperedFrontier) {
  TraceBuilder tb;
  barrier_then_recvs(tb);
  const Built b = build_recv_certificate(tb);
  Certificate forged = b.cert;
  NonOrderWitness& w = forged.w12.dst_view > 0 ? forged.w12 : forged.w21;
  ASSERT_NE(w.frontier, 0u);
  w.frontier = w.dst;  // point the frontier at the wrong event.
  std::string why;
  EXPECT_FALSE(verify(b, forged, &why));
  EXPECT_FALSE(why.empty());
}

TEST(CertificateAdversarial, RejectsBarrierLinkIntoANonParticipantsJoin) {
  TraceBuilder tb;
  barrier_then_join_recvs(tb);
  const Built b = build_recv_certificate(tb);
  Certificate forged = b.cert;
  NonOrderWitness& w = forged.w12.dst_view > 0 ? forged.w12 : forged.w21;
  ASSERT_EQ(w.chain.size(), 3u);
  // Skip join(t1): a barrier hop straight into join(t3).  It is still
  // HB-ordered, but neither t0 nor t3 arrived at the barrier.
  w.chain = {ChainLink{w.chain[0].from, w.chain[1].to, EdgeKind::kBarrier},
             w.chain[2]};
  std::string why;
  EXPECT_FALSE(verify(b, forged, &why));
  EXPECT_NE(why.find("never arrived"), std::string::npos) << why;
}

TEST(CertificateAdversarial, RejectsMismatchedKey) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  Certificate forged = b.cert;
  forged.key += "|forged";
  EXPECT_FALSE(verify(b, forged));
}

// ------------------------------------------------ witness edges == HB order

/// For every cross-thread pair i < j: shortest_chain(i, j) is non-empty iff
/// i happens-before j, it runs from i to j, and every hop passes the
/// verifier's link check against an independent replay.
void expect_chains_match_hb(const std::vector<trace::Event>& events,
                            const detect::HappensBeforeConfig& cfg,
                            const std::string& label) {
  const detect::HbIndex hb = detect::HappensBeforeAnalysis(cfg).run(events);
  const detect::HbIndex replay =
      detect::HappensBeforeAnalysis(cfg).run(events);
  std::set<std::tuple<trace::Seq, trace::Seq, EdgeKind>> verified;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[i].tid == events[j].tid) continue;
      const std::vector<ChainLink> chain = shortest_chain(hb, i, j);
      ASSERT_EQ(!chain.empty(), hb.ordered(i, j))
          << label << " pair (" << i << "," << j << ")";
      if (chain.empty()) continue;
      ASSERT_EQ(chain.front().from, events[i].seq) << label;
      ASSERT_EQ(chain.back().to, events[j].seq) << label;
      for (std::size_t k = 0; k < chain.size(); ++k) {
        if (k > 0) {
          ASSERT_EQ(chain[k - 1].to, chain[k].from) << label;
        }
        const ChainLink& link = chain[k];
        if (!verified.emplace(link.from, link.to, link.edge).second) continue;
        std::string why;
        ASSERT_TRUE(verify_link(replay, link, cfg, &why))
            << label << " link " << link.from << "->" << link.to << " ("
            << edge_kind_name(link.edge) << "): " << why;
      }
    }
  }
}

std::vector<detect::HappensBeforeConfig> both_lock_configs() {
  detect::HappensBeforeConfig off;
  detect::HappensBeforeConfig on;
  on.lock_edges = true;
  return {off, on};
}

class WitnessEdgesRandom : public ::testing::TestWithParam<int> {};

TEST_P(WitnessEdgesRandom, ChainsMatchHb) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::vector<trace::Event> plain = oracle::random_trace(seed);
  oracle::TraceBuilder tb;
  oracle::random_mpi_trace(seed, &tb);
  const std::vector<trace::Event> mpi = tb.events();
  for (const detect::HappensBeforeConfig& cfg : both_lock_configs()) {
    const std::string locks = cfg.lock_edges ? " locks" : "";
    expect_chains_match_hb(plain, cfg,
                           "random_trace " + std::to_string(seed) + locks);
    expect_chains_match_hb(mpi, cfg,
                           "random_mpi_trace " + std::to_string(seed) + locks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessEdgesRandom, ::testing::Range(0, 4));

/// One event per entry, seqs in order.
std::vector<trace::Event> sequence(
    std::initializer_list<std::tuple<trace::Tid, EventKind, trace::ObjId,
                                     std::uint64_t>> spec) {
  std::vector<trace::Event> events;
  for (const auto& [tid, kind, obj, aux] : spec) {
    trace::Event e;
    e.seq = events.size() + 1;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    e.aux = aux;
    events.push_back(std::move(e));
  }
  return events;
}

TEST(WitnessEdges, BarrierFanOutReachesTheJoinThatAbsorbsAParticipant) {
  const std::vector<trace::Event> events = sequence({
      {0, EventKind::kThreadFork, 1, 0},
      {0, EventKind::kThreadFork, 2, 0},
      {1, EventKind::kMemWrite, 100, 0},
      {2, EventKind::kMemWrite, 100, 0},
      {1, EventKind::kBarrier, 900, 2},
      {2, EventKind::kBarrier, 900, 2},
      {0, EventKind::kThreadJoin, 1, 0},
      {0, EventKind::kThreadJoin, 2, 0},
      {0, EventKind::kMemWrite, 100, 0},
  });
  const detect::HbIndex hb = detect::HappensBeforeAnalysis().run(events);
  // t2's write and arrival reach join(t1) only through t1's completion
  // fan-out, which join(t1) reads.
  for (const std::size_t src : {std::size_t{3}, std::size_t{5}}) {
    ASSERT_TRUE(hb.ordered(src, 6));
    EXPECT_FALSE(shortest_chain(hb, src, 6).empty()) << "from " << src;
  }
  for (const detect::HappensBeforeConfig& cfg : both_lock_configs()) {
    expect_chains_match_hb(events, cfg, "barrier then join");
  }
}

TEST(WitnessEdges, ForkReachesAJoinOfAChildThatNeverRan) {
  const std::vector<trace::Event> events = sequence({
      {0, EventKind::kMemWrite, 100, 0},
      {0, EventKind::kThreadFork, 1, 0},
      {2, EventKind::kThreadJoin, 1, 0},
      {2, EventKind::kMemWrite, 100, 0},
  });
  const detect::HbIndex hb = detect::HappensBeforeAnalysis().run(events);
  ASSERT_TRUE(hb.ordered(0, 3));
  const std::vector<ChainLink> chain = shortest_chain(hb, 1, 2);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain.front().edge, EdgeKind::kFork);
  expect_chains_match_hb(events, {}, "fork then join");
}

// ----------------------------------------------------------------- ddmin

explore::Schedule synthetic_schedule(int n) {
  explore::Schedule s;
  s.strategy = "synthetic";
  s.seed = 7;
  for (int i = 0; i < n; ++i) {
    explore::Decision d;
    d.kind = explore::HookKind::kWildcardPick;
    d.rank = 0;
    d.lane = 0;
    d.site = "ddmin.site";
    d.occurrence = static_cast<std::uint64_t>(i);
    d.is_pick = true;
    d.value = static_cast<std::uint64_t>(i);
    s.decisions.push_back(d);
  }
  return s;
}

bool contains_occurrence(const explore::Schedule& s, std::uint64_t occ) {
  for (const explore::Decision& d : s.decisions) {
    if (d.occurrence == occ) return true;
  }
  return false;
}

TEST(Minimize, DdminConvergesToTheCulpritPair) {
  explore::Schedule seed = synthetic_schedule(8);
  // A fault-sweep finding: its faults ride through every candidate as-is.
  seed.fault_spec.emplace();
  seed.fault_spec->rank_stall_p = 0.25;
  seed.fault_seed = 12;
  faults::FaultDecision fault;
  fault.kind = faults::FaultKind::kRankStall;
  fault.site = "ddmin.stall";
  fault.value = 30;
  seed.faults = {fault, fault};
  seed.faults[1].occurrence = 1;
  // Everything but the scheduling decisions, as text.
  auto all_but_decisions = [](explore::Schedule s) {
    s.decisions.clear();
    return s.to_string();
  };
  const std::string seed_rest = all_but_decisions(seed);
  int calls = 0;
  const MinimizeResult result = ddmin_schedule(
      seed,
      [&](const explore::Schedule& c) {
        ++calls;
        EXPECT_EQ(all_but_decisions(c), seed_rest);
        return contains_occurrence(c, 2) && contains_occurrence(c, 5);
      });
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.original_decisions, 8u);
  ASSERT_EQ(result.schedule.decisions.size(), 2u);
  EXPECT_TRUE(contains_occurrence(result.schedule, 2));
  EXPECT_TRUE(contains_occurrence(result.schedule, 5));
  EXPECT_EQ(all_but_decisions(result.schedule), seed_rest);
  EXPECT_EQ(result.replays, calls);
  EXPECT_GT(calls, 0);
}

TEST(Minimize, NonReproducingSeedReturnsUnverified) {
  const explore::Schedule seed = synthetic_schedule(4);
  const MinimizeResult result =
      ddmin_schedule(seed, [](const explore::Schedule&) { return false; });
  EXPECT_FALSE(result.verified);
  EXPECT_EQ(result.schedule.decisions.size(), seed.decisions.size());
  EXPECT_EQ(result.replays, 1);  // only the seed check was spent.
}

TEST(Minimize, AlwaysReproducingShrinksToEmpty) {
  const explore::Schedule seed = synthetic_schedule(5);
  const MinimizeResult result =
      ddmin_schedule(seed, [](const explore::Schedule&) { return true; });
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.schedule.decisions.empty());
}

TEST(Minimize, RespectsReplayBudget) {
  const explore::Schedule seed = synthetic_schedule(16);
  MinimizeOptions opts;
  opts.max_replays = 3;
  int calls = 0;
  const MinimizeResult result = ddmin_schedule(
      seed,
      [&](const explore::Schedule& c) {
        ++calls;
        return contains_occurrence(c, 11);
      },
      opts);
  EXPECT_LE(calls, 3);
  EXPECT_LE(result.replays, 3);
}

// ------------------------------------------------------- report + exports

TEST(Provenance, JsonNamesEveryCertificate) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  ProvenanceReport report;
  report.certificates.push_back(b.cert);
  report.verified = 1;
  const std::string json = provenance_json(report);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"certificates\""), std::string::npos);
  EXPECT_NE(json.find("\"witnesses\""), std::string::npos);
  EXPECT_NE(json.find("prov.r1"), std::string::npos);
  EXPECT_EQ(report.find(b.cert.key)->key, b.cert.key);
  EXPECT_EQ(report.find("no-such-key"), nullptr);
}

TEST(Provenance, FlowIdsAreStableAndNonZero) {
  const std::uint64_t a = flow_id_for_key("2|0|x|y|comm1");
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, flow_id_for_key("2|0|x|y|comm1"));
  EXPECT_NE(a, flow_id_for_key("2|0|x|y|comm2"));
}

TEST(Provenance, HtmlReportRendersCausalChain) {
  TraceBuilder tb;
  unsynchronized_recvs(tb);
  const Built b = build_recv_certificate(tb);
  ProvenanceReport report;
  report.certificates.push_back(b.cert);
  const FinalReport empty_final(std::vector<FinalEntry>{});
  const std::string html = render_html(empty_final, ReportStats{}, "test", &report);
  EXPECT_NE(html.find("Causal chain"), std::string::npos);
  EXPECT_NE(html.find("prov.r1"), std::string::npos);
  // Without a provenance report the section is absent.
  const std::string plain = render_html(empty_final, ReportStats{}, "test");
  EXPECT_EQ(plain.find("Causal chain"), std::string::npos);
}

// ------------------------------------------------- end-to-end (hidden app)

TEST(Sweep, SixteenSeedParanoidSweepCertifiesEveryFinding) {
  explore::SweepConfig cfg;
  cfg.nranks = apps::kHiddenRaceRanks;
  cfg.nthreads = 2;
  cfg.schedules = 16;
  cfg.base_seed = 1;
  cfg.strategy = explore::StrategyKind::kWildcardReorder;
  cfg.diagnose.enabled = true;
  cfg.diagnose.paranoid = true;
  cfg.minimize = true;
  explore::Sweeper sweeper(cfg);
  const auto rank_main = [](simmpi::Process& p) {
    apps::run_hidden_race_rank(p);
  };
  const explore::SweepResult result = sweeper.run(rank_main);

  ASSERT_FALSE(result.findings.empty());
  EXPECT_GT(result.certificates, 0u);
  EXPECT_EQ(result.certificates_verified, result.certificates);
  EXPECT_TRUE(result.certificate_failures.empty())
      << result.certificate_failures.front();

  for (const explore::SweepFinding& f : result.findings) {
    ASSERT_NE(f.certificate, nullptr) << f.key;
    EXPECT_EQ(f.certificate->key, f.key);
    if (f.schedule_index >= 0 && !f.schedule.empty()) {
      // Every exploration finding's ddmin result replayed to the same key.
      EXPECT_TRUE(f.minimized_verified) << f.key;
      EXPECT_LE(f.minimized.decisions.size(), f.schedule.decisions.size());
      // And an independent replay of the minimized schedule agrees.
      const std::set<std::string> keys = sweeper.replay(f.minimized, rank_main);
      EXPECT_EQ(keys.count(f.key), 1u) << f.key;
    }
  }
}

TEST(Apps, PaperInjectionConfigsCertifyUnderParanoid) {
  for (apps::AppKind kind :
       {apps::AppKind::kLU, apps::AppKind::kBT, apps::AppKind::kSP}) {
    const apps::AppConfig app = apps::paper_config(kind, 2, 2);
    CheckConfig cfg;
    cfg.nranks = app.nranks;
    cfg.nthreads = app.nthreads;
    cfg.session.diagnose.enabled = true;
    cfg.session.diagnose.paranoid = true;
    const CheckResult result = check_program(
        cfg, [&](simmpi::Process& p) { apps::run_app_rank(app, p); });
    ASSERT_FALSE(result.report.violations().empty())
        << static_cast<int>(kind);
    EXPECT_EQ(result.provenance.certificates.size(),
              result.report.violations().size())
        << static_cast<int>(kind);
    ASSERT_TRUE(result.provenance.verify_failures.empty())
        << result.provenance.verify_failures.front();
    EXPECT_EQ(result.provenance.verified,
              result.provenance.certificates.size())
        << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace home::diagnose
