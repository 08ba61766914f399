// Tests for the static MHP + lockset dataflow engine (src/sast/mhp.*):
// barrier-phase separation, nested regions, worksharing nowait, one-thread
// constructs, interprocedural context propagation (locks / master /
// recursion), plan pruning driven by the engine, and — the safety net — a
// randomized consistency check of the computed facts against brute-force
// path enumeration over the CFG.
//
// The anticipation suite at the bottom mirrors the seeded violation classes
// of tests/home_integration_test.cpp: each dynamic violation class has a
// C-source analogue here that the static engine must warn about, and a
// repaired twin that must produce zero definite warnings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/sast/analysis.hpp"
#include "src/sast/cfg.hpp"
#include "src/sast/diagnostics.hpp"
#include "src/sast/mhp.hpp"
#include "src/sast/parser.hpp"
#include "src/sast/static_lockset.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"

namespace {

using namespace home;
using namespace home::sast;

/// n-th call site (0-based) of `routine`, in source order.
const MpiCallSite* find_site(const AnalysisResult& result,
                             const std::string& routine, int nth = 0) {
  for (const auto& site : result.calls) {
    if (site.routine != routine) continue;
    if (nth-- == 0) return &site;
  }
  return nullptr;
}

const FunctionFacts& facts_of(const AnalysisResult& result,
                              const MpiCallSite& site) {
  return result.facts.functions.at(static_cast<std::size_t>(site.fn_index));
}

bool has_class(const std::vector<StaticWarning>& warnings, WarningClass cls) {
  for (const auto& w : warnings) {
    if (w.cls == cls) return true;
  }
  return false;
}

bool has_definite(const std::vector<StaticWarning>& warnings,
                  WarningClass cls) {
  for (const auto& w : warnings) {
    if (w.cls == cls && w.severity == Severity::kDefinite) return true;
  }
  return false;
}

std::size_t definite_count(const std::vector<StaticWarning>& warnings) {
  std::size_t n = 0;
  for (const auto& w : warnings) {
    if (w.severity == Severity::kDefinite) ++n;
  }
  return n;
}

std::string warnings_dump(const std::vector<StaticWarning>& warnings) {
  std::ostringstream os;
  for (const auto& w : warnings) os << "  " << w.to_string() << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Barrier phases.

TEST(MhpPhases, BarrierSeparatesSites) {
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
    #pragma omp barrier
    MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st);
  }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);

  ASSERT_EQ(send->fn_index, recv->fn_index);
  EXPECT_FALSE(ff.mhp(send->node_id, recv->node_id));
  // Ignoring barrier separation the two sites ARE parallel — that is exactly
  // what the prune-reason attribution relies on.
  EXPECT_TRUE(ff.mhp(send->node_id, recv->node_id, /*use_phases=*/false));

  const int region = ff.at(send->node_id).region_chain.back();
  const PhaseInterval& p_send = ff.at(send->node_id).phases.at(region);
  const PhaseInterval& p_recv = ff.at(recv->node_id).phases.at(region);
  EXPECT_EQ(p_send.min, 0);
  EXPECT_EQ(p_send.max, 0);
  EXPECT_EQ(p_recv.min, 1);
  EXPECT_EQ(p_recv.max, 1);
  EXPECT_FALSE(p_recv.unbounded);
}

TEST(MhpPhases, ConditionalBarrierKeepsSitesParallel) {
  // The barrier executes only on one branch, so the phase interval of the
  // second site is [0,1] and overlaps the first site's [0,0].
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
    if (x > 0) {
      #pragma omp barrier
    }
    MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st);
  }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);

  const int region = ff.at(recv->node_id).region_chain.back();
  const PhaseInterval& p_recv = ff.at(recv->node_id).phases.at(region);
  EXPECT_EQ(p_recv.min, 0);
  EXPECT_EQ(p_recv.max, 1);
  EXPECT_TRUE(ff.mhp(send->node_id, recv->node_id));
}

TEST(MhpPhases, BarrierInLoopWidensToUnbounded) {
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
    while (x > 0) {
      #pragma omp barrier
      x = x - 1;
    }
    MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st);
  }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);

  const int region = ff.at(recv->node_id).region_chain.back();
  const PhaseInterval& p_recv = ff.at(recv->node_id).phases.at(region);
  EXPECT_EQ(p_recv.min, 0);  // zero-iteration path
  EXPECT_TRUE(p_recv.unbounded);
  // Unbounded phase overlaps everything: separation is unprovable.
  EXPECT_TRUE(ff.mhp(send->node_id, recv->node_id));
}

TEST(MhpPhases, WorksharingImpliedBarrierSeparates) {
  // `omp for` without nowait has an implied barrier at its end; with nowait
  // the barrier disappears and the sites stay may-happen-in-parallel.
  const char* with_nowait = R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp for nowait
    for (i = 0; i < n; i = i + 1) {
      MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
    }
    MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st);
  }
}
)";
  const char* without_nowait = R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp for
    for (i = 0; i < n; i = i + 1) {
      MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
    }
    MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st);
  }
}
)";
  {
    const auto result = analyze_source(with_nowait);
    const MpiCallSite* send = find_site(result, "MPI_Send");
    const MpiCallSite* recv = find_site(result, "MPI_Recv");
    ASSERT_NE(send, nullptr);
    ASSERT_NE(recv, nullptr);
    EXPECT_TRUE(
        facts_of(result, *send).mhp(send->node_id, recv->node_id))
        << "nowait removes the implied barrier";
  }
  {
    const auto result = analyze_source(without_nowait);
    const MpiCallSite* send = find_site(result, "MPI_Send");
    const MpiCallSite* recv = find_site(result, "MPI_Recv");
    ASSERT_NE(send, nullptr);
    ASSERT_NE(recv, nullptr);
    EXPECT_FALSE(
        facts_of(result, *send).mhp(send->node_id, recv->node_id))
        << "implied barrier at the end of omp for separates the sites";
  }
}

TEST(MhpPhases, SingleNowaitStaysConcurrent) {
  const char* tmpl = R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp single%s
    { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
    #pragma omp single
    { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
  }
}
)";
  char with_nowait[512], without_nowait[512];
  std::snprintf(with_nowait, sizeof(with_nowait), tmpl, " nowait");
  std::snprintf(without_nowait, sizeof(without_nowait), tmpl, "");
  {
    const auto result = analyze_source(with_nowait);
    const MpiCallSite* send = find_site(result, "MPI_Send");
    const MpiCallSite* recv = find_site(result, "MPI_Recv");
    ASSERT_NE(send, nullptr);
    ASSERT_NE(recv, nullptr);
    // Distinct singles, no barrier between them: one thread may still be in
    // the first single while another runs the second.
    EXPECT_TRUE(facts_of(result, *send).mhp(send->node_id, recv->node_id));
  }
  {
    const auto result = analyze_source(without_nowait);
    const MpiCallSite* send = find_site(result, "MPI_Send");
    const MpiCallSite* recv = find_site(result, "MPI_Recv");
    ASSERT_NE(send, nullptr);
    ASSERT_NE(recv, nullptr);
    EXPECT_FALSE(facts_of(result, *send).mhp(send->node_id, recv->node_id));
  }
}

// ---------------------------------------------------------------------------
// Region structure.

TEST(MhpRegions, NestedParallelRegions) {
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp parallel
    {
      MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
      #pragma omp barrier
    }
    MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st);
  }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);

  EXPECT_EQ(ff.at(send->node_id).region_chain.size(), 2u);
  EXPECT_EQ(ff.at(recv->node_id).region_chain.size(), 1u);
  // The barrier belongs to the inner region only — it does not order the
  // outer region's sites, which share the outer region and stay parallel.
  EXPECT_TRUE(ff.mhp(send->node_id, recv->node_id));
}

TEST(MhpRegions, SequentialTopLevelRegionsDoNotOverlap) {
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
  #pragma omp parallel
  { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);
  // No common enclosing region: the first region joins before the second
  // forks.
  EXPECT_FALSE(ff.mhp(send->node_id, recv->node_id));
}

TEST(MhpRegions, MasterBodiesAreSerialized) {
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp master
    { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
    #pragma omp master
    { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
  }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);
  EXPECT_TRUE(ff.at(send->node_id).in_master);
  EXPECT_TRUE(ff.at(recv->node_id).in_master);
  // Both bodies run on the master thread — same thread, never concurrent
  // (master has no implied barrier, so phases alone would not prove this).
  EXPECT_FALSE(ff.mhp(send->node_id, recv->node_id));
  EXPECT_FALSE(ff.self_mhp(send->node_id));
}

TEST(MhpRegions, SectionsArePairwiseConcurrentButNotSelfConcurrent) {
  const auto result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp sections
    {
      #pragma omp section
      { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
      #pragma omp section
      { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
    }
  }
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  const FunctionFacts& ff = facts_of(result, *send);
  EXPECT_TRUE(ff.at(send->node_id).in_section);
  // Different sections go to different threads — concurrent with each other,
  // but each section body executes on one thread only.
  EXPECT_TRUE(ff.mhp(send->node_id, recv->node_id));
  EXPECT_FALSE(ff.self_mhp(send->node_id));
  EXPECT_FALSE(ff.self_mhp(recv->node_id));
}

// ---------------------------------------------------------------------------
// Interprocedural contexts.

TEST(MhpInterprocedural, ContextLocksReachCallees) {
  const auto result = analyze_source(R"(
void helper() {
  MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);
}
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp critical(net)
    { helper(); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  ASSERT_NE(send, nullptr);
  EXPECT_TRUE(send->in_parallel);
  EXPECT_EQ(send->locks.count("net"), 1u)
      << "caller-held critical lock must flow into the callee";
  EXPECT_TRUE(send->pruned);
  EXPECT_NE(send->prune_reason.find("critical-guarded"), std::string::npos)
      << send->prune_reason;
}

TEST(MhpInterprocedural, MasterContextReachesCallees) {
  const auto result = analyze_source(R"(
void reduce_step() {
  MPI_Allreduce(&a, &b, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
}
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_FUNNELED, &provided);
  #pragma omp parallel
  {
    #pragma omp master
    { reduce_step(); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* site = find_site(result, "MPI_Allreduce");
  ASSERT_NE(site, nullptr);
  EXPECT_TRUE(site->in_master);
  EXPECT_TRUE(site->pruned);
  EXPECT_NE(site->prune_reason.find("master"), std::string::npos)
      << site->prune_reason;

  const auto warnings = diagnose(result);
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(MhpInterprocedural, MutualRecursionConverges) {
  const auto result = analyze_source(R"(
void ping(int n) {
  if (n > 0) { pong(n); }
  MPI_Send(&a, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
}
void pong(int n) {
  ping(n - 1);
}
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  { ping(3); }
  MPI_Finalize();
  return 0;
}
)");
  ASSERT_EQ(result.facts.contexts.count("ping"), 1u);
  ASSERT_EQ(result.facts.contexts.count("pong"), 1u);
  EXPECT_TRUE(result.facts.contexts.at("ping").recursive);
  EXPECT_TRUE(result.facts.contexts.at("pong").recursive);
  EXPECT_TRUE(result.facts.contexts.at("ping").may_parallel);

  const MpiCallSite* send = find_site(result, "MPI_Send");
  ASSERT_NE(send, nullptr);
  EXPECT_TRUE(send->in_parallel);
  EXPECT_FALSE(send->pruned) << send->prune_reason;
  EXPECT_EQ(result.plan.instrument.count(send->label), 1u);
}

TEST(MhpInterprocedural, RecursionUnderCriticalKeepsEntryLock) {
  // rec() is reachable only through the critical(net) call site (including
  // through its own self-call), so the entry-lock meet over the cycle must
  // converge to {net} and the send is provably guarded.
  const auto result = analyze_source(R"(
void rec(int n) {
  MPI_Send(&a, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
  if (n > 0) { rec(n - 1); }
}
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp critical(net)
    { rec(3); }
  }
  MPI_Finalize();
  return 0;
}
)");
  ASSERT_EQ(result.facts.contexts.count("rec"), 1u);
  EXPECT_TRUE(result.facts.contexts.at("rec").recursive);

  const MpiCallSite* send = find_site(result, "MPI_Send");
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->locks.count("net"), 1u);
  EXPECT_TRUE(send->pruned);
  EXPECT_NE(send->prune_reason.find("critical-guarded"), std::string::npos)
      << send->prune_reason;
}

// ---------------------------------------------------------------------------
// Unnamed criticals (one global lock per the OpenMP spec).

TEST(UnnamedCritical, TwoUnnamedRegionsShareOneLock) {
  const auto result = analyze_source(R"(
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  MPI_Irecv(&buf, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, &req);
  #pragma omp parallel
  {
    #pragma omp critical
    { MPI_Wait(&req, MPI_STATUS_IGNORE); }
    #pragma omp critical
    { MPI_Test(&req, &flag, MPI_STATUS_IGNORE); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* wait = find_site(result, "MPI_Wait");
  const MpiCallSite* test = find_site(result, "MPI_Test");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(test, nullptr);

  EXPECT_EQ(wait->locks, std::set<std::string>{kUnnamedCriticalLock});
  EXPECT_EQ(test->locks, std::set<std::string>{kUnnamedCriticalLock});

  // Same canonical lock on both sides ⇒ serialized, pruned, and no
  // concurrent-request warning on the shared request.
  const FunctionFacts& ff = facts_of(result, *wait);
  EXPECT_TRUE(ff.mhp(wait->node_id, test->node_id))
      << "distinct criticals are still MHP...";
  EXPECT_FALSE(ff.mhp_unguarded(wait->node_id, test->node_id))
      << "...but the shared unnamed lock serializes them";
  EXPECT_TRUE(wait->pruned);
  EXPECT_TRUE(test->pruned);

  const auto warnings = diagnose(result);
  EXPECT_FALSE(has_class(warnings, WarningClass::kConcurrentRequest))
      << warnings_dump(warnings);
}

// ---------------------------------------------------------------------------
// Plan pruning.

TEST(PlanPruning, BarrierSeparatedSitesArePruned) {
  const auto result = analyze_source(R"(
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp single
    { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
    #pragma omp single
    { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_TRUE(send->pruned);
  EXPECT_TRUE(recv->pruned);
  // The implied barrier of the first single is the strongest proof and must
  // win the reason attribution over the single construct itself.
  EXPECT_EQ(send->prune_reason, "barrier-separated") << send->prune_reason;
  EXPECT_EQ(result.plan.instrumented_calls, 0u);
  EXPECT_EQ(result.plan.pruned_calls, 2u);
  EXPECT_EQ(result.plan.pruned.count(send->label), 1u);
}

TEST(PlanPruning, FunneledPrunesOnlyMasterSites) {
  // The barrier separates the two sites, so each is individually race-free;
  // under FUNNELED only the *master* one may be pruned — a single still runs
  // on an arbitrary thread, which FUNNELED does not permit.
  const auto result = analyze_source(R"(
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_FUNNELED, &provided);
  #pragma omp parallel
  {
    #pragma omp master
    { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
    #pragma omp barrier
    #pragma omp single
    { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  const MpiCallSite* recv = find_site(result, "MPI_Recv");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_TRUE(send->pruned) << "race-free master site is safe under FUNNELED";
  EXPECT_FALSE(recv->pruned)
      << "a single is NOT the master thread — under FUNNELED it stays "
         "instrumented (and warned about)";
}

TEST(PlanPruning, FunneledMasterWithRacingPeerStaysInstrumented) {
  // Without the barrier the single-recv may run concurrently with the
  // master-send on another thread — the master site is no longer provably
  // safe and must stay instrumented.
  const auto result = analyze_source(R"(
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_FUNNELED, &provided);
  #pragma omp parallel
  {
    #pragma omp master
    { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
    #pragma omp single nowait
    { MPI_Recv(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD, &st); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  ASSERT_NE(send, nullptr);
  EXPECT_FALSE(send->pruned);
}

TEST(PlanPruning, PlainInitNeverPrunes) {
  const auto result = analyze_source(R"(
int main() {
  MPI_Init(0, 0);
  #pragma omp parallel
  {
    #pragma omp critical(net)
    { MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* send = find_site(result, "MPI_Send");
  ASSERT_NE(send, nullptr);
  // MPI_THREAD_SINGLE promises nothing — even a critical-guarded site must
  // stay instrumented.
  EXPECT_FALSE(send->pruned);
  EXPECT_EQ(result.plan.pruned_calls, 0u);
}

// ---------------------------------------------------------------------------
// Randomized consistency: facts vs brute-force path enumeration.

struct PathObs {
  std::vector<std::set<std::string>> lock_sets;
  std::vector<int> barrier_counts;
};

bool implied_barrier_node(const CfgNode& node) {
  if (node.kind == CfgNodeKind::kOmpBarrier) return true;
  if (node.kind != CfgNodeKind::kOmpWorksharingEnd) return false;
  if (node.label != "for" && node.label != "sections" &&
      node.label != "single") {
    return false;
  }
  return node.stmt == nullptr || node.stmt->clauses.count("nowait") == 0;
}

/// DFS over the CFG with a per-node revisit cap, recording the in-state
/// (held locks, barriers crossed since region entry) at every node reached
/// while inside the parallel region.  Mirrors the dataflow transfer
/// functions exactly: locks change on the way OUT of critical begin/end
/// nodes, the barrier count increments on the way OUT of barrier nodes.
void enumerate_paths(const Cfg& cfg, int node, std::vector<int>& visits,
                     const std::set<std::string>& locks, int barriers,
                     bool in_region, std::map<int, PathObs>& obs,
                     long& budget) {
  if (budget-- <= 0) return;
  if (visits[static_cast<std::size_t>(node)] >= 3) return;
  ++visits[static_cast<std::size_t>(node)];

  const CfgNode& n = cfg.node(node);
  if (in_region) {
    obs[node].lock_sets.push_back(locks);
    obs[node].barrier_counts.push_back(barriers);
  }

  bool next_in_region = in_region;
  int next_barriers = barriers;
  std::set<std::string> next_locks = locks;
  switch (n.kind) {
    case CfgNodeKind::kOmpParallelBegin:
      next_in_region = true;
      next_barriers = 0;
      break;
    case CfgNodeKind::kOmpParallelEnd:
      next_in_region = false;
      break;
    case CfgNodeKind::kOmpCriticalBegin:
      next_locks.insert(canonical_critical_name(n.label));
      break;
    case CfgNodeKind::kOmpCriticalEnd:
      next_locks.erase(canonical_critical_name(n.label));
      break;
    default:
      break;
  }
  if (in_region && implied_barrier_node(n)) ++next_barriers;

  for (int succ : n.succs) {
    enumerate_paths(cfg, succ, visits, next_locks, next_barriers,
                    next_in_region, obs, budget);
  }
  --visits[static_cast<std::size_t>(node)];
}

/// Random structured body: plain statements, MPI calls, barriers, criticals
/// (named and unnamed), singles (with/without nowait), if/else, and — when
/// `allow_loops` — while loops.
std::string gen_block(util::Rng& rng, int depth, bool allow_loops) {
  std::ostringstream os;
  const int items = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < items; ++i) {
    const int max_kind = depth >= 3 ? 3 : (allow_loops ? 7 : 6);
    switch (rng.next_below(static_cast<std::uint64_t>(max_kind))) {
      case 0:
        os << "a = a + 1;\n";
        break;
      case 1:
        os << "#pragma omp barrier\n";
        break;
      case 2:
        os << "MPI_Send(&a, 1, MPI_INT, 1, 7, MPI_COMM_WORLD);\n";
        break;
      case 3: {
        const std::uint64_t lock = rng.next_below(3);
        if (lock == 2) {
          os << "#pragma omp critical\n";
        } else {
          os << "#pragma omp critical(l" << lock << ")\n";
        }
        os << "{\n" << gen_block(rng, depth + 1, allow_loops) << "}\n";
        break;
      }
      case 4:
        os << "#pragma omp single" << (rng.next_bool() ? " nowait" : "")
           << "\n{\n" << gen_block(rng, depth + 1, allow_loops) << "}\n";
        break;
      case 5:
        os << "if (a > " << rng.next_below(10) << ") {\n"
           << gen_block(rng, depth + 1, allow_loops) << "}";
        if (rng.next_bool()) {
          os << " else {\n" << gen_block(rng, depth + 1, allow_loops) << "}";
        }
        os << "\n";
        break;
      default:
        os << "while (a < " << rng.next_below(10) << ") {\n"
           << gen_block(rng, depth + 1, allow_loops) << "}\n";
        break;
    }
  }
  return os.str();
}

std::string gen_program(util::Rng& rng, bool allow_loops) {
  return "void kernel() {\n#pragma omp parallel\n{\n" +
         gen_block(rng, 1, allow_loops) + "}\n}\n";
}

/// Checks the engine's facts for one random program against brute-force
/// enumeration.  `exact` additionally requires equality (valid for loop-free
/// programs, where the enumeration covers every path).
void check_against_enumeration(const std::string& source, bool exact) {
  SCOPED_TRACE(source);
  TranslationUnit unit = parse(source);
  ASSERT_TRUE(unit.errors.empty()) << util::join(unit.errors, "; ");
  ASSERT_EQ(unit.functions.size(), 1u);

  std::vector<Cfg> cfgs;
  cfgs.push_back(build_cfg(unit.functions[0]));
  const ProgramFacts pf = compute_program_facts(unit, cfgs);
  const Cfg& cfg = cfgs[0];
  const FunctionFacts& ff = pf.functions.at(0);

  int region = -1;
  for (const CfgNode& n : cfg.nodes()) {
    if (n.kind == CfgNodeKind::kOmpParallelBegin) region = n.id;
  }
  ASSERT_GE(region, 0);

  std::map<int, PathObs> obs;
  std::vector<int> visits(cfg.nodes().size(), 0);
  long budget = 2000000;
  enumerate_paths(cfg, cfg.entry(), visits, {}, 0, false, obs, budget);
  ASSERT_GT(budget, 0) << "enumeration budget exhausted — shrink generator";

  for (const auto& [node, seen] : obs) {
    const NodeFacts& nf = ff.at(node);
    EXPECT_TRUE(nf.reachable) << "node " << node << " observed on a path";

    // Must-locks ⊆ every observed lock set; exact = equals the intersection.
    std::set<std::string> intersection = seen.lock_sets.front();
    for (const auto& path_locks : seen.lock_sets) {
      EXPECT_TRUE(std::includes(path_locks.begin(), path_locks.end(),
                                nf.locks.begin(), nf.locks.end()))
          << "node " << node << ": computed must-lockset not held on a path";
      std::set<std::string> next;
      std::set_intersection(intersection.begin(), intersection.end(),
                            path_locks.begin(), path_locks.end(),
                            std::inserter(next, next.begin()));
      intersection = std::move(next);
    }
    if (exact) {
      EXPECT_EQ(nf.locks, intersection) << "node " << node;
    }

    // Every observed barrier count lies inside the phase interval; exact =
    // the interval is tight.
    const auto phase_it = nf.phases.find(region);
    if (phase_it == nf.phases.end()) continue;
    const PhaseInterval& pi = phase_it->second;
    int lo = seen.barrier_counts.front(), hi = seen.barrier_counts.front();
    for (int c : seen.barrier_counts) {
      EXPECT_GE(c, pi.min) << "node " << node;
      if (!pi.unbounded) {
        EXPECT_LE(c, pi.max) << "node " << node;
      }
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    if (exact) {
      EXPECT_EQ(pi.min, lo) << "node " << node;
      EXPECT_FALSE(pi.unbounded) << "node " << node;
      EXPECT_EQ(pi.max, hi) << "node " << node;
    }
  }
}

TEST(MhpRandomized, LoopFreeFactsAreExact) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    check_against_enumeration(gen_program(rng, /*allow_loops=*/false),
                              /*exact=*/true);
  }
}

TEST(MhpRandomized, LoopyFactsStayConservative) {
  for (std::uint64_t seed = 100; seed <= 140; ++seed) {
    util::Rng rng(seed);
    check_against_enumeration(gen_program(rng, /*allow_loops=*/true),
                              /*exact=*/false);
  }
}

// ---------------------------------------------------------------------------
// Anticipation: every seeded dynamic violation class of
// tests/home_integration_test.cpp has a source-level analogue the static
// engine must warn about; each repaired twin must yield zero definite
// warnings.

TEST(Anticipation, PlainInitWithParallelMpi) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init(&argc, &argv);
  #pragma omp parallel
  { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_definite(warnings, WarningClass::kInitialization))
      << warnings_dump(warnings);
}

TEST(Anticipation, FunneledNonMasterSend) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_FUNNELED, &provided);
  #pragma omp parallel
  { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_class(warnings, WarningClass::kInitialization))
      << warnings_dump(warnings);
}

TEST(Anticipation, FunneledMasterOnlyIsClean) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_FUNNELED, &provided);
  #pragma omp parallel
  {
    #pragma omp master
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(Anticipation, SerializedConcurrentCalls) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_SERIALIZED, &provided);
  #pragma omp parallel
  { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_class(warnings, WarningClass::kInitialization))
      << warnings_dump(warnings);
}

TEST(Anticipation, SerializedCriticalGuardedIsClean) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_SERIALIZED, &provided);
  #pragma omp parallel
  {
    #pragma omp critical(mpi)
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(Anticipation, FinalizeConcurrentWithSend) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
    MPI_Finalize();
  }
  return 0;
}
)");
  EXPECT_TRUE(has_definite(warnings, WarningClass::kFinalization))
      << warnings_dump(warnings);
}

TEST(Anticipation, FinalizeAfterJoinIsClean) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp critical(net)
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_FALSE(has_class(warnings, WarningClass::kFinalization))
      << warnings_dump(warnings);
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(Anticipation, ConcurrentRecvSameSourceAndTag) {
  // Figure 2 of the paper: the whole team posts identical receives.
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  { MPI_Recv(&b, 1, MPI_INT, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE); }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_definite(warnings, WarningClass::kConcurrentRecv))
      << warnings_dump(warnings);
}

TEST(Anticipation, ThreadDependentTagDemotesSeverity) {
  // The repaired Figure-2 program: per-thread tags.  "Same tag" reasoning
  // no longer holds, so no definite warning may survive.
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    int tag = omp_get_thread_num();
    MPI_Recv(&b, 1, MPI_INT, 0, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(Anticipation, SharedRequestWaitedByTeam) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  MPI_Irecv(&buf, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, &req);
  #pragma omp parallel
  { MPI_Wait(&req, MPI_STATUS_IGNORE); }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_definite(warnings, WarningClass::kConcurrentRequest))
      << warnings_dump(warnings);
}

TEST(Anticipation, SingleGuardedWaitIsClean) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  MPI_Irecv(&buf, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, &req);
  #pragma omp parallel
  {
    #pragma omp single
    { MPI_Wait(&req, MPI_STATUS_IGNORE); }
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_FALSE(has_class(warnings, WarningClass::kConcurrentRequest))
      << warnings_dump(warnings);
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(Anticipation, ProbeRecvRace) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    MPI_Probe(0, 9, MPI_COMM_WORLD, &st);
    MPI_Recv(&a, 1, MPI_INT, 0, 9, MPI_COMM_WORLD, &st);
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_definite(warnings, WarningClass::kProbe))
      << warnings_dump(warnings);
}

TEST(Anticipation, CriticalGuardedProbeRecvIsClean) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp critical(probe)
    {
      MPI_Probe(0, 9, MPI_COMM_WORLD, &st);
      MPI_Recv(&a, 1, MPI_INT, 0, 9, MPI_COMM_WORLD, &st);
    }
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_FALSE(has_class(warnings, WarningClass::kProbe))
      << warnings_dump(warnings);
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

TEST(Anticipation, TeamExecutedCollective) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  { MPI_Barrier(MPI_COMM_WORLD); }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(has_definite(warnings, WarningClass::kCollectiveCall))
      << warnings_dump(warnings);
}

/// main() running `first` and `second` in two concurrent omp sections.
std::string two_sections(const std::string& first, const std::string& second) {
  return "int main() {\n"
         "  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);\n"
         "  #pragma omp parallel sections\n"
         "  {\n"
         "    #pragma omp section\n"
         "    { " + first + " }\n"
         "    #pragma omp section\n"
         "    { " + second + " }\n"
         "  }\n"
         "  MPI_Finalize();\n"
         "  return 0;\n"
         "}\n";
}

TEST(Anticipation, AllgatherAndScanPairsAreCollectiveCalls) {
  const std::string calls[] = {
      "MPI_Allgather(&a, 1, MPI_INT, b, 1, MPI_INT, MPI_COMM_WORLD);",
      "MPI_Scan(&a, &b, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);",
  };
  for (const std::string& call : calls) {
    const auto warnings = diagnose_source(two_sections(call, call));
    EXPECT_TRUE(has_definite(warnings, WarningClass::kCollectiveCall))
        << call << "\n" << warnings_dump(warnings);
  }
}

TEST(Anticipation, SendrecvPairMatchesOnItsReceiveHalf) {
  // Send half (dest 1, tag 5) differs between the two calls; the receive
  // half (source 0, tag 7) is the same, so the receives race.
  const auto warnings = diagnose_source(two_sections(
      "MPI_Sendrecv(&a, 1, MPI_INT, 1, 5, &b, 1, MPI_INT, 0, 7, "
      "MPI_COMM_WORLD, MPI_STATUS_IGNORE);",
      "MPI_Sendrecv(&a, 1, MPI_INT, 2, 6, &c, 1, MPI_INT, 0, 7, "
      "MPI_COMM_WORLD, MPI_STATUS_IGNORE);"));
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kConcurrentRecv) {
      found = true;
      EXPECT_NE(w.message.find("source=0 tag=7"), std::string::npos)
          << w.to_string();
    }
  }
  EXPECT_TRUE(found) << warnings_dump(warnings);
}

TEST(Anticipation, CommDupPairsCompareTheParentCommunicator) {
  // The last argument is the new communicator; the ranks meet on args[0].
  const auto same_parent = diagnose_source(
      two_sections("MPI_Comm_dup(MPI_COMM_WORLD, &left);",
                   "MPI_Comm_dup(MPI_COMM_WORLD, &right);"));
  EXPECT_TRUE(has_definite(same_parent, WarningClass::kCollectiveCall))
      << warnings_dump(same_parent);
  const auto distinct_parents = diagnose_source(
      two_sections("MPI_Comm_dup(comm_a, &out);", "MPI_Comm_dup(comm_b, &out);"));
  EXPECT_FALSE(has_class(distinct_parents, WarningClass::kCollectiveCall))
      << warnings_dump(distinct_parents);
}

TEST(Anticipation, SingleGuardedCollectiveIsClean) {
  const auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(&argc, &argv, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp single
    { MPI_Barrier(MPI_COMM_WORLD); }
  }
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_FALSE(has_class(warnings, WarningClass::kCollectiveCall))
      << warnings_dump(warnings);
  EXPECT_EQ(definite_count(warnings), 0u) << warnings_dump(warnings);
}

}  // namespace
