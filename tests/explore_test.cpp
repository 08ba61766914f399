// Exploration subsystem tests (ISSUE-7 acceptance):
//  * schedules round-trip through the text format,
//  * hooks are inert no-ops while no Explorer is bound,
//  * strategies are deterministic in their seed and diverge across seeds,
//  * replay feeds recorded decisions back at the recorded keys,
//  * the hidden-race corpus app's V3 is invisible to a single uncontrolled
//    run but found by a bounded seeded sweep, and
//  * replaying the finding's schedule reproduces the identical violation
//    key set, three times over, and
//  * a sweep, whose runs execute concurrently, folds them exactly like a
//    serial fold over one-schedule sweeps, and
//  * repeated sweeps reuse their threads, so span rings stop growing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/apps/hidden_race.hpp"
#include "src/explore/hooks.hpp"
#include "src/explore/schedule.hpp"
#include "src/explore/strategy.hpp"
#include "src/explore/sweeper.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/thread_pool.hpp"

namespace home::explore {
namespace {

const char kHiddenKey[] = "2|0|hidden.racy_recv|hidden.racy_recv|comm1";

Sweeper::RankMain hidden_main() {
  return [](simmpi::Process& p) { apps::run_hidden_race_rank(p); };
}

SweepConfig hidden_config(StrategyKind strategy, int schedules,
                          std::uint64_t base_seed = 1) {
  SweepConfig cfg;
  cfg.nranks = apps::kHiddenRaceRanks;
  cfg.nthreads = 2;
  cfg.schedules = schedules;
  cfg.base_seed = base_seed;
  cfg.strategy = strategy;
  return cfg;
}

// ----------------------------------------------------------- Schedule I/O

TEST(Schedule, TextRoundtrip) {
  Schedule s;
  s.strategy = "random_walk";
  s.seed = 42;
  Decision yield;
  yield.kind = HookKind::kBarrier;
  yield.rank = 1;
  yield.lane = 2;
  yield.site = "homp.barrier";
  yield.occurrence = 3;
  yield.is_pick = false;
  yield.value = 150;
  s.decisions.push_back(yield);
  Decision pick;
  pick.kind = HookKind::kWildcardPick;
  pick.rank = 0;
  pick.lane = 0;
  pick.site = "mailbox.wildcard";
  pick.occurrence = 0;
  pick.is_pick = true;
  pick.value = 1;
  s.decisions.push_back(pick);

  Schedule parsed;
  ASSERT_TRUE(Schedule::parse(s.to_string(), &parsed));
  EXPECT_EQ(parsed.strategy, s.strategy);
  EXPECT_EQ(parsed.seed, s.seed);
  ASSERT_EQ(parsed.decisions.size(), 2u);
  EXPECT_EQ(parsed.decisions[0].kind, HookKind::kBarrier);
  EXPECT_EQ(parsed.decisions[0].site, "homp.barrier");
  EXPECT_EQ(parsed.decisions[0].value, 150u);
  EXPECT_FALSE(parsed.decisions[0].is_pick);
  EXPECT_TRUE(parsed.decisions[1].is_pick);
  EXPECT_EQ(parsed.decisions[1].value, 1u);
}

TEST(Schedule, FileRoundtrip) {
  Schedule s;
  s.strategy = "wildcard_reorder";
  s.seed = 7;
  Decision d;
  d.kind = HookKind::kRecvMatch;
  d.rank = 2;
  d.site = "mailbox.match";
  d.is_pick = true;
  d.value = 1;
  s.decisions.push_back(d);

  const std::string path = "explore_test_roundtrip.schedule";
  ASSERT_TRUE(s.save(path));
  Schedule loaded;
  ASSERT_TRUE(Schedule::load(path, &loaded));
  std::remove(path.c_str());
  EXPECT_EQ(loaded.to_string(), s.to_string());
}

TEST(Schedule, HookKindNamesRoundtrip) {
  for (int i = 0; i < kHookKindCount; ++i) {
    const HookKind kind = static_cast<HookKind>(i);
    HookKind parsed;
    ASSERT_TRUE(parse_hook_kind(hook_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  HookKind ignored;
  EXPECT_FALSE(parse_hook_kind("no-such-kind", &ignored));
}

TEST(Strategy, KindNamesParse) {
  StrategyKind kind;
  ASSERT_TRUE(parse_strategy_kind("random", &kind));
  EXPECT_EQ(kind, StrategyKind::kRandomWalk);
  ASSERT_TRUE(parse_strategy_kind("wildcard", &kind));
  EXPECT_EQ(kind, StrategyKind::kWildcardReorder);
  ASSERT_TRUE(parse_strategy_kind("pct", &kind));
  EXPECT_EQ(kind, StrategyKind::kPct);
  EXPECT_FALSE(parse_strategy_kind("bogus", &kind));
}

// ------------------------------------------------------------------ Hooks

TEST(Hooks, DisabledHooksAreInert) {
  ASSERT_FALSE(active());
  // No explorer bound: yields return immediately, picks take default 0.
  yield_point(HookKind::kBarrier, 0, "test.site");
  EXPECT_EQ(pick_point(HookKind::kWildcardPick, 0, "test.site", 5), 0u);
  EXPECT_EQ(pick_point(HookKind::kRecvMatch, 0, "test.site", 1), 0u);
}

TEST(Hooks, ExplorerRecordsDecisionsAndOccurrences) {
  Explorer explorer(make_replay_strategy(Schedule{}));  // all-default replay.
  {
    util::RunContext run;
    run.explorer = &explorer;
    util::ScopedRunContext bind(run);
    ASSERT_TRUE(active());
    yield_point(HookKind::kCritical, 1, "crit");
    yield_point(HookKind::kCritical, 1, "crit");
    EXPECT_EQ(pick_point(HookKind::kWildcardPick, 0, "wc", 3), 0u);
  }
  EXPECT_FALSE(active());
  EXPECT_EQ(explorer.hook_hits(), 3u);
  // Default decisions (no delay, pick 0) are not recorded — the log stays
  // minimal, holding only the perturbations.
  EXPECT_TRUE(explorer.schedule().decisions.empty());
  EXPECT_NE(explorer.order_signature(), 0u);
}

// ------------------------------------------------------------- Strategies

std::vector<std::uint64_t> sample_decisions(Strategy& s) {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 32; ++i) {
    YieldContext y;
    y.kind = HookKind::kMpiCall;
    y.rank = i % 3;
    y.lane = i % 2;
    y.site = "probe.site";
    y.occurrence = static_cast<std::uint64_t>(i);
    y.in_parallel = true;
    out.push_back(s.on_yield(y));
    PickContext p;
    p.kind = HookKind::kWildcardPick;
    p.rank = i % 3;
    p.site = "pick.site";
    p.occurrence = static_cast<std::uint64_t>(i);
    p.n_eligible = 4;
    out.push_back(s.on_pick(p));
  }
  return out;
}

TEST(Strategy, DeterministicInSeedDivergentAcrossSeeds) {
  for (const StrategyKind kind :
       {StrategyKind::kRandomWalk, StrategyKind::kPct,
        StrategyKind::kDelayInjection, StrategyKind::kWildcardReorder}) {
    const auto a1 = sample_decisions(*make_strategy(kind, 11));
    const auto a2 = sample_decisions(*make_strategy(kind, 11));
    EXPECT_EQ(a1, a2) << "seed 11, kind " << strategy_kind_name(kind);
    bool any_diverges = false;
    for (std::uint64_t seed = 12; seed < 20; ++seed) {
      if (sample_decisions(*make_strategy(kind, seed)) != a1) {
        any_diverges = true;
        break;
      }
    }
    EXPECT_TRUE(any_diverges)
        << "seeds never change decisions for " << strategy_kind_name(kind);
  }
}

TEST(Strategy, ReplayFeedsBackRecordedDecisions) {
  Schedule s;
  Decision d;
  d.kind = HookKind::kWildcardPick;
  d.rank = 0;
  d.lane = 0;
  d.site = "mailbox.wildcard";
  d.occurrence = 1;
  d.is_pick = true;
  d.value = 2;
  s.decisions.push_back(d);
  auto replay = make_replay_strategy(s);

  PickContext ctx;
  ctx.kind = HookKind::kWildcardPick;
  ctx.rank = 0;
  ctx.lane = 0;
  ctx.site = "mailbox.wildcard";
  ctx.n_eligible = 3;
  ctx.occurrence = 0;
  EXPECT_EQ(replay->on_pick(ctx), 0u);  // unrecorded occurrence: default.
  ctx.occurrence = 1;
  EXPECT_EQ(replay->on_pick(ctx), 2u);  // the recorded decision.
  ctx.n_eligible = 2;
  EXPECT_EQ(replay->on_pick(ctx), 1u);  // clamped to the eligible range.
}

// ------------------------------------------------- Hidden-race acceptance

TEST(Sweep, HiddenViolationMissedByBaselineFoundBySweep) {
  // A single uncontrolled run never reaches the racy branch; a bounded
  // wildcard sweep must find it (ISSUE-7 acceptance).
  SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 16);
  Sweeper sweeper(cfg);
  const SweepResult result = sweeper.run(hidden_main());

  EXPECT_TRUE(result.run_errors.empty()) << result.to_string();
  EXPECT_TRUE(result.baseline_keys.empty())
      << "baseline unexpectedly reached the hidden branch";
  ASSERT_GE(result.new_vs_baseline(), 1u) << result.to_string();
  bool found = false;
  for (const SweepFinding& f : result.findings) {
    if (f.key == kHiddenKey) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
  // The coverage curve is monotone and ends at the total unique count.
  for (std::size_t i = 1; i < result.coverage_curve.size(); ++i) {
    EXPECT_GE(result.coverage_curve[i], result.coverage_curve[i - 1]);
  }
  EXPECT_EQ(result.coverage_curve.back(), result.findings.size());
  // More than one distinct sync-point ordering was exercised.
  EXPECT_GT(result.orderings.size(), 1u);
}

TEST(Sweep, ReplayReproducesExactViolationKeys) {
  SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 16);
  Sweeper sweeper(cfg);
  const SweepResult result = sweeper.run(hidden_main());

  const SweepFinding* finding = nullptr;
  for (const SweepFinding& f : result.findings) {
    if (f.key == kHiddenKey) finding = &f;
  }
  ASSERT_NE(finding, nullptr) << result.to_string();
  ASSERT_FALSE(finding->schedule.decisions.empty());

  // Byte-identical violation keys on every replay (3 repeats).
  const std::set<std::string> first =
      sweeper.replay(finding->schedule, hidden_main());
  EXPECT_EQ(first.count(kHiddenKey), 1u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(sweeper.replay(finding->schedule, hidden_main()), first);
  }
}

TEST(Sweep, FixedSeedsReproduceFindings) {
  // Wildcard reordering makes no timing decisions, so the whole sweep is a
  // deterministic function of (strategy, base_seed).
  SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 8);
  const SweepResult a = Sweeper(cfg).run(hidden_main());
  const SweepResult b = Sweeper(cfg).run(hidden_main());
  std::set<std::string> keys_a, keys_b;
  for (const SweepFinding& f : a.findings) keys_a.insert(f.key);
  for (const SweepFinding& f : b.findings) keys_b.insert(f.key);
  EXPECT_EQ(keys_a, keys_b);
  EXPECT_EQ(a.coverage_curve, b.coverage_curve);
}

TEST(Sweep, RandomWalkAlsoFindsHiddenViolation) {
  // The acceptance corpus app must be reachable by the generic random walk
  // within a bounded seed budget, not just the wildcard specialist.
  SweepConfig cfg = hidden_config(StrategyKind::kRandomWalk, 24);
  const SweepResult result = Sweeper(cfg).run(hidden_main());
  bool found = false;
  for (const SweepFinding& f : result.findings) {
    if (f.key == kHiddenKey) found = true;
  }
  EXPECT_TRUE(found) << result.to_string();
}

// --------------------------------------- Guided exploration (ISSUE-8)

// The hidden app's guidance, as src/sast/commstat derives it from the
// static model: two two-way wildcard pick sites, one per round.  Built by
// hand here so this binary doesn't need the static engine; the derivation
// itself is covered by commstat_test.
std::shared_ptr<const StaticGuidance> hidden_guidance() {
  auto g = std::make_shared<StaticGuidance>();
  AmbiguousSite pick;
  pick.site = "hidden.pick";
  pick.alternatives = 2;
  pick.occurrences = 1;
  g->ambiguous.push_back(pick);
  pick.site = "hidden.pick2";
  g->ambiguous.push_back(pick);
  OrderedPair ordered;
  ordered.before = "hidden.send_low";
  ordered.after = "hidden.send_high";
  ordered.why = "program-order(rank 1)";
  g->ordered.push_back(ordered);
  return g;
}

TEST(Strategy, GuidedPerturbsOnlyStaticallyAmbiguousSites) {
  const auto guidance = hidden_guidance();
  const auto s = make_strategy(StrategyKind::kGuided, 11, guidance);

  // Guided injects no delays: ordering pressure comes from picks alone.
  YieldContext y;
  y.kind = HookKind::kMpiCall;
  y.site = "hidden.pick";
  y.in_parallel = true;
  EXPECT_EQ(s->on_yield(y), 0u);

  // A flagged two-way site always takes the non-default alternative; the
  // baseline run already covered arrival order.
  PickContext flagged;
  flagged.kind = HookKind::kWildcardPick;
  flagged.site = "hidden.pick";
  flagged.n_eligible = 2;
  EXPECT_EQ(s->on_pick(flagged), 1u);

  // A site the static analysis never flagged keeps the default.
  PickContext unflagged = flagged;
  unflagged.site = "mailbox.unflagged";
  EXPECT_EQ(s->on_pick(unflagged), 0u);

  // Deterministic in the seed, and two-way picks are seed-independent —
  // the invariant the Sweeper's fingerprint pruning rests on.
  for (const std::uint64_t seed : {11u, 12u, 99u}) {
    const auto again = make_strategy(StrategyKind::kGuided, seed, guidance);
    EXPECT_EQ(again->on_pick(flagged), 1u) << "seed " << seed;
  }
}

TEST(Sweep, GuidedFindsHiddenOnFirstScheduleAndPrunesTheRest) {
  // Both of the hidden app's pick sites are two-way, so every guided seed
  // makes the same (flipped) picks: schedule 0 reaches V3 and all later
  // seeds share its fingerprint and are pruned without running.
  SweepConfig cfg = hidden_config(StrategyKind::kGuided, 8);
  cfg.guidance = hidden_guidance();
  const SweepResult result = Sweeper(cfg).run(hidden_main());

  const SweepFinding* hidden = nullptr;
  for (const SweepFinding& f : result.findings) {
    if (f.key == kHiddenKey) hidden = &f;
  }
  ASSERT_NE(hidden, nullptr) << result.to_string();
  EXPECT_EQ(hidden->schedule_index, 0);
  EXPECT_EQ(result.first_new_schedule, 0);
  EXPECT_EQ(result.schedules_run, 2) << "baseline + schedule 0 only";
  ASSERT_EQ(result.pruned.size(), 7u) << result.to_string();
  for (const PrunedSchedule& p : result.pruned) {
    EXPECT_NE(p.reason.find("fingerprint"), std::string::npos) << p.reason;
  }
  // Pruned schedules still pad the coverage curve: baseline + 8 schedules.
  EXPECT_EQ(result.coverage_curve.size(), 9u);

  // The finding replays like any other schedule's.
  Sweeper sweeper(cfg);
  EXPECT_EQ(sweeper.replay(hidden->schedule, hidden_main()).count(kHiddenKey),
            1u);
}

// ------------------------------------------------- Concurrent sweep fold

/// What a sweep folds, minus `orderings` and `hook_hits`: the order
/// signature hashes the global order of hook hits, which varies with timing
/// even in a serial sweep.
struct Folded {
  /// (key, seed, schedule_index, in_baseline), in first-seen order.
  std::vector<std::tuple<std::string, std::uint64_t, int, bool>> findings;
  std::set<std::string> baseline_keys;
  std::vector<std::size_t> coverage_curve;
  int schedules_run = 0;
  int first_new_schedule = -1;
  std::vector<std::pair<int, std::uint64_t>> pruned;  ///< (index, seed).
};

Folded folded(const SweepResult& r) {
  Folded out;
  for (const SweepFinding& f : r.findings) {
    out.findings.emplace_back(f.key, f.seed, f.schedule_index, f.in_baseline);
  }
  out.baseline_keys = r.baseline_keys;
  out.coverage_curve = r.coverage_curve;
  out.schedules_run = r.schedules_run;
  out.first_new_schedule = r.first_new_schedule;
  for (const PrunedSchedule& p : r.pruned) out.pruned.emplace_back(p.index, p.seed);
  return out;
}

/// The oracle: `cfg`'s sweep folded serially here, from one-schedule sweeps
/// (schedules = 1, base_seed = cfg.base_seed + i) and a baseline-only one,
/// with the fingerprint pruning and the stop rule written out again.
Folded fold_one_schedule_sweeps(const SweepConfig& cfg) {
  Folded out;
  std::set<std::string> seen;
  auto note = [&](const std::set<std::string>& keys, int index,
                  std::uint64_t seed) {
    ++out.schedules_run;
    for (const std::string& key : keys) {
      if (!seen.insert(key).second) continue;
      const bool in_baseline = out.baseline_keys.count(key) > 0;
      if (index >= 0 && !in_baseline && out.first_new_schedule < 0) {
        out.first_new_schedule = index;
      }
      out.findings.emplace_back(key, seed, index, index < 0 || in_baseline);
    }
    out.coverage_curve.push_back(seen.size());
  };
  if (cfg.run_baseline) {
    SweepConfig one = cfg;
    one.schedules = 0;
    out.baseline_keys = Sweeper(one).run(hidden_main()).baseline_keys;
    note(out.baseline_keys, -1, 0);
  }
  std::set<std::uint64_t> fingerprints;
  for (int i = 0; i < cfg.schedules; ++i) {
    const std::uint64_t seed = cfg.base_seed + static_cast<std::uint64_t>(i);
    if (cfg.strategy == StrategyKind::kGuided && cfg.guidance &&
        !fingerprints.insert(guided_fingerprint(*cfg.guidance, seed)).second) {
      out.pruned.emplace_back(i, seed);
      out.coverage_curve.push_back(
          out.coverage_curve.empty() ? 0 : out.coverage_curve.back());
      continue;
    }
    SweepConfig one = cfg;
    one.schedules = 1;
    one.base_seed = seed;
    one.run_baseline = false;
    one.stop_on_first_new = false;
    std::set<std::string> keys;
    for (const SweepFinding& f : Sweeper(one).run(hidden_main()).findings) {
      keys.insert(f.key);
    }
    note(keys, i, seed);
    if (cfg.stop_on_first_new && out.first_new_schedule >= 0) break;
  }
  return out;
}

void expect_same_fold(const Folded& got, const Folded& want) {
  EXPECT_EQ(got.findings, want.findings);
  EXPECT_EQ(got.baseline_keys, want.baseline_keys);
  EXPECT_EQ(got.coverage_curve, want.coverage_curve);
  EXPECT_EQ(got.schedules_run, want.schedules_run);
  EXPECT_EQ(got.first_new_schedule, want.first_new_schedule);
  EXPECT_EQ(got.pruned, want.pruned);
}

TEST(SweepFold, WildcardSweepFoldsLikeOneScheduleSweeps) {
  const SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 24);
  const Folded want = fold_one_schedule_sweeps(cfg);
  ASSERT_GE(want.findings.size(), 1u);
  for (int rep = 0; rep < 3; ++rep) {
    expect_same_fold(folded(Sweeper(cfg).run(hidden_main())), want);
  }
}

TEST(SweepFold, GuidedPruningFoldsLikeOneScheduleSweeps) {
  SweepConfig cfg = hidden_config(StrategyKind::kGuided, 8);
  cfg.guidance = hidden_guidance();
  const Folded want = fold_one_schedule_sweeps(cfg);
  ASSERT_FALSE(want.pruned.empty());
  expect_same_fold(folded(Sweeper(cfg).run(hidden_main())), want);
}

TEST(SweepFold, StopOnFirstNewFoldsUpToTheFirstFinding) {
  // From base seed 11 the first exploration-only finding is schedule 7 (seed
  // 18), so the fold stops mid-sweep with later runs in flight.
  SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 24, 11);
  cfg.stop_on_first_new = true;
  const Folded want = fold_one_schedule_sweeps(cfg);
  ASSERT_GT(want.first_new_schedule, 0);
  for (int rep = 0; rep < 3; ++rep) {
    expect_same_fold(folded(Sweeper(cfg).run(hidden_main())), want);
  }
}

TEST(SweepFold, JournalListsRecordsInIndexOrderBaselineFirst) {
  const std::string path = testing::TempDir() + "/home_fold_order.journal";
  { std::ofstream(path, std::ios::trunc); }
  SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 16);
  cfg.journal_path = path;
  Sweeper(cfg).run(hidden_main());

  std::ifstream in(path);
  std::vector<int> indices;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("run ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    int index = 0;
    fields >> index;
    indices.push_back(index);
  }
  std::vector<int> want;
  for (int i = -1; i < cfg.schedules; ++i) want.push_back(i);
  EXPECT_EQ(indices, want);
  std::remove(path.c_str());
}

// ------------------------------------------------------- thread reuse

std::size_t span_threads() {
  std::set<int> tids;
  for (const obs::FinishedSpan& s : obs::collect_spans()) {
    tids.insert(s.display_tid);
  }
  return tids.size();
}

TEST(SweepThreads, SpanRingsStopGrowingAcrossSweeps) {
  // Every thread that records a span keeps a ring for the life of the
  // process.  A sweep takes its workers and rank and team threads from the
  // pool, so the rings are this thread's and the pool's, and the pool holds
  // no more threads than ran at once, however many sweeps ran: with a fresh
  // thread per rank per run the third sweep would add ~3 rings per schedule.
  // (Which threads ran at once depends on timing, so a later sweep may still
  // add a pooled thread or two.)
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset_spans();
  const SweepConfig cfg = hidden_config(StrategyKind::kWildcardReorder, 24);
  const std::size_t workers = std::min<std::size_t>(
      cfg.schedules + 1, std::max(1u, std::thread::hardware_concurrency()));
  const std::size_t at_once = workers * (1 + cfg.nranks * cfg.nthreads);
  const std::size_t pool_before = util::pooled_thread_count();
  std::size_t after_first = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    Sweeper(cfg).run(hidden_main());
    const std::size_t rings = span_threads();
    if (sweep == 0) after_first = rings;
    EXPECT_LE(rings, util::pooled_thread_count() + 1) << "sweep " << sweep;
  }
  obs::set_enabled(was_enabled);
  EXPECT_GE(after_first, 1u + cfg.nranks);
  EXPECT_LE(util::pooled_thread_count(), pool_before + at_once);
}

}  // namespace
}  // namespace home::explore
