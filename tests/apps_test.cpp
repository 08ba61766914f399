// Tests for the NPB-MZ-style mini-apps, the fault injector, and the
// tool-comparison harness — including the paper's Section V.B accuracy
// matrix at small scale.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <ostream>

#include "src/apps/app.hpp"
#include "src/apps/toolrun.hpp"
#include "src/baselines/itc.hpp"
#include "src/spec/violations.hpp"

namespace home::apps {
namespace {

using spec::ViolationType;

// ---------------------------------------------------------------------- zones

TEST(Zone, ResidualOfConstantField) {
  Zone zone(4, 2.0);
  EXPECT_DOUBLE_EQ(zone.residual(), 16 * 4.0);
}

TEST(Zone, EdgesAndHalos) {
  Zone zone(3, 0.0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) zone.at(i, j) = i * 10.0 + j;
  }
  const auto east = zone.east_edge();
  ASSERT_EQ(east.size(), 3u);
  EXPECT_DOUBLE_EQ(east[1], 12.0);
  zone.set_west_halo({7.0, 8.0, 9.0});
  EXPECT_DOUBLE_EQ(zone.at(2, -1), 9.0);
}

TEST(Kernels, SweepsChangeTheField) {
  for (AppKind kind : {AppKind::kLU, AppKind::kBT, AppKind::kSP}) {
    Zone zone(8, 1.0);
    const double before = zone.residual();
    sweep_zone(kind, zone);
    EXPECT_NE(zone.residual(), before) << app_kind_name(kind);
  }
}

TEST(Kernels, SweepsAreDeterministic) {
  Zone a(6, 1.5), b(6, 1.5);
  ssor_sweep(a);
  ssor_sweep(b);
  EXPECT_DOUBLE_EQ(a.residual(), b.residual());
}

// ------------------------------------------------------------------ app runs

TEST(App, CleanRunSucceedsOnAllKinds) {
  for (AppKind kind : {AppKind::kLU, AppKind::kBT, AppKind::kSP}) {
    AppConfig cfg = clean_config(kind, 2);
    cfg.iterations = 2;
    auto result = run_with_tool(Tool::kBase, cfg);
    EXPECT_TRUE(result.run.ok())
        << app_kind_name(kind) << ": " << (result.run.errors.empty()
                                               ? ""
                                               : result.run.errors[0]);
  }
}

TEST(App, CleanRunIsViolationFreeUnderHome) {
  AppConfig cfg = clean_config(AppKind::kLU, 2);
  cfg.iterations = 2;
  auto result = run_with_tool(Tool::kHome, cfg);
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

TEST(App, CleanRunIsViolationFreeUnderMarmot) {
  AppConfig cfg = clean_config(AppKind::kSP, 2);
  cfg.iterations = 2;
  auto result = run_with_tool(Tool::kMarmot, cfg);
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

TEST(App, CleanRunIsViolationFreeUnderItc) {
  AppConfig cfg = clean_config(AppKind::kBT, 2);
  cfg.iterations = 2;
  auto result = run_with_tool(Tool::kItc, cfg);
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
  EXPECT_GT(result.report.stats().trace_events, 0u);
}

TEST(App, FourRankRingRuns) {
  AppConfig cfg = clean_config(AppKind::kSP, 4);
  cfg.iterations = 2;
  auto result = run_with_tool(Tool::kBase, cfg);
  EXPECT_TRUE(result.run.ok());
}

// ------------------------------------------------------- injected violations

TEST(Injection, HomeDetectsAllSixOnEveryApp) {
  for (AppKind kind : {AppKind::kLU, AppKind::kBT, AppKind::kSP}) {
    AppConfig cfg = paper_config(kind, 2);
    auto result = run_with_tool(Tool::kHome, cfg);
    const AccuracyCount acc = count_accuracy(result.report);
    EXPECT_EQ(acc.detected_classes, 6)
        << app_kind_name(kind) << "\n" << result.report.to_string();
    EXPECT_EQ(acc.extra_reports, 0) << app_kind_name(kind);
  }
}

TEST(Injection, AccuracyMatrixMatchesPaperTable) {
  // Paper Section V.B: rows LU/BT/SP, columns HOME/ITC/Marmot = 6/5/5,
  // 6/7/6, 6/6/5.
  struct Row {
    AppKind kind;
    int home;
    int itc;
    int marmot;
  };
  const Row rows[] = {
      {AppKind::kLU, 6, 5, 5},
      {AppKind::kBT, 6, 7, 6},
      {AppKind::kSP, 6, 6, 5},
  };
  for (const Row& row : rows) {
    AppConfig cfg = paper_config(row.kind, 2);
    const auto home = run_with_tool(Tool::kHome, cfg).report;
    EXPECT_EQ(count_accuracy(home).table_value(), row.home)
        << app_kind_name(row.kind) << " HOME\n" << home.to_string();
    const auto itc = run_with_tool(Tool::kItc, cfg).report;
    EXPECT_EQ(count_accuracy(itc).table_value(), row.itc)
        << app_kind_name(row.kind) << " ITC\n" << itc.to_string();
    const auto marmot = run_with_tool(Tool::kMarmot, cfg).report;
    EXPECT_EQ(count_accuracy(marmot).table_value(), row.marmot)
        << app_kind_name(row.kind) << " MARMOT\n" << marmot.to_string();
  }
}

TEST(Injection, ItcMissesBlockingProbeOnLu) {
  AppConfig cfg = paper_config(AppKind::kLU, 2);
  auto result = run_with_tool(Tool::kItc, cfg);
  EXPECT_FALSE(result.report.has(ViolationType::kProbe))
      << result.report.to_string();
}

TEST(Injection, ItcFalsePositiveOnBaitIsCollectiveClass) {
  AppConfig cfg = paper_config(AppKind::kBT, 2);
  auto result = run_with_tool(Tool::kItc, cfg);
  bool bait_report = false;
  for (const auto& v : result.report.violations()) {
    if (v.callsite1.find("bait.") != std::string::npos ||
        v.callsite2.find("bait.") != std::string::npos) {
      bait_report = true;
      EXPECT_EQ(v.type, ViolationType::kCollectiveCall);
    }
  }
  EXPECT_TRUE(bait_report);
}

TEST(ItcTracer, ATracerWhereADeadOneLivedStartsItsOwnThreadState) {
  // Runs reuse pooled threads, and a tracer may be built at a dead one's
  // address: the thread that touches it must register anew and must not
  // fold the dead tracer's unfolded access count into it.
  using baselines::ItcMemoryTracer;
  alignas(ItcMemoryTracer) unsigned char storage[sizeof(ItcMemoryTracer)];
  int x = 0;
  auto* first = new (storage) ItcMemoryTracer(4);
  for (int i = 0; i < 255; ++i) first->access(&x, true);
  EXPECT_EQ(first->threads_seen(), 1);
  first->~ItcMemoryTracer();

  auto* second = new (storage) ItcMemoryTracer(4);
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  second->access(&x, true);
  EXPECT_EQ(second->threads_seen(), 1);
  EXPECT_EQ(second->accesses(), 0u);  // one access, not yet folded.
  second->~ItcMemoryTracer();
}

/// What one ITC tracer saw of one clean LU-MZ 2x2 run.
struct TracerCounts {
  int threads = 0;
  std::uint64_t accesses = 0;
  bool operator==(const TracerCounts&) const = default;
};

void PrintTo(const TracerCounts& c, std::ostream* os) {
  *os << c.threads << " threads, " << c.accesses << " accesses";
}

TracerCounts counts_of(const baselines::ItcSession& session) {
  return {session.tracer().threads_seen(), session.tracer().accesses()};
}

TEST(ItcTracer, EachSessionTracesOnlyItsOwnRun) {
  // The tracer belongs to the run its session is attached to: two sessions
  // attached to two universes at once each see exactly their own run, as if
  // it had been alone, whichever detaches first.
  const AppConfig cfg = clean_config(AppKind::kLU, 2);
  const auto rank_main = [&cfg](simmpi::Process& p) { run_app_rank(cfg, p); };
  simmpi::UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  ucfg.block_timeout_ms = cfg.block_timeout_ms;

  baselines::ItcSession solo;
  simmpi::UniverseConfig solo_cfg = ucfg;
  solo.configure(solo_cfg);
  simmpi::Universe solo_uni(solo_cfg);
  solo.attach(solo_uni);
  solo_uni.run_context().team_size = cfg.nthreads;
  ASSERT_TRUE(solo_uni.run(rank_main).ok());
  solo.detach(solo_uni);
  const TracerCounts expected = counts_of(solo);
  EXPECT_EQ(expected.threads, cfg.nranks * cfg.nthreads);
  EXPECT_GT(expected.accesses, 0u);

  baselines::ItcSession first, second;
  simmpi::UniverseConfig first_cfg = ucfg, second_cfg = ucfg;
  first.configure(first_cfg);
  second.configure(second_cfg);
  simmpi::Universe first_uni(first_cfg), second_uni(second_cfg);
  first.attach(first_uni);
  second.attach(second_uni);
  first_uni.run_context().team_size = cfg.nthreads;
  second_uni.run_context().team_size = cfg.nthreads;
  ASSERT_TRUE(first_uni.run(rank_main).ok());
  first.detach(first_uni);
  ASSERT_TRUE(second_uni.run(rank_main).ok());
  second.detach(second_uni);
  EXPECT_EQ(counts_of(first), expected);
  EXPECT_EQ(counts_of(second), expected);
}

TEST(Injection, MarmotMissesLatentConcurrentRecvOnSp) {
  AppConfig cfg = paper_config(AppKind::kSP, 2);
  auto result = run_with_tool(Tool::kMarmot, cfg);
  EXPECT_FALSE(result.report.has(ViolationType::kConcurrentRecv))
      << result.report.to_string();
}

TEST(Injection, HomeCatchesLatentConcurrentRecvOnSp) {
  AppConfig cfg = paper_config(AppKind::kSP, 2);
  auto result = run_with_tool(Tool::kHome, cfg);
  EXPECT_TRUE(result.report.has(ViolationType::kConcurrentRecv));
}

TEST(Injection, FourRanksStillDetectEverything) {
  AppConfig cfg = paper_config(AppKind::kBT, 4);
  auto result = run_with_tool(Tool::kHome, cfg);
  EXPECT_EQ(count_accuracy(result.report).detected_classes, 6)
      << result.report.to_string();
}

TEST(Injection, EightRankScaleStillDetectsEverything) {
  AppConfig cfg = paper_config(AppKind::kSP, 8);
  auto result = run_with_tool(Tool::kHome, cfg);
  EXPECT_EQ(count_accuracy(result.report).detected_classes, 6)
      << result.report.to_string();
}

TEST(App, ManyIterationsStayViolationFree) {
  // No false-positive accumulation over a longer clean run: repeated
  // same-callsite calls across iterations must stay HB-ordered via the
  // region fork/join edges.
  AppConfig cfg = clean_config(AppKind::kLU, 2);
  cfg.iterations = 12;
  auto result = run_with_tool(Tool::kHome, cfg);
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.clean()) << result.report.to_string();
}

// ------------------------------------------------------------------- toolrun

TEST(ToolRun, NamesAreStable) {
  EXPECT_STREQ(tool_name(Tool::kBase), "Base");
  EXPECT_STREQ(tool_name(Tool::kHome), "HOME");
  EXPECT_STREQ(tool_name(Tool::kMarmot), "MARMOT");
  EXPECT_STREQ(tool_name(Tool::kItc), "ITC");
}

TEST(ToolRun, TimingsArePopulated) {
  AppConfig cfg = clean_config(AppKind::kLU, 2);
  cfg.iterations = 2;
  auto result = run_with_tool(Tool::kHome, cfg);
  EXPECT_GT(result.run_seconds, 0.0);
}

}  // namespace
}  // namespace home::apps
