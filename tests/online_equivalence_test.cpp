// App-level equivalence of the online streaming engine (acceptance
// criterion): the same injected-violation program checked in
// AnalysisMode::kOnline must report exactly the post-mortem violation set —
// at any queue size, with retirement enabled, verified both against a
// post-mortem pass over the trace the same run retained and against an
// independent post-mortem run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/apps/app.hpp"
#include "src/faults/fault.hpp"
#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/homp/worksharing.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spec/violations.hpp"
#include "tests/oracle/fixtures.hpp"

namespace home {
namespace {

using apps::AppConfig;
using apps::AppKind;
using oracle::key_set;
using simmpi::Datatype;
using simmpi::kCommWorld;
using simmpi::Process;
using simmpi::ThreadLevel;
using spec::ViolationType;

CheckConfig app_check(const AppConfig& app) {
  CheckConfig cfg;
  cfg.nranks = app.nranks;
  cfg.nthreads = app.nthreads;
  cfg.block_timeout_ms = app.block_timeout_ms;
  return cfg;
}

/// Run the app post-mortem and online (with the given knobs) and require
/// identical violation-key sets, both against a post-mortem pass over the
/// online run's own trace and against the independent post-mortem run.
void expect_equivalent(const AppConfig& app, std::size_t queue_capacity,
                       std::size_t retire_interval) {
  auto rank_main = [&app](Process& p) { apps::run_app_rank(app, p); };

  CheckConfig post = app_check(app);
  const CheckResult baseline = check_program(post, rank_main);
  ASSERT_TRUE(baseline.run.ok());

  CheckConfig online = app_check(app);
  online.session.mode = AnalysisMode::kOnline;
  online.session.online.queue_capacity = queue_capacity;
  online.session.online.retire_interval = retire_interval;
  const oracle::OnlineRun streamed = oracle::run_online(online, rank_main);
  ASSERT_TRUE(streamed.run.ok());

  // The same run's trace, analyzed post-mortem.
  EXPECT_EQ(key_set(streamed.report), streamed.post_mortem_keys);

  // And an independent post-mortem execution: the scheduler may interleave
  // differently, but every injected class must still be found.
  EXPECT_EQ(key_set(streamed.report), key_set(baseline.report));
  EXPECT_EQ(streamed.stats.events_dropped, 0u);
  EXPECT_GT(streamed.stats.events_processed, 0u);
}

class OnlineAppEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(OnlineAppEquivalence, LuMzAllSixViolationClasses) {
  const auto [queue, retire] = GetParam();
  expect_equivalent(apps::paper_config(AppKind::kLU, 2), queue, retire);
}

INSTANTIATE_TEST_SUITE_P(
    QueueAndRetire, OnlineAppEquivalence,
    ::testing::Values(std::make_tuple(std::size_t{8}, std::size_t{64}),
                      std::make_tuple(std::size_t{8}, std::size_t{1024}),
                      std::make_tuple(std::size_t{1024}, std::size_t{64}),
                      std::make_tuple(std::size_t{1024}, std::size_t{1024})));

TEST(OnlineAppEquivalenceSuite, BtMzDefaultKnobs) {
  expect_equivalent(apps::paper_config(AppKind::kBT, 2), 4096, 1024);
}

TEST(OnlineAppEquivalenceSuite, SpMzTinyQueueSmallEpochs) {
  expect_equivalent(apps::paper_config(AppKind::kSP, 2), 8, 64);
}

TEST(OnlineQueuePressure, AStalledConsumerLosesNoEvent) {
  // A Session's queue blocks instead of dropping: with one slot and injected
  // queue pressure stalling the consumer, the analyzer still sees every
  // event the run logs, so the streamed report is exact and equals a
  // post-mortem pass over the retained trace.
  const AppConfig app = apps::paper_config(AppKind::kLU, 2);
  CheckConfig cfg = app_check(app);
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.queue_capacity = 1;
  cfg.session.faults.enabled = true;
  cfg.session.faults.seed = 7;
  ASSERT_TRUE(faults::FaultSpec::parse("qpressure=0.5,max_delay_us=50",
                                       &cfg.session.faults.spec));
  const oracle::OnlineRun streamed = oracle::run_online(
      cfg, [&app](Process& p) { apps::run_app_rank(app, p); });
  ASSERT_TRUE(streamed.run.ok());

  const auto& decisions = streamed.faults;
  EXPECT_GT(std::count_if(decisions.begin(), decisions.end(),
                          [](const faults::FaultDecision& d) {
                            return d.kind == faults::FaultKind::kQueuePressure;
                          }),
            0);
  EXPECT_EQ(streamed.stats.events_dropped, 0u);
  EXPECT_EQ(streamed.stats.events_processed, streamed.retained_events);
  EXPECT_FALSE(streamed.report.degraded());
  EXPECT_FALSE(streamed.post_mortem_keys.empty());
  EXPECT_EQ(key_set(streamed.report), streamed.post_mortem_keys);
}

TEST(OnlineAppEquivalenceSuite, CleanRunStaysClean) {
  const AppConfig app = apps::clean_config(AppKind::kLU, 2);
  CheckConfig cfg = app_check(app);
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.retire_interval = 64;
  const oracle::OnlineRun result = oracle::run_online(
      cfg, [&app](Process& p) { apps::run_app_rank(app, p); });
  ASSERT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.violations().empty());
  EXPECT_TRUE(result.post_mortem_keys.empty());
}

TEST(OnlineLiveReports, CallbackFiresWhileTheProgramRuns) {
  const AppConfig app = apps::paper_config(AppKind::kLU, 2);
  std::atomic<std::size_t> live{0};
  CheckConfig cfg = app_check(app);
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.on_violation =
      [&live](const spec::Violation&) { live.fetch_add(1); };
  const CheckResult result =
      check_program(cfg, [&app](Process& p) { apps::run_app_rank(app, p); });
  ASSERT_TRUE(result.run.ok());
  EXPECT_GT(live.load(), 0u);
  EXPECT_LE(live.load(), result.report.violations().size());
  EXPECT_EQ(result.online_stats.live_reports, live.load());
}

TEST(OnlineStreamingOnly, UnretainedTraceStillReportsViolations) {
  // retain_trace=false is the truly bounded-memory deployment: the log
  // buffers nothing — but the streamed verdicts are the full report.
  const AppConfig app = apps::paper_config(AppKind::kLU, 2);
  CheckConfig cfg = app_check(app);
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.retain_trace = false;
  const CheckResult result =
      check_program(cfg, [&app](Process& p) { apps::run_app_rank(app, p); });
  ASSERT_TRUE(result.run.ok());
  EXPECT_GT(result.online_stats.events_processed, 0u);
  for (const ViolationType type :
       {ViolationType::kInitialization, ViolationType::kFinalization,
        ViolationType::kConcurrentRecv, ViolationType::kConcurrentRequest,
        ViolationType::kProbe, ViolationType::kCollectiveCall}) {
    EXPECT_TRUE(result.report.has(type))
        << spec::violation_type_name(type);
  }
}

// The violation counters, `spec.rule_hits` first, then one per class in
// ViolationType order.
std::vector<std::uint64_t> violation_counters() {
  static const char* const kNames[] = {
      "spec.rule_hits",
      "spec.violations.initialization",
      "spec.violations.finalization",
      "spec.violations.concurrent_recv",
      "spec.violations.concurrent_request",
      "spec.violations.probe",
      "spec.violations.collective_call"};
  std::vector<std::uint64_t> out;
  for (const char* name : kNames) {
    out.push_back(obs::Registry::global().counter(name).value());
  }
  return out;
}

TEST(OnlineAppEquivalenceSuite, ViolationCountersMatchThePostMortemRun) {
  // One place counts a key's first sighting: a post-mortem and an online
  // analysis of the same program move `spec.rule_hits` and every
  // `spec.violations.<class>` counter by exactly what their reports list.
  obs::set_enabled(true);
  const AppConfig app = apps::paper_config(AppKind::kLU, 2);
  std::vector<std::vector<std::uint64_t>> deltas;
  for (const AnalysisMode mode :
       {AnalysisMode::kPostMortem, AnalysisMode::kOnline}) {
    CheckConfig cfg = app_check(app);
    cfg.session.mode = mode;
    const std::vector<std::uint64_t> before = violation_counters();
    const CheckResult result =
        check_program(cfg, [&app](Process& p) { apps::run_app_rank(app, p); });
    ASSERT_TRUE(result.run.ok());
    const std::vector<std::uint64_t> after = violation_counters();

    std::vector<std::uint64_t> delta;
    for (std::size_t i = 0; i < after.size(); ++i) {
      delta.push_back(after[i] - before[i]);
    }
    std::vector<std::uint64_t> expected = {result.report.violations().size()};
    for (int t = 0; t < spec::kViolationTypeCount; ++t) {
      expected.push_back(result.report.count(static_cast<ViolationType>(t)));
    }
    EXPECT_EQ(delta, expected)
        << (mode == AnalysisMode::kOnline ? "online" : "post-mortem");
    deltas.push_back(delta);
  }
  EXPECT_EQ(deltas[0], deltas[1]);
}

TEST(OnlineCaseStudy, Figure1InitializationViolationStreamsLive) {
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.nthreads = 2;
  cfg.block_timeout_ms = 2000;
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.queue_capacity = 8;
  cfg.session.online.retire_interval = 16;
  const oracle::OnlineRun result = oracle::run_online(cfg, [](Process& p) {
    p.init();
    homp::parallel(2, [&] {
      homp::sections({
          [&] {
            if (p.rank() == 0) {
              const int v = 1;
              p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld, {"cs1.send"});
            }
          },
          [&] {
            if (p.rank() == 1) {
              int v = 0;
              p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld, nullptr,
                     {"cs1.recv"});
            }
          },
      });
    });
    p.finalize();
  });
  EXPECT_TRUE(result.run.ok());
  EXPECT_TRUE(result.report.has(ViolationType::kInitialization));
  EXPECT_EQ(key_set(result.report), result.post_mortem_keys);
}

}  // namespace
}  // namespace home
