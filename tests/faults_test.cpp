// Fault-injection engine tests (ISSUE-10 tentpole): spec/plan round trips,
// splitmix64 determinism, replay fidelity, crash capping, drop-with-
// redelivery, disabled-gate behavior, and end-to-end Session integration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>

#include "src/faults/injector.hpp"
#include "src/faults/plan.hpp"
#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"

namespace home {
namespace {

using namespace simmpi;

TEST(FaultSpec, RoundTripsText) {
  faults::FaultSpec spec;
  spec.msg_delay_p = 0.25;
  spec.msg_drop_p = 0.1;
  spec.rank_stall_p = 0.5;
  spec.rank_crash_p = 0.01;
  spec.lock_pause_p = 0.125;
  spec.queue_pressure_p = 0.0625;
  spec.max_delay_us = 1234;
  spec.redeliver_delay_us = 777;
  spec.max_crashes = 2;

  faults::FaultSpec parsed;
  ASSERT_TRUE(faults::FaultSpec::parse(spec.to_string(), &parsed));
  EXPECT_DOUBLE_EQ(parsed.msg_delay_p, spec.msg_delay_p);
  EXPECT_DOUBLE_EQ(parsed.rank_crash_p, spec.rank_crash_p);
  EXPECT_EQ(parsed.max_delay_us, spec.max_delay_us);
  EXPECT_EQ(parsed.redeliver_delay_us, spec.redeliver_delay_us);
  EXPECT_EQ(parsed.max_crashes, spec.max_crashes);
}

TEST(FaultSpec, ParseRejectsUnknownKey) {
  faults::FaultSpec spec;
  EXPECT_FALSE(faults::FaultSpec::parse("frobnicate=1", &spec));
  EXPECT_TRUE(faults::FaultSpec::parse("crash=0.5,delay=0.25", &spec));
  EXPECT_DOUBLE_EQ(spec.rank_crash_p, 0.5);
  EXPECT_DOUBLE_EQ(spec.msg_delay_p, 0.25);
}

TEST(FaultPlan, FileRoundTrip) {
  faults::FaultPlan plan;
  plan.seed = 42;
  plan.spec.rank_stall_p = 0.5;
  faults::FaultDecision d;
  d.kind = faults::FaultKind::kMsgDelay;
  d.rank = 1;
  d.site = "p2p.send";
  d.occurrence = 3;
  d.value = 1500;
  plan.decisions.push_back(d);
  d.kind = faults::FaultKind::kRankCrash;
  d.rank = 0;
  d.site = "app.init";
  d.occurrence = 0;
  d.value = 0;
  plan.decisions.push_back(d);

  const std::string path = testing::TempDir() + "/home_faults_plan_test.txt";
  ASSERT_TRUE(plan.save(path));
  faults::FaultPlan loaded;
  ASSERT_TRUE(faults::FaultPlan::load(path, &loaded));
  EXPECT_EQ(loaded.seed, plan.seed);
  ASSERT_EQ(loaded.decisions.size(), 2u);
  EXPECT_EQ(loaded.decisions[0].kind, faults::FaultKind::kMsgDelay);
  EXPECT_EQ(loaded.decisions[0].site, "p2p.send");
  EXPECT_EQ(loaded.decisions[0].value, 1500u);
  EXPECT_EQ(loaded.decisions[1].kind, faults::FaultKind::kRankCrash);
  EXPECT_EQ(loaded.to_string(), plan.to_string());
  std::remove(path.c_str());
}

TEST(FaultPlan, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/home_faults_bad_plan.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("garbage\n", f);
    std::fclose(f);
  }
  faults::FaultPlan loaded;
  EXPECT_FALSE(faults::FaultPlan::load(path, &loaded));
  std::remove(path.c_str());
}

/// Drive a fixed synthetic hook sequence through an injector and return the
/// recorded plan text.
std::string drive_sequence(faults::Injector& inj) {
  for (int i = 0; i < 40; ++i) {
    try {
      inj.on_mpi_call(i % 2, "t.call");
    } catch (const faults::RankCrashError&) {
      // Capped crash; keep driving.
    }
    inj.on_message(i % 2, "t.msg", [] {});
    inj.on_lock_acquired(i % 2, "t.lock");
    inj.on_queue_consume("t.queue");
  }
  inj.quiesce();
  return inj.plan().to_string();
}

TEST(Injector, DeterministicForSeed) {
  faults::FaultSpec spec;
  spec.msg_delay_p = 0.5;
  spec.rank_stall_p = 0.5;
  spec.lock_pause_p = 0.5;
  spec.queue_pressure_p = 0.5;
  spec.max_delay_us = 50;  // keep the test fast.

  faults::Injector a(spec, 7);
  faults::Injector b(spec, 7);
  faults::Injector c(spec, 8);
  const std::string plan_a = drive_sequence(a);
  const std::string plan_b = drive_sequence(b);
  const std::string plan_c = drive_sequence(c);
  EXPECT_EQ(plan_a, plan_b);
  EXPECT_NE(plan_a, plan_c);  // splitmix64(seed^...) must move with the seed.
  EXPECT_GT(a.injected_count(), 0u);
}

TEST(Injector, ReplayAppliesExactlyTheRecordedPlan) {
  faults::FaultSpec spec;
  spec.msg_delay_p = 0.5;
  spec.rank_stall_p = 0.5;
  spec.max_delay_us = 50;

  faults::Injector gen(spec, 11);
  const std::string recorded = drive_sequence(gen);
  ASSERT_GT(gen.injected_count(), 0u);

  faults::Injector rep(gen.plan());
  EXPECT_TRUE(rep.replay_mode());
  const std::string replayed = drive_sequence(rep);
  EXPECT_EQ(replayed, recorded);
  EXPECT_EQ(rep.injected_count(), gen.injected_count());
}

TEST(Injector, CrashCapHonored) {
  faults::FaultSpec spec;
  spec.rank_crash_p = 1.0;
  spec.max_crashes = 1;
  faults::Injector inj(spec, 1);

  EXPECT_THROW(inj.on_mpi_call(0, "t.first"), faults::RankCrashError);
  // The cap is per run: the second call must not crash.
  EXPECT_NO_THROW(inj.on_mpi_call(0, "t.second"));
  EXPECT_NO_THROW(inj.on_mpi_call(1, "t.third"));
}

TEST(Injector, DroppedMessageIsEventuallyRedelivered) {
  faults::FaultSpec spec;
  spec.msg_drop_p = 1.0;
  spec.redeliver_delay_us = 200;
  faults::Injector inj(spec, 3);

  std::atomic<bool> delivered{false};
  const bool taken = inj.on_message(0, "t.drop", [&] { delivered = true; });
  EXPECT_TRUE(taken);  // injector owns the delivery now.
  inj.quiesce();       // forces any still-parked delivery out immediately.
  EXPECT_TRUE(delivered.load());
  ASSERT_EQ(inj.plan().decisions.size(), 1u);
  EXPECT_EQ(inj.plan().decisions[0].kind, faults::FaultKind::kMsgDrop);
}

TEST(Injector, HooksAreNoOpsWhenNothingInstalled) {
  ASSERT_FALSE(faults::active());
  EXPECT_NO_THROW(faults::mpi_call_point(0, "t.site"));
  EXPECT_NO_THROW(faults::lock_holder_point(0, "t.site"));
  EXPECT_NO_THROW(faults::queue_consume_point("t.site"));
  bool delivered = false;
  EXPECT_FALSE(faults::message_point(0, "t.site", [&] { delivered = true; }));
  EXPECT_FALSE(delivered);  // caller keeps the delivery.
}

TEST(Injector, InstallUninstallGatesTheHooks) {
  faults::FaultSpec spec;
  spec.rank_stall_p = 1.0;
  spec.max_delay_us = 10;
  faults::Injector inj(spec, 5);
  {
    util::RunContext run;
    run.injector = &inj;
    util::ScopedRunContext bind(run);
    EXPECT_TRUE(faults::active());
    faults::mpi_call_point(0, "t.site");
    EXPECT_GT(inj.injected_count(), 0u);
  }
  EXPECT_FALSE(faults::active());
}

TEST(FaultsSession, RecordsAPlanAndStaysAnalyzable) {
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.session.faults.enabled = true;
  cfg.session.faults.seed = 9;
  cfg.session.faults.spec.rank_stall_p = 0.5;
  cfg.session.faults.spec.lock_pause_p = 0.5;
  cfg.session.faults.spec.msg_delay_p = 0.5;
  cfg.session.faults.spec.max_delay_us = 100;

  Session session(cfg.session);
  UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(2);
  const RunResult run = universe.run([](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      int a = 0;
      const int peer = 1 - p.rank();
      if (p.rank() == 0) {
        p.send(&a, 1, Datatype::kInt, peer, 0, kCommWorld, {"ft.send"});
      } else {
        p.recv(&a, 1, Datatype::kInt, peer, 0, kCommWorld, nullptr,
               {"ft.recv"});
      }
    });
    p.finalize();
  });
  session.detach(universe);

  EXPECT_TRUE(run.ok()) << "stalls/delays must not break the run";
  const faults::FaultPlan plan = session.recorded_fault_plan();
  EXPECT_FALSE(plan.empty()) << "p=0.5 over a full run must fire something";
  // The faulted run is still a valid detection run.
  const Report report = session.analyze();
  EXPECT_TRUE(report.has(spec::ViolationType::kConcurrentRecv));
}

TEST(FaultsSession, InjectedCrashTakesDownOneRankNotTheRun) {
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.session.faults.enabled = true;
  cfg.session.faults.seed = 2;
  cfg.session.faults.spec.rank_crash_p = 1.0;
  cfg.session.faults.spec.max_crashes = 1;

  // No cross-rank communication: the surviving rank must finish normally.
  const CheckResult result = check_program(cfg, [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    homp::parallel(2, [] {});
    p.finalize();
  });
  EXPECT_EQ(result.run.failed_ranks.size(), 1u);
  ASSERT_EQ(result.run.errors.size(), 1u);
  EXPECT_NE(result.run.errors[0].find("injected rank crash"),
            std::string::npos);
}

/// Decision multiset key — recording *order* across ranks is interleaving-
/// dependent, but the decision set for a fixed control flow is not.
std::multiset<std::string> decision_set(const faults::FaultPlan& plan) {
  std::multiset<std::string> out;
  for (const faults::FaultDecision& d : plan.decisions) {
    out.insert(std::string(faults::fault_kind_name(d.kind)) + "|" +
               std::to_string(d.rank) + "|" + d.site + "#" +
               std::to_string(d.occurrence) + "=" + std::to_string(d.value));
  }
  return out;
}

TEST(FaultsSession, ReplayReproducesTheGeneratedRunsPlan) {
  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.session.faults.enabled = true;
  cfg.session.faults.seed = 4;
  cfg.session.faults.spec.rank_stall_p = 0.5;
  cfg.session.faults.spec.max_delay_us = 50;

  auto rank_main = [](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    for (int i = 0; i < 4; ++i) {
      int a = 0;
      const int peer = 1 - p.rank();
      if (p.rank() == 0) {
        p.send(&a, 1, Datatype::kInt, peer, 0, kCommWorld, {"fr.send"});
      } else {
        p.recv(&a, 1, Datatype::kInt, peer, 0, kCommWorld, nullptr,
               {"fr.recv"});
      }
    }
    p.finalize();
  };

  faults::FaultPlan recorded;
  {
    Session session(cfg.session);
    UniverseConfig ucfg;
    ucfg.nranks = cfg.nranks;
    session.configure(ucfg);
    Universe universe(ucfg);
    session.attach(universe);
    homp::set_default_threads(2);
    universe.run(rank_main);
    session.detach(universe);
    recorded = session.recorded_fault_plan();
  }
  ASSERT_FALSE(recorded.empty());

  SessionConfig replay_cfg = cfg.session;
  replay_cfg.faults.replay = std::make_shared<faults::FaultPlan>(recorded);
  Session session(replay_cfg);
  UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(2);
  universe.run(rank_main);
  session.detach(universe);
  EXPECT_EQ(decision_set(session.recorded_fault_plan()),
            decision_set(recorded));
}

}  // namespace
}  // namespace home
