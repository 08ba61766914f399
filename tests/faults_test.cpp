// Fault-injection engine tests: spec round trips, faults in the schedule
// record, splitmix64 determinism (pinned for one seed), replay fidelity,
// crash capping, drop-with-redelivery, disabled-gate behavior, and
// end-to-end Session integration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>

#include "src/explore/schedule.hpp"
#include "src/faults/injector.hpp"
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

TEST(ScheduleFaults, FileRoundTripMixesPicksYieldsAndFaults) {
  explore::Schedule s;
  s.strategy = "wildcard";
  s.seed = 5;
  explore::Decision pick;
  pick.kind = explore::HookKind::kWildcardPick;
  pick.rank = 1;
  pick.site = "mailbox.wildcard";
  pick.occurrence = 2;
  pick.is_pick = true;
  pick.value = 1;
  s.decisions.push_back(pick);
  explore::Decision yield;
  yield.kind = explore::HookKind::kBarrier;
  yield.rank = 0;
  yield.lane = 1;
  yield.site = "";
  yield.value = 250;
  s.decisions.push_back(yield);
  s.fault_spec.emplace();
  s.fault_spec->rank_stall_p = 0.5;
  s.fault_spec->max_crashes = 2;
  s.fault_seed = 42;
  faults::FaultDecision f;
  f.kind = faults::FaultKind::kMsgDelay;
  f.rank = 1;
  f.site = "p2p.send";
  f.occurrence = 3;
  f.value = 1500;
  s.faults.push_back(f);
  f.kind = faults::FaultKind::kQueuePressure;
  f.rank = -1;
  f.site = "";
  f.occurrence = 0;
  f.value = 7;
  s.faults.push_back(f);

  const std::string path = testing::TempDir() + "/home_faults_schedule.txt";
  ASSERT_TRUE(s.save(path));
  explore::Schedule loaded;
  ASSERT_TRUE(explore::Schedule::load(path, &loaded));
  EXPECT_EQ(loaded.to_string(), s.to_string());
  ASSERT_EQ(loaded.decisions.size(), 2u);
  EXPECT_TRUE(loaded.decisions[0].is_pick);
  EXPECT_EQ(loaded.decisions[1].value, 250u);
  ASSERT_TRUE(loaded.fault_spec.has_value());
  EXPECT_DOUBLE_EQ(loaded.fault_spec->rank_stall_p, 0.5);
  EXPECT_EQ(loaded.fault_spec->max_crashes, 2);
  EXPECT_EQ(loaded.fault_seed, 42u);
  ASSERT_EQ(loaded.faults.size(), 2u);
  EXPECT_EQ(loaded.faults[0].kind, faults::FaultKind::kMsgDelay);
  EXPECT_EQ(loaded.faults[0].site, "p2p.send");
  EXPECT_EQ(loaded.faults[0].occurrence, 3u);
  EXPECT_EQ(loaded.faults[0].value, 1500u);
  EXPECT_EQ(loaded.faults[1].kind, faults::FaultKind::kQueuePressure);
  EXPECT_EQ(loaded.faults[1].rank, -1);
  EXPECT_EQ(loaded.faults[1].site, "");
  std::remove(path.c_str());
}

TEST(ScheduleFaults, VersionOneFileWithoutFaultsStillLoads) {
  explore::Schedule loaded;
  ASSERT_TRUE(explore::Schedule::parse(
      "# home explore schedule v1\n"
      "strategy random\n"
      "seed 3\n"
      "pick wildcard_pick 0 0 mailbox.wildcard 0 1\n"
      "yield barrier 1 0 - 4 120\n",
      &loaded));
  EXPECT_EQ(loaded.strategy, "random");
  EXPECT_EQ(loaded.seed, 3u);
  EXPECT_EQ(loaded.decisions.size(), 2u);
  EXPECT_FALSE(loaded.fault_spec.has_value());
  EXPECT_TRUE(loaded.faults.empty());
}

TEST(ScheduleFaults, MalformedFaultLinesAreRejected) {
  const std::string head =
      "# home explore schedule v2\nstrategy random\nseed 3\n"
      "fault_spec stall=0.5\nfault_seed 9\n";
  explore::Schedule loaded;
  ASSERT_TRUE(explore::Schedule::parse(head + "fault rank_stall 0 s 1 20\n",
                                       &loaded));
  EXPECT_FALSE(explore::Schedule::parse(head + "fault bogus 0 s 1 20\n",
                                        &loaded));  // unknown kind.
  EXPECT_FALSE(explore::Schedule::parse(head + "fault rank_stall 0 s\n",
                                        &loaded));  // missing fields.
  EXPECT_FALSE(explore::Schedule::parse(head + "fault rank_stall x s 1 2\n",
                                        &loaded));  // non-numeric rank.
  EXPECT_FALSE(explore::Schedule::parse(
      "# home explore schedule v2\nfault_spec frobnicate=1\n", &loaded));
  // Faults without the spec that generated them are not a run's record.
  EXPECT_FALSE(explore::Schedule::parse(
      "# home explore schedule v2\nfault rank_stall 0 s 1 20\n", &loaded));
}

/// One line per fault, in firing order.
std::string fault_lines(const std::vector<faults::FaultDecision>& faults) {
  std::string out;
  for (const faults::FaultDecision& d : faults) {
    out += std::string(faults::fault_kind_name(d.kind)) + " " +
           std::to_string(d.rank) + " " + d.site + " " +
           std::to_string(d.occurrence) + " " + std::to_string(d.value) + "\n";
  }
  return out;
}

/// Drive a fixed synthetic hook sequence through an injector and return the
/// faults it recorded, one line each.
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
  return fault_lines(inj.decisions());
}

TEST(Injector, SeedSevenDrawsThePinnedFaults) {
  // Every kind at once, so a change to any draw, key or occurrence counter
  // moves this list.
  faults::FaultSpec spec;
  spec.msg_delay_p = 0.1;
  spec.msg_drop_p = 0.05;
  spec.rank_stall_p = 0.1;
  spec.rank_crash_p = 0.05;
  spec.lock_pause_p = 0.1;
  spec.queue_pressure_p = 0.1;
  spec.max_delay_us = 40;
  spec.redeliver_delay_us = 40;
  faults::Injector inj(spec, 7);
  EXPECT_EQ(drive_sequence(inj),
            "msg_delay 1 t.msg 0 25\n"
            "queue_pressure -1 t.queue 4 4\n"
            "msg_drop 1 t.msg 2 14\n"
            "lock_pause 1 t.lock 2 14\n"
            "queue_pressure -1 t.queue 7 14\n"
            "msg_delay 0 t.msg 6 36\n"
            "lock_pause 0 t.lock 6 7\n"
            "queue_pressure -1 t.queue 12 19\n"
            "rank_crash 1 t.call 6 0\n"
            "queue_pressure -1 t.queue 14 11\n"
            "lock_pause 0 t.lock 8 7\n"
            "msg_delay 1 t.msg 8 8\n"
            "msg_delay 0 t.msg 10 17\n"
            "lock_pause 0 t.lock 10 40\n"
            "rank_stall 1 t.call 10 32\n"
            "rank_stall 1 t.call 11 4\n"
            "lock_pause 0 t.lock 12 29\n"
            "queue_pressure -1 t.queue 24 20\n"
            "rank_stall 0 t.call 13 30\n"
            "msg_drop 0 t.msg 15 37\n"
            "msg_delay 0 t.msg 18 5\n"
            "rank_stall 1 t.call 18 19\n"
            "queue_pressure -1 t.queue 37 23\n"
            "rank_stall 0 t.call 19 3\n");
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

  // Through the run's one record and its text form, as a saved finding is.
  explore::Schedule record;
  record.fault_spec = gen.spec();
  record.fault_seed = gen.seed();
  record.faults = gen.decisions();
  explore::Schedule loaded;
  ASSERT_TRUE(explore::Schedule::parse(record.to_string(), &loaded));
  faults::Injector rep(*loaded.fault_spec, loaded.fault_seed, loaded.faults);
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
  ASSERT_EQ(inj.decisions().size(), 1u);
  EXPECT_EQ(inj.decisions()[0].kind, faults::FaultKind::kMsgDrop);
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
  const explore::Schedule record = session.recorded_schedule();
  EXPECT_FALSE(record.faults.empty())
      << "p=0.5 over a full run must fire something";
  ASSERT_TRUE(record.fault_spec.has_value());
  EXPECT_EQ(record.fault_seed, 9u);
  EXPECT_TRUE(record.decisions.empty()) << "no explorer, no scheduling";
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
std::multiset<std::string> decision_set(const explore::Schedule& record) {
  std::multiset<std::string> out;
  for (const faults::FaultDecision& d : record.faults) {
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

  explore::Schedule recorded;
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
    recorded = session.recorded_schedule();
  }
  ASSERT_FALSE(recorded.faults.empty());

  // The replay draws nothing: a fault seed whose draws differ must not
  // matter, since the record's faults are applied exactly.
  SessionConfig replay_cfg = cfg.session;
  replay_cfg.faults.seed = 5;
  replay_cfg.explore.enabled = true;
  replay_cfg.explore.replay = std::make_shared<explore::Schedule>(recorded);
  Session session(replay_cfg);
  UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  session.configure(ucfg);
  Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(2);
  universe.run(rank_main);
  session.detach(universe);
  ASSERT_NE(session.injector(), nullptr);
  EXPECT_TRUE(session.injector()->replay_mode());
  EXPECT_EQ(decision_set(session.recorded_schedule()),
            decision_set(recorded));
}

}  // namespace
}  // namespace home
