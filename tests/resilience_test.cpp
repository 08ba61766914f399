// Sweep-robustness tests (ISSUE-10): cooperative abort, the checkpointed
// sweep journal, watchdog timeout + quarantine + bounded retry, crash
// quarantine, kill-and-resume reproducing the uninterrupted sweep's
// aggregates byte-identically, exact shed accounting in the online event
// queue, and runs that execute at once staying isolated: each sees only its
// own explorer, injector and abort.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/app.hpp"
#include "src/apps/hidden_race.hpp"
#include "src/apps/toolrun.hpp"
#include "src/explore/journal.hpp"
#include "src/explore/sweeper.hpp"
#include "src/home/session.hpp"
#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/online/event_queue.hpp"
#include "src/simmpi/abort.hpp"
#include "src/trace/event.hpp"

namespace home::explore {
namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).is_open();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------ cooperative abort

/// A run context carrying only `signal`, as Universe::run binds it.
util::RunContext aborted_by(const simmpi::AbortSignal* signal) {
  util::RunContext run;
  run.abort = signal;
  return run;
}

TEST(Abort, RequestAbortWakesABlockedWaitPromptly) {
  simmpi::AbortSignal signal;
  std::mutex mu;
  std::condition_variable cv;
  bool aborted = false;
  std::chrono::steady_clock::duration waited{};

  std::thread waiter([&] {
    util::ScopedRunContext bind(aborted_by(&signal));
    std::unique_lock<std::mutex> lock(mu);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      // Predicate never holds and the timeout is far away: only the abort
      // signal can end this wait.
      simmpi::abortable_wait(cv, lock, 60000, [] { return false; });
    } catch (const simmpi::AbortError& e) {
      aborted = true;
      EXPECT_NE(std::string(e.what()).find("watchdog test"),
                std::string::npos);
    }
    waited = std::chrono::steady_clock::now() - t0;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  signal.raise("watchdog test");
  signal.raise("a later reason");  // the first reason wins.
  waiter.join();
  EXPECT_TRUE(aborted);
  // The wait must collapse within a few poll intervals, not the timeout.
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_TRUE(signal.raised());
  EXPECT_EQ(signal.reason(), "watchdog test");
}

TEST(Abort, WaitSemanticsMatchCvWaitWhenNoAbortIsRequested) {
  const simmpi::AbortSignal signal;  // bound, never raised.
  util::ScopedRunContext bind(aborted_by(&signal));
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  // Timeout path: predicate never holds.
  EXPECT_FALSE(simmpi::abortable_wait(cv, lock, 30, [] { return false; }));
  // Immediate path: predicate already holds.
  EXPECT_TRUE(simmpi::abortable_wait(cv, lock, 30, [] { return true; }));
}

// --------------------------------------------------------- sweep journal

JournalMeta test_meta() {
  JournalMeta meta;
  meta.schedules = 4;
  meta.base_seed = 9;
  meta.strategy = "wildcard";
  return meta;
}

TEST(Journal, RecordsRoundTripAndTornTrailingBlocksAreDiscarded) {
  const std::string path = testing::TempDir() + "/home_journal_rt.txt";
  { std::ofstream(path, std::ios::trunc); }

  {
    SweepJournal journal(path, test_meta());
    ASSERT_TRUE(journal.ok());
    JournalEntry baseline;
    baseline.index = -1;
    baseline.seed = 0;
    baseline.hook_hits = 11;
    baseline.keys = {"1|0|a|a|c0"};
    journal.record(baseline);

    JournalEntry sched;
    sched.index = 2;
    sched.seed = 11;
    sched.signature = 0xfeedface;
    sched.hook_hits = 42;
    sched.status = "timeout";
    sched.retries = 3;
    sched.errors = {"rank 0: watchdog"};
    sched.schedule_path = "/tmp/seed11.schedule";
    sched.certificates = 2;
    sched.certificates_verified = 1;
    journal.record(sched);
  }
  // A block from a journal of an older format, whose `fault` line named a
  // separate fault artifact: the retired tag is skipped as unknown.
  {
    std::ofstream out(path, std::ios::app);
    out << "run 1 10 5 6 ok 0\nsched 1 /tmp/seed10.schedule\n"
           "fault 1 /tmp/seed10.faultplan\nend 1\n";
  }
  // A block torn by a kill: `run` without its closing `end`.
  {
    std::ofstream out(path, std::ios::app);
    out << "run 3 12 77 99 ok 0\nkey 3 2|0|b|b|c1\n";
  }

  std::map<int, JournalEntry> entries;
  std::size_t torn = 0;
  ASSERT_TRUE(SweepJournal::load(path, test_meta(), &entries, &torn));
  EXPECT_EQ(torn, 1u);
  ASSERT_EQ(entries.size(), 3u);
  ASSERT_TRUE(entries.count(1));
  EXPECT_EQ(entries[1].seed, 10u);
  EXPECT_EQ(entries[1].schedule_path, "/tmp/seed10.schedule");
  ASSERT_TRUE(entries.count(-1));
  EXPECT_EQ(entries[-1].hook_hits, 11u);
  EXPECT_EQ(entries[-1].keys, std::set<std::string>{"1|0|a|a|c0"});
  ASSERT_TRUE(entries.count(2));
  const JournalEntry& got = entries[2];
  EXPECT_EQ(got.seed, 11u);
  EXPECT_EQ(got.signature, 0xfeedfaceu);
  EXPECT_EQ(got.status, "timeout");
  EXPECT_EQ(got.retries, 3);
  ASSERT_EQ(got.errors.size(), 1u);
  EXPECT_EQ(got.errors[0], "rank 0: watchdog");
  EXPECT_EQ(got.schedule_path, "/tmp/seed11.schedule");
  EXPECT_EQ(got.certificates, 2u);
  EXPECT_EQ(got.certificates_verified, 1u);
  // The torn index-3 block must NOT surface.
  EXPECT_FALSE(entries.count(3));
  std::remove(path.c_str());
}

TEST(Journal, LoadRejectsAMetaMismatchAndMissingFiles) {
  const std::string path = testing::TempDir() + "/home_journal_meta.txt";
  { std::ofstream(path, std::ios::trunc); }
  {
    SweepJournal journal(path, test_meta());
    ASSERT_TRUE(journal.ok());
  }
  std::map<int, JournalEntry> entries;
  JournalMeta other = test_meta();
  other.base_seed = 1234;  // a *different* sweep's journal must not resume.
  EXPECT_FALSE(SweepJournal::load(path, other, &entries));
  EXPECT_TRUE(SweepJournal::load(path, test_meta(), &entries));
  EXPECT_FALSE(SweepJournal::load(path + ".does-not-exist", test_meta(),
                                  &entries));
  std::remove(path.c_str());
}

// ---------------------------------------- watchdog, retries, quarantine

/// Rank 0 posts a receive no rank ever satisfies: a deterministic hang with
/// no fault injection involved.
Sweeper::RankMain hanging_main() {
  return [](simmpi::Process& p) {
    p.init_thread(simmpi::ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      int x = 0;
      p.recv(&x, 1, simmpi::Datatype::kInt, 1, 99, simmpi::kCommWorld,
             nullptr, {"hang.recv"});
    }
    p.finalize();
  };
}

TEST(SweepResilience, WatchdogQuarantinesAHangingScheduleAfterRetries) {
  SweepConfig cfg;
  cfg.nranks = 2;
  cfg.nthreads = 1;
  cfg.schedules = 1;
  cfg.run_baseline = false;  // the baseline would hang identically.
  cfg.strategy = StrategyKind::kRandomWalk;
  cfg.schedule_timeout_ms = 300;
  cfg.block_timeout_ms = 60000;  // only the watchdog may end the run.
  cfg.max_retries = 2;
  cfg.retry_backoff_ms = 1;
  cfg.quarantine_dir = testing::TempDir();

  const SweepResult result = Sweeper(cfg).run(hanging_main());
  EXPECT_EQ(result.schedules_run, 1);
  EXPECT_EQ(result.timeouts, 1);
  EXPECT_EQ(result.crashes, 0);
  EXPECT_EQ(result.retries, 2);  // two re-runs beyond the first attempt.
  ASSERT_EQ(result.quarantined.size(), 1u);
  const QuarantinedSchedule& q = result.quarantined[0];
  EXPECT_EQ(q.status, "timeout");
  EXPECT_EQ(q.retries, 2);
  EXPECT_FALSE(q.reason.empty());
  ASSERT_FALSE(q.schedule_path.empty());
  EXPECT_TRUE(file_exists(q.schedule_path));
  // The human-readable reason rides along with the artifacts.
  const std::string reason_path =
      cfg.quarantine_dir + "/seed" + std::to_string(q.seed) + ".reason.txt";
  EXPECT_TRUE(file_exists(reason_path));
  const std::string reason = slurp(reason_path);
  EXPECT_NE(reason.find("timeout"), std::string::npos);
  std::remove(q.schedule_path.c_str());
  std::remove(reason_path.c_str());
}

TEST(SweepResilience, ACrashingScheduleIsQuarantinedAsACrash) {
  SweepConfig cfg;
  cfg.nranks = 0;  // Universe rejects nranks=0: a deterministic "crash".
  cfg.schedules = 1;
  cfg.run_baseline = false;
  cfg.max_retries = 1;
  cfg.retry_backoff_ms = 1;

  const SweepResult result = Sweeper(cfg).run([](simmpi::Process&) {});
  EXPECT_EQ(result.crashes, 1);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.retries, 1);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].status, "crash");
  EXPECT_FALSE(result.quarantined[0].reason.empty());
}

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::set<std::string> file_names(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

TEST(SweepResilience, AQuarantinedFaultedScheduleLeavesOneRecordOfItsFaults) {
  SweepConfig cfg;
  cfg.nranks = 0;  // Universe rejects nranks=0: a crash before any record.
  cfg.schedules = 1;
  cfg.base_seed = 3;
  cfg.run_baseline = false;
  cfg.session.faults.enabled = true;
  cfg.session.faults.seed = 40;
  cfg.session.faults.spec.rank_stall_p = 0.25;
  cfg.quarantine_dir = fresh_dir("home_quarantine_faulted");

  const SweepResult result = Sweeper(cfg).run([](simmpi::Process&) {});
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(file_names(cfg.quarantine_dir),
            (std::set<std::string>{"seed3.schedule", "seed3.reason.txt"}));
  // The header alone re-derives the run: strategy and seed, fault spec and
  // the schedule's own fault seed.
  Schedule record;
  ASSERT_TRUE(Schedule::load(result.quarantined[0].schedule_path, &record));
  EXPECT_TRUE(record.empty());
  EXPECT_EQ(record.seed, 3u);
  EXPECT_EQ(record.strategy, strategy_kind_name(cfg.strategy));
  ASSERT_TRUE(record.fault_spec.has_value());
  EXPECT_DOUBLE_EQ(record.fault_spec->rank_stall_p, 0.25);
  EXPECT_EQ(record.fault_seed, 40u);
  std::filesystem::remove_all(cfg.quarantine_dir);
}

// ------------------------------------------------------- kill and resume

Sweeper::RankMain hidden_main() {
  return [](simmpi::Process& p) { apps::run_hidden_race_rank(p); };
}

SweepConfig hidden_config(const std::string& journal_path) {
  SweepConfig cfg;
  cfg.nranks = apps::kHiddenRaceRanks;
  cfg.nthreads = 2;
  cfg.schedules = 6;
  cfg.base_seed = 1;
  cfg.strategy = StrategyKind::kWildcardReorder;
  cfg.schedule_dir = testing::TempDir();
  cfg.journal_path = journal_path;
  return cfg;
}

std::set<std::string> finding_keys(const SweepResult& r) {
  std::set<std::string> keys;
  for (const SweepFinding& f : r.findings) keys.insert(f.key);
  return keys;
}

TEST(SweepResilience, AFaultSweepFindingIsOneScheduleThatReplaysItsFaults) {
  SweepConfig cfg = hidden_config("");
  cfg.schedules = 8;
  cfg.schedule_dir = fresh_dir("home_fault_findings");
  cfg.session.faults.enabled = true;
  cfg.session.faults.seed = 1;
  ASSERT_TRUE(faults::FaultSpec::parse("delay=0.3,stall=0.2,max_delay_us=200",
                                       &cfg.session.faults.spec));
  Sweeper sweeper(cfg);
  const SweepResult result = sweeper.run(hidden_main());

  std::set<std::string> expected_files;
  std::size_t faulted = 0;
  for (const SweepFinding& f : result.findings) {
    if (f.schedule_index < 0) continue;
    const std::string name = "seed" + std::to_string(f.seed) + ".schedule";
    EXPECT_EQ(f.schedule_path, cfg.schedule_dir + "/" + name);
    expected_files.insert(name);
    Schedule loaded;
    ASSERT_TRUE(Schedule::load(f.schedule_path, &loaded));
    EXPECT_EQ(loaded.to_string(), f.schedule.to_string());
    ASSERT_TRUE(loaded.fault_spec.has_value());
    EXPECT_EQ(loaded.fault_seed, f.seed) << "schedule i draws fault seed 1 + i";
    if (!loaded.faults.empty()) ++faulted;
    EXPECT_EQ(sweeper.replay(loaded, hidden_main()).count(f.key), 1u)
        << f.key << " from seed " << f.seed;
  }
  ASSERT_FALSE(expected_files.empty());
  EXPECT_GT(faulted, 0u);
  EXPECT_EQ(file_names(cfg.schedule_dir), expected_files);
  std::filesystem::remove_all(cfg.schedule_dir);
}

TEST(SweepResilience, ResumeReproducesTheUninterruptedSweepByteIdentically) {
  const std::string ja = testing::TempDir() + "/home_resume_a.journal";
  const std::string jb = testing::TempDir() + "/home_resume_b.journal";
  { std::ofstream(ja, std::ios::trunc); }

  const SweepResult full = Sweeper(hidden_config(ja)).run(hidden_main());
  ASSERT_GT(full.findings.size(), 0u);
  EXPECT_EQ(full.resumed, 0);

  // Simulate a kill *after* the sweep's last checkpoint: copy the journal
  // and tear its tail (a block the kill interrupted mid-write).
  {
    std::ofstream out(jb, std::ios::trunc | std::ios::binary);
    out << slurp(ja);
    out << "run 99 100 1 2 ok 0\nkey 99 torn|record\n";
  }
  const SweepResult resumed = Sweeper(hidden_config(jb)).run(hidden_main());

  // Every schedule (and the baseline) replays from the journal...
  EXPECT_EQ(resumed.resumed, 7);  // 6 schedules + the baseline.
  EXPECT_EQ(resumed.journal_torn_blocks, 1u);
  // ...and the aggregates are byte-identical to the uninterrupted sweep's.
  EXPECT_EQ(finding_keys(resumed), finding_keys(full));
  EXPECT_EQ(resumed.baseline_keys, full.baseline_keys);
  EXPECT_EQ(resumed.coverage_curve, full.coverage_curve);
  EXPECT_EQ(resumed.hook_hits, full.hook_hits);
  EXPECT_EQ(resumed.schedules_run, full.schedules_run);
  ASSERT_EQ(resumed.findings.size(), full.findings.size());
  for (std::size_t i = 0; i < full.findings.size(); ++i) {
    EXPECT_EQ(resumed.findings[i].key, full.findings[i].key);
    EXPECT_EQ(resumed.findings[i].seed, full.findings[i].seed);
    EXPECT_EQ(resumed.findings[i].schedule_index,
              full.findings[i].schedule_index);
  }
  std::remove(ja.c_str());
  std::remove(jb.c_str());
}

TEST(SweepResilience, AMidSweepKillResumesAndCompletesTheRemainder) {
  const std::string ja = testing::TempDir() + "/home_reskill_a.journal";
  const std::string jc = testing::TempDir() + "/home_reskill_c.journal";
  { std::ofstream(ja, std::ios::trunc); }

  const SweepResult full = Sweeper(hidden_config(ja)).run(hidden_main());
  ASSERT_GT(full.findings.size(), 0u);

  // Simulate SIGKILL mid-sweep: keep only the first three `end`-closed
  // blocks (baseline + two schedules), exactly what flush-per-record
  // guarantees survives.
  {
    std::istringstream in(slurp(ja));
    std::ofstream out(jc, std::ios::trunc | std::ios::binary);
    std::string line;
    int ends = 0;
    while (ends < 3 && std::getline(in, line)) {
      out << line << '\n';
      if (line.rfind("end ", 0) == 0) ++ends;
    }
    ASSERT_EQ(ends, 3);
  }
  const SweepResult resumed = Sweeper(hidden_config(jc)).run(hidden_main());

  EXPECT_EQ(resumed.resumed, 3);
  EXPECT_EQ(resumed.schedules_run, full.schedules_run);
  // The resumed half re-runs live; per-seed schedule determinism makes the
  // union land exactly where the uninterrupted sweep did.
  EXPECT_EQ(finding_keys(resumed), finding_keys(full));
  EXPECT_EQ(resumed.coverage_curve, full.coverage_curve);
  std::remove(ja.c_str());
  std::remove(jc.c_str());
}

// ------------------------------------------------ isolated concurrent runs

/// What one checked run left behind.
struct RunRecord {
  simmpi::RunResult run;
  std::set<std::string> keys;
  Schedule schedule;  ///< scheduling decisions and injected faults.
};

/// One checked run of `rank_main` on its own Session and Universe.  `ready`
/// runs after attach(), right before the run starts (a start barrier).
RunRecord checked_run(const SessionConfig& scfg, int nranks,
                      const Sweeper::RankMain& rank_main,
                      const std::function<void()>& ready = {}) {
  Session session(scfg);
  simmpi::UniverseConfig ucfg;
  ucfg.nranks = nranks;
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  if (ready) ready();
  RunRecord rec;
  rec.run = universe.run(rank_main);
  session.detach(universe);
  const Report report = session.analyze();
  for (const spec::Violation& v : report.violations()) {
    rec.keys.insert(spec::violation_key(v));
  }
  rec.schedule = session.recorded_schedule();
  return rec;
}

SessionConfig wildcard_session(std::uint64_t seed) {
  SessionConfig scfg;
  scfg.explore.enabled = true;
  scfg.explore.strategy = StrategyKind::kWildcardReorder;
  scfg.explore.seed = seed;
  return scfg;
}

RunRecord hidden_run(std::uint64_t seed,
                     const std::function<void()>& ready = {}) {
  return checked_run(wildcard_session(seed), apps::kHiddenRaceRanks,
                     hidden_main(), ready);
}

TEST(ConcurrentRuns, EachExplorerRecordsOnlyItsOwnRun) {
  // Two seeds whose runs differ: one takes the hidden branch, one does not.
  const char kHiddenKey[] = "2|0|hidden.racy_recv|hidden.racy_recv|comm1";
  std::uint64_t seeds[2] = {0, 0};
  for (std::uint64_t seed = 1; seed < 64 && (!seeds[0] || !seeds[1]); ++seed) {
    const bool hidden = hidden_run(seed).keys.count(kHiddenKey) > 0;
    std::uint64_t& slot = seeds[hidden ? 0 : 1];
    if (slot == 0) slot = seed;
  }
  ASSERT_NE(seeds[0], 0u);
  ASSERT_NE(seeds[1], 0u);
  const RunRecord alone[2] = {hidden_run(seeds[0]), hidden_run(seeds[1])};
  ASSERT_NE(alone[0].schedule.to_string(), alone[1].schedule.to_string());

  for (int round = 0; round < 8; ++round) {
    std::latch start(2);
    RunRecord both[2];
    std::thread other(
        [&] { both[1] = hidden_run(seeds[1], [&] { start.arrive_and_wait(); }); });
    both[0] = hidden_run(seeds[0], [&] { start.arrive_and_wait(); });
    other.join();
    for (int k = 0; k < 2; ++k) {
      EXPECT_TRUE(both[k].run.ok()) << "seed " << seeds[k];
      EXPECT_EQ(both[k].schedule.to_string(), alone[k].schedule.to_string())
          << "seed " << seeds[k] << ", round " << round;
      EXPECT_EQ(both[k].keys, alone[k].keys)
          << "seed " << seeds[k] << ", round " << round;
    }
  }
}

TEST(ConcurrentRuns, AbortingOneUniverseLeavesTheRunBesideItAlone) {
  const RunRecord alone = hidden_run(1);
  ASSERT_TRUE(alone.run.ok());

  simmpi::UniverseConfig hcfg;
  hcfg.nranks = 2;
  hcfg.block_timeout_ms = 60000;  // only the abort may end the hang.
  simmpi::Universe hung(hcfg);
  simmpi::RunResult hung_result;
  std::thread hang([&] { hung_result = hung.run(hanging_main()); });

  // The run beside it aborts the hung universe from inside, then keeps
  // blocking in its own MPI calls across several abort polls.
  const RunRecord beside = checked_run(
      wildcard_session(1), apps::kHiddenRaceRanks, [&](simmpi::Process& p) {
        if (p.rank() == 0) hung.request_abort("test abort");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(3 * simmpi::kAbortPollMs));
        apps::run_hidden_race_rank(p);
      });
  hang.join();

  ASSERT_EQ(hung_result.failed_ranks, std::vector<int>{0});
  EXPECT_NE(hung_result.errors[0].find("test abort"), std::string::npos)
      << hung_result.errors[0];
  EXPECT_TRUE(hung.abort_requested());
  EXPECT_TRUE(beside.run.ok())
      << (beside.run.errors.empty() ? "" : beside.run.errors[0]);
  EXPECT_EQ(beside.keys, alone.keys);
  EXPECT_EQ(beside.schedule.to_string(), alone.schedule.to_string());
}

/// Rank ring of `rounds` sends and receives labelled `<tag>.send`/`.recv`.
Sweeper::RankMain ring_main(const std::string& tag, int rounds) {
  return [tag, rounds](simmpi::Process& p) {
    p.init_thread(simmpi::ThreadLevel::kMultiple);
    const int next = (p.rank() + 1) % p.size();
    const int prev = (p.rank() + p.size() - 1) % p.size();
    const std::string send_site = tag + ".send";
    const std::string recv_site = tag + ".recv";
    for (int i = 0; i < rounds; ++i) {
      int x = i;
      p.send(&x, 1, simmpi::Datatype::kInt, next, i, simmpi::kCommWorld,
             {send_site.c_str()});
      p.recv(&x, 1, simmpi::Datatype::kInt, prev, i, simmpi::kCommWorld,
             nullptr, {recv_site.c_str()});
    }
    p.finalize();
  };
}

TEST(ConcurrentRuns, AFaultedRunNeverInjectsIntoTheRunBesideIt) {
  SessionConfig faulted;
  faulted.faults.enabled = true;
  faulted.faults.seed = 3;
  faulted.faults.spec.rank_stall_p = 1.0;
  faulted.faults.spec.msg_delay_p = 1.0;
  faulted.faults.spec.max_delay_us = 200;
  const SessionConfig clean;

  std::latch start(2);
  RunRecord faulted_run, clean_run;
  std::thread other([&] {
    faulted_run = checked_run(faulted, 2, ring_main("faulted", 64),
                              [&] { start.arrive_and_wait(); });
  });
  clean_run = checked_run(clean, 2, ring_main("clean", 64),
                          [&] { start.arrive_and_wait(); });
  other.join();

  EXPECT_TRUE(faulted_run.run.ok());
  ASSERT_FALSE(faulted_run.schedule.faults.empty());
  for (const faults::FaultDecision& d : faulted_run.schedule.faults) {
    EXPECT_EQ(d.site.rfind("clean.", 0), std::string::npos)
        << "the faulted run's injector fired in the clean run at " << d.site;
  }
  EXPECT_TRUE(clean_run.run.ok())
      << (clean_run.run.errors.empty() ? "" : clean_run.run.errors[0]);
  EXPECT_TRUE(clean_run.schedule.faults.empty());
}

std::set<std::string> report_keys(const Report& report) {
  std::set<std::string> keys;
  for (const spec::Violation& v : report.violations()) {
    keys.insert(spec::violation_key(v));
  }
  return keys;
}

TEST(ConcurrentRuns, AppRunsKeepTheirOwnCriticalsAndTeamState) {
  // BT's paper configuration holds a named critical across a collective
  // (the benign bait) and shares one V4 request across each rank's team:
  // per-run state that two runs at once must not share.
  const apps::AppConfig cfg = apps::paper_config(apps::AppKind::kBT, 2);
  const apps::ToolRunResult alone = apps::run_with_tool(apps::Tool::kHome, cfg);
  ASSERT_TRUE(alone.run.ok());
  const std::set<std::string> want = report_keys(alone.report);

  for (int round = 0; round < 2; ++round) {
    apps::ToolRunResult both[2];
    std::thread other(
        [&] { both[1] = apps::run_with_tool(apps::Tool::kHome, cfg); });
    both[0] = apps::run_with_tool(apps::Tool::kHome, cfg);
    other.join();
    for (const apps::ToolRunResult& r : both) {
      EXPECT_TRUE(r.run.ok()) << (r.run.errors.empty() ? "" : r.run.errors[0]);
      EXPECT_EQ(report_keys(r.report), want) << "round " << round;
    }
  }
}

// ------------------------------------------- pooled threads start clean

/// The OS threads that ran a rank or team body, noted as they run.
struct ThreadsSeen {
  std::mutex mu;
  std::set<std::thread::id> ids;
  void note() {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  }
};

/// Figure 2's same-tag ping-pong (a V3) with a named critical in the team,
/// so lock events and locksets are part of what the run emits.
Sweeper::RankMain locked_pingpong(ThreadsSeen* seen) {
  return [seen](simmpi::Process& p) {
    p.init_thread(simmpi::ThreadLevel::kMultiple);
    homp::parallel(2, [&] {
      seen->note();
      int a = homp::thread_num();
      homp::critical("reuse.count", [&] { ++a; });
      if (p.rank() == 0) {
        p.send(&a, 1, simmpi::Datatype::kInt, 1, 0, simmpi::kCommWorld,
               {"reuse.send0"});
        p.recv(&a, 1, simmpi::Datatype::kInt, 1, 0, simmpi::kCommWorld,
               nullptr, {"reuse.recv0"});
      } else {
        p.recv(&a, 1, simmpi::Datatype::kInt, 0, 0, simmpi::kCommWorld,
               nullptr, {"reuse.recv1"});
        p.send(&a, 1, simmpi::Datatype::kInt, 0, 0, simmpi::kCommWorld,
               {"reuse.send1"});
      }
    });
    p.finalize();
  };
}

TEST(ThreadReuse, ARunAfterARankAbortedHoldingALockStartsClean) {
  ThreadsSeen solo_threads;
  const RunRecord solo =
      checked_run(SessionConfig{}, 2, locked_pingpong(&solo_threads));
  ASSERT_TRUE(solo.run.ok());
  ASSERT_FALSE(solo.keys.empty());

  // Every rank takes its lock with lock() and is aborted before it can
  // release it.  The locks are never destroyed: a locked mutex may not be.
  static homp::Lock* const held = new homp::Lock[2];
  ThreadsSeen aborted_threads;
  const RunRecord aborted =
      checked_run(SessionConfig{}, 2, [&](simmpi::Process& p) {
        aborted_threads.note();
        p.init_thread(simmpi::ThreadLevel::kMultiple);
        held[p.rank()].lock();
        if (p.rank() == 0) p.universe().request_abort("aborted holding a lock");
        int x = 0;
        p.recv(&x, 1, simmpi::Datatype::kInt, 1 - p.rank(), 99,
               simmpi::kCommWorld);
      });
  ASSERT_EQ(aborted.run.failed_ranks.size(), 2u);

  ThreadsSeen after_threads;
  Session session;
  simmpi::UniverseConfig ucfg;
  ucfg.nranks = 2;
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  const simmpi::RunResult run = universe.run([&](simmpi::Process& p) {
    after_threads.note();
    locked_pingpong(&after_threads)(p);
  });
  session.detach(universe);
  ASSERT_TRUE(run.ok()) << (run.errors.empty() ? "" : run.errors[0]);
  EXPECT_EQ(report_keys(session.analyze()), solo.keys);

  // A lockset holds only locks this run acquired.
  const std::vector<trace::Event> events = session.log().sorted_events();
  std::set<trace::ObjId> acquired;
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::kLockAcquire) acquired.insert(e.obj);
  }
  ASSERT_FALSE(acquired.empty());
  for (const trace::Event& e : events) {
    for (const trace::ObjId id : e.locks_held) {
      EXPECT_EQ(acquired.count(id), 1u)
          << "event " << e.seq << " carries lock " << id
          << " this run never acquired";
      EXPECT_NE(id, held[0].id());
      EXPECT_NE(id, held[1].id());
    }
  }

  // Not vacuous: the aborted ranks' threads ran this run's bodies.
  std::size_t reused = 0;
  for (const std::thread::id id : after_threads.ids) {
    reused += aborted_threads.ids.count(id);
  }
  EXPECT_GE(reused, 1u);
}

// ------------------------------------------------- online shed accounting

TEST(EventQueue, ShedAndShutdownDropsAreAccountedByCause) {
  online::EventQueue q(2, online::BackpressurePolicy::kDropNewest);
  EXPECT_EQ(q.push_accounted(trace::Event{}), online::PushOutcome::kAccepted);
  EXPECT_EQ(q.push_accounted(trace::Event{}), online::PushOutcome::kAccepted);
  // Full queue under kDropNewest: the incoming event is shed, by capacity.
  EXPECT_EQ(q.push_accounted(trace::Event{}),
            online::PushOutcome::kShedCapacity);
  EXPECT_EQ(q.dropped_capacity(), 1u);
  EXPECT_EQ(q.dropped_shutdown(), 0u);

  q.close();
  EXPECT_EQ(q.push_accounted(trace::Event{}),
            online::PushOutcome::kDroppedShutdown);
  EXPECT_EQ(q.dropped_capacity(), 1u);
  EXPECT_EQ(q.dropped_shutdown(), 1u);
  EXPECT_EQ(q.dropped(), 2u);

  // Pending events stay poppable after close; then the queue drains out.
  trace::Event e;
  EXPECT_TRUE(q.pop(&e));
  EXPECT_TRUE(q.pop(&e));
  EXPECT_FALSE(q.pop(&e));
}

}  // namespace
}  // namespace home::explore
