// schedule_hunter: hunt for schedule-dependent thread-safety violations.
//
// Sweeps N seeded schedules of the hidden-race corpus app (or an injection
// benchmark), reports the violations-vs-schedules coverage curve, and
// replays every exploration-only finding to confirm the recorded schedule
// reproduces the identical violation key set.
//
//   ./schedule_hunter [--app=hidden] [--schedules=64] [--strategy=wildcard]
//                     [--seed-base=1] [--schedule-dir=DIR]
//                     [--guidance=FILE] [--stop-on-first]
//                     [--expect-violation] [--no-replay-check]
//                     [--explain] [--paranoid] [--provenance-out=FILE]
//                     [--minimize] [--min-schedule-out=DIR]
//                     [--inject=SPEC] [--fault-seed=1]
//                     [--schedule-timeout-ms=N] [--max-retries=N]
//                     [--retry-backoff-ms=N] [--quarantine-dir=DIR]
//                     [--journal=FILE] [--resume] [--wal=FILE]
//
// Resilience (ISSUE-10): --inject enables seeded fault injection
// (FaultSpec "key=value,..." — e.g. "crash=0.01,delay=0.2"), schedule i
// drawing from fault seed --fault-seed + i; each finding's *.schedule then
// records its faults too, and the replay check re-applies them.
// --schedule-timeout-ms arms a per-schedule watchdog, --max-retries re-runs
// hung/crashed schedules with backoff, and schedules that still fail are
// quarantined into --quarantine-dir as seed<N>.schedule (the run's record)
// and seed<N>.reason.txt.  --journal checkpoints every completed schedule;
// with --resume, a rerun replays journaled schedules instead of executing
// them (without --resume an existing journal is truncated).  --wal streams
// events to a crash-safe write-ahead log; since every run truncates that
// file, a --wal sweep runs its schedules on one worker instead of one per
// core.
//
// Provenance: --explain prints each finding's explanation certificate
// (causal HB witness chains); --paranoid re-verifies every certificate via
// the independent replay oracle and fails the run on any mismatch;
// --minimize ddmin-minimizes each finding's schedule (--min-schedule-out
// saves the minimized logs; implies --minimize); --provenance-out writes
// the certificates as provenance JSON.
//
// --strategy=guided uses static guidance: --guidance loads a StaticGuidance
// file (static_analyzer_cli --emit-guidance); without one, --app=hidden
// derives guidance from the app's built-in static model (src/sast/commstat).
//
// Exit codes: 0 ok; 1 a replay failed to reproduce its finding, a
// certificate failed paranoid verification, a minimized schedule failed to
// reproduce, or --expect-violation was given but the sweep found nothing
// beyond the baseline; 2 usage error; 3 a schedule hit the watchdog timeout
// and stayed quarantined; 4 a schedule crashed through all retries (a crash
// outranks a timeout when both occurred).
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>

#include "src/apps/app.hpp"
#include "src/apps/hidden_race.hpp"
#include "src/diagnose/provenance.hpp"
#include "src/explore/guidance.hpp"
#include "src/explore/sweeper.hpp"
#include "src/faults/fault.hpp"
#include "src/sast/commstat.hpp"
#include "src/util/flags.hpp"

namespace {

using namespace home;

/// Parse the resilience flags (fault injection, watchdog/retry/quarantine,
/// journal, WAL) into the sweep config; false (reason printed) on malformed
/// --inject specs.
bool apply_resilience_flags(const util::Flags& flags,
                            explore::SweepConfig* cfg) {
  const std::string inject = flags.get("inject", "");
  if (!inject.empty()) {
    faults::FaultSpec spec;
    if (!faults::FaultSpec::parse(inject, &spec)) {
      std::fprintf(stderr, "malformed --inject spec: %s\n", inject.c_str());
      return false;
    }
    cfg->session.faults.enabled = true;
    cfg->session.faults.spec = spec;
    cfg->session.faults.seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  }
  cfg->schedule_timeout_ms = flags.get_int("schedule-timeout-ms", 0);
  cfg->max_retries = flags.get_int("max-retries", 0);
  cfg->retry_backoff_ms = flags.get_int("retry-backoff-ms", 50);
  cfg->quarantine_dir = flags.get("quarantine-dir", "");
  cfg->session.wal_path = flags.get("wal", "");
  const std::string journal = flags.get("journal", "");
  if (!journal.empty()) {
    cfg->journal_path = journal;
    if (!flags.get_bool("resume", false)) {
      // Without --resume an existing journal describes a *previous* sweep:
      // start fresh rather than silently skipping its schedules.
      std::ofstream(journal, std::ios::trunc);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);

  const std::string app = flags.get("app", "hidden");
  explore::SweepConfig cfg;
  cfg.nthreads = flags.get_int("nthreads", 2);
  cfg.schedules = flags.get_int("schedules", 64);
  cfg.base_seed = static_cast<std::uint64_t>(flags.get_int("seed-base", 1));
  cfg.schedule_dir = flags.get("schedule-dir", "");
  cfg.stop_on_first_new = flags.get_bool("stop-on-first", false);
  cfg.diagnose.enabled = flags.get_bool("explain", false) ||
                         flags.get_bool("paranoid", false) ||
                         !flags.get("provenance-out", "").empty();
  cfg.diagnose.paranoid = flags.get_bool("paranoid", false);
  cfg.min_schedule_dir = flags.get("min-schedule-out", "");
  cfg.minimize =
      flags.get_bool("minimize", false) || !cfg.min_schedule_dir.empty();
  if (!explore::parse_strategy_kind(flags.get("strategy", "wildcard"),
                                    &cfg.strategy)) {
    std::fprintf(stderr,
                 "unknown --strategy (none|random|pct|delay|wildcard|"
                 "guided)\n");
    return 2;
  }
  if (!apply_resilience_flags(flags, &cfg)) return 2;

  const std::string guidance_path = flags.get("guidance", "");
  if (!guidance_path.empty()) {
    auto guidance = std::make_shared<explore::StaticGuidance>();
    if (!explore::StaticGuidance::load(guidance_path, guidance.get())) {
      std::fprintf(stderr, "cannot load guidance %s\n", guidance_path.c_str());
      return 2;
    }
    cfg.guidance = std::move(guidance);
  } else if (cfg.strategy == explore::StrategyKind::kGuided &&
             app == "hidden") {
    const sast::CommstatResult comm =
        sast::analyze_comm_source(apps::hidden_race_model_source());
    cfg.guidance = std::make_shared<explore::StaticGuidance>(comm.guidance);
    std::printf("derived guidance from static model: %zu ambiguous site(s), "
                "%zu ordered pair(s)\n",
                cfg.guidance->ambiguous.size(), cfg.guidance->ordered.size());
  }

  explore::Sweeper::RankMain rank_main;
  if (app == "hidden") {
    cfg.nranks = apps::kHiddenRaceRanks;
    rank_main = [](simmpi::Process& p) { apps::run_hidden_race_rank(p); };
  } else if (app == "lu" || app == "bt" || app == "sp") {
    const apps::AppKind kind = app == "bt" ? apps::AppKind::kBT
                               : app == "sp" ? apps::AppKind::kSP
                                             : apps::AppKind::kLU;
    cfg.nranks = flags.get_int("nranks", 2);
    const apps::AppConfig acfg =
        apps::paper_config(kind, cfg.nranks, cfg.nthreads);
    rank_main = [acfg](simmpi::Process& p) { apps::run_app_rank(acfg, p); };
  } else {
    std::fprintf(stderr, "unknown --app=%s (hidden|lu|bt|sp)\n", app.c_str());
    return 2;
  }

  explore::Sweeper sweeper(cfg);
  const explore::SweepResult result = sweeper.run(rank_main);
  std::printf("%s", result.to_string().c_str());
  if (result.first_new_schedule >= 0) {
    // Machine-parsed by CI's guided-vs-random gate; keep the format stable.
    std::printf("first exploration-only finding: schedule %d\n",
                result.first_new_schedule);
  }
  for (const std::string& err : result.run_errors) {
    std::fprintf(stderr, "run error: %s\n", err.c_str());
  }

  // Each failure mode is tracked separately so a replay failure cannot be
  // masked by a satisfied --expect-violation (and vice versa); any one
  // makes the exit code non-zero.
  int replay_failures = 0;
  bool expectation_failed = false;
  int minimize_failures = 0;
  const int certificate_failures =
      static_cast<int>(result.certificate_failures.size());

  if (cfg.diagnose.enabled) {
    diagnose::ProvenanceReport provenance;
    provenance.paranoid = cfg.diagnose.paranoid;
    provenance.verified = result.certificates_verified;
    provenance.verify_failures = result.certificate_failures;
    for (const explore::SweepFinding& f : result.findings) {
      if (f.certificate) provenance.certificates.push_back(*f.certificate);
    }
    if (flags.get_bool("explain", false) || cfg.diagnose.paranoid) {
      std::printf("%s", provenance.to_string().c_str());
    }
    const std::string out = flags.get("provenance-out", "");
    if (!out.empty()) {
      diagnose::write_provenance_json(out, provenance);
      std::printf("provenance written to %s\n", out.c_str());
    }
    if (certificate_failures > 0) {
      std::fprintf(stderr, "%d certificate(s) failed paranoid verification\n",
                   certificate_failures);
    }
  }

  if (cfg.minimize) {
    // Every exploration-only finding's minimized schedule must itself have
    // replayed to the same violation key during ddmin.
    for (const explore::SweepFinding& f : result.findings) {
      if (f.schedule_index < 0 || f.in_baseline || f.schedule.empty()) continue;
      if (!f.minimized_verified) ++minimize_failures;
    }
    if (minimize_failures > 0) {
      std::fprintf(stderr,
                   "%d minimized schedule(s) failed to reproduce their "
                   "finding\n",
                   minimize_failures);
    }
  }

  if (flags.get_bool("replay-check", true)) {
    // Determinism gate: every exploration-only finding's schedule must
    // reproduce the finding on replay.
    for (const explore::SweepFinding& f : result.findings) {
      if (f.schedule_index < 0 || f.in_baseline) continue;
      if (f.schedule.empty()) {
        // A journal-resumed finding whose schedule artifact was never
        // persisted (no --schedule-dir on the original sweep) has nothing
        // to replay; say so instead of failing a vacuous replay.
        std::printf("replay seed %llu: %s SKIPPED (no recorded schedule; "
                    "rerun with --schedule-dir to keep replay artifacts)\n",
                    static_cast<unsigned long long>(f.seed), f.key.c_str());
        continue;
      }
      // The schedule carries the finding's faults, so a fault-sweep finding
      // replays under exactly the faults that shaped it.
      const std::set<std::string> keys = sweeper.replay(f.schedule, rank_main);
      const bool reproduced = keys.count(f.key) > 0;
      std::printf("replay seed %llu: %s %s\n",
                  static_cast<unsigned long long>(f.seed), f.key.c_str(),
                  reproduced ? "REPRODUCED" : "NOT REPRODUCED");
      if (!reproduced) ++replay_failures;
    }
    if (replay_failures > 0) {
      std::fprintf(stderr, "%d replay(s) failed to reproduce their finding\n",
                   replay_failures);
    }
  }

  if (flags.get_bool("expect-violation", false) &&
      result.new_vs_baseline() == 0) {
    std::fprintf(stderr,
                 "expected an exploration-only violation; none found in %d "
                 "schedule(s)\n",
                 result.schedules_run);
    expectation_failed = true;
  }

  if (replay_failures > 0 || expectation_failed || certificate_failures > 0 ||
      minimize_failures > 0) {
    return 1;
  }
  // Quarantine outcomes surface through dedicated exit codes so CI can tell
  // "the sweep found nothing" from "the sweep could not finish cleanly";
  // a crash outranks a timeout when both occurred.
  if (result.crashes > 0) return 4;
  if (result.timeouts > 0) return 3;
  return 0;
}
