// toolrun: run a corpus app under a tool configuration, optionally under the
// controlled-schedule explorer.
//
//   Single run:    ./toolrun --app=lu --tool=home --nranks=2 --nthreads=2
//   Exploration:   ./toolrun --app=hidden --explore=64 --strategy=wildcard
//                            [--seed-base=1] [--schedule-dir=schedules]
//                            [--guidance=FILE] [--stop-on-first]
//   Replay:        ./toolrun --app=hidden --replay=schedules/seed5.schedule
//
// A replay re-applies the record's scheduling decisions and, for a finding
// of a fault-injection sweep, exactly the faults its run fired: the one
// *.schedule file holds both.
//
// Resilience (single runs with --tool=home, and exploration):
//   --inject=SPEC         seeded fault injection (FaultSpec "key=value,...",
//                         e.g. "crash=0.01,delay=0.2"); --fault-seed=N
//   --wal=FILE            stream events to a crash-safe write-ahead log
//   Exploration only: --schedule-timeout-ms=N --max-retries=N
//   --retry-backoff-ms=N --quarantine-dir=DIR --journal=FILE --resume
//
// Provenance (single runs with --tool=home, and exploration):
//   --explain             print the explanation certificate of every finding
//   --paranoid            re-verify each certificate (implies --explain)
//   --provenance-out=FILE write certificates as provenance JSON
//   --min-schedule-out=DIR ddmin-minimize each finding's schedule into DIR
//                          (exploration only; directory must exist)
//
// --strategy=guided uses the static-guidance strategy; --guidance loads the
// StaticGuidance file (static_analyzer_cli --emit-guidance), enabling the
// sweeper's fingerprint pruning with surfaced reasons.  For --app=hidden
// with no --guidance file, guidance is derived from the app's built-in
// static model.
//
// Apps: lu | bt | sp (paper injection configs; --clean disables injections)
//       and hidden (the wildcard-gated hidden-race corpus program).
// Exploration always analyzes with HOME; --tool selects the baseline tool
// for single runs only.
#include <cstdio>
#include <fstream>
#include <string>

#include <memory>

#include "src/apps/app.hpp"
#include "src/apps/hidden_race.hpp"
#include "src/apps/toolrun.hpp"
#include "src/explore/guidance.hpp"
#include "src/explore/sweeper.hpp"
#include "src/faults/fault.hpp"
#include "src/sast/commstat.hpp"
#include "src/spec/violations.hpp"
#include "src/util/flags.hpp"

namespace {

using namespace home;

struct AppChoice {
  std::string name;
  int nranks = 2;
  int nthreads = 2;
  explore::Sweeper::RankMain rank_main;
};

/// Parse --inject / --fault-seed / --wal into a SessionConfig; false (reason
/// printed) on malformed specs.
bool apply_fault_flags(const util::Flags& flags, SessionConfig* scfg) {
  const std::string inject = flags.get("inject", "");
  if (!inject.empty()) {
    faults::FaultSpec spec;
    if (!faults::FaultSpec::parse(inject, &spec)) {
      std::fprintf(stderr, "malformed --inject spec: %s\n", inject.c_str());
      return false;
    }
    scfg->faults.enabled = true;
    scfg->faults.spec = spec;
    scfg->faults.seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  }
  scfg->wal_path = flags.get("wal", "");
  return true;
}

/// The exploration-only resilience knobs on top of apply_fault_flags.
bool apply_resilience_flags(const util::Flags& flags,
                            explore::SweepConfig* cfg) {
  if (!apply_fault_flags(flags, &cfg->session)) return false;
  cfg->schedule_timeout_ms = flags.get_int("schedule-timeout-ms", 0);
  cfg->max_retries = flags.get_int("max-retries", 0);
  cfg->retry_backoff_ms = flags.get_int("retry-backoff-ms", 50);
  cfg->quarantine_dir = flags.get("quarantine-dir", "");
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

bool diagnose_requested(const util::Flags& flags) {
  return flags.get_bool("explain", false) || flags.get_bool("paranoid", false) ||
         !flags.get("provenance-out", "").empty();
}

void apply_diagnose_flags(const util::Flags& flags, explore::SweepConfig* cfg) {
  cfg->diagnose.enabled = diagnose_requested(flags);
  cfg->diagnose.paranoid = flags.get_bool("paranoid", false);
  const std::string min_dir = flags.get("min-schedule-out", "");
  if (!min_dir.empty()) {
    cfg->minimize = true;
    cfg->min_schedule_dir = min_dir;
  }
}

/// Fold the sweep's per-finding certificates into one report for
/// provenance.json / --explain printing.
diagnose::ProvenanceReport sweep_provenance(const util::Flags& flags,
                                            const explore::SweepResult& result) {
  diagnose::ProvenanceReport report;
  report.paranoid = flags.get_bool("paranoid", false);
  report.verified = result.certificates_verified;
  report.verify_failures = result.certificate_failures;
  for (const explore::SweepFinding& f : result.findings) {
    if (f.certificate) report.certificates.push_back(*f.certificate);
  }
  return report;
}

/// Shared tail for every mode: print certificates under --explain, write
/// --provenance-out, and fail the run on paranoid verification failures.
int finish_provenance(const util::Flags& flags,
                      const diagnose::ProvenanceReport& report) {
  if (!diagnose_requested(flags)) return 0;
  if (flags.get_bool("explain", false) || flags.get_bool("paranoid", false)) {
    std::printf("%s", report.to_string().c_str());
  }
  const std::string out = flags.get("provenance-out", "");
  if (!out.empty()) {
    diagnose::write_provenance_json(out, report);
    std::printf("provenance written to %s\n", out.c_str());
  }
  return report.verify_failures.empty() ? 0 : 1;
}

bool make_app(const util::Flags& flags, AppChoice* out) {
  out->name = flags.get("app", "lu");
  out->nthreads = flags.get_int("nthreads", 2);
  if (out->name == "hidden") {
    out->nranks = apps::kHiddenRaceRanks;
    out->rank_main = [](simmpi::Process& p) { apps::run_hidden_race_rank(p); };
    return true;
  }
  apps::AppKind kind;
  if (out->name == "lu") {
    kind = apps::AppKind::kLU;
  } else if (out->name == "bt") {
    kind = apps::AppKind::kBT;
  } else if (out->name == "sp") {
    kind = apps::AppKind::kSP;
  } else {
    std::fprintf(stderr, "unknown --app=%s (lu|bt|sp|hidden)\n",
                 out->name.c_str());
    return false;
  }
  out->nranks = flags.get_int("nranks", 2);
  apps::AppConfig cfg = flags.get_bool("clean", false)
                            ? apps::clean_config(kind, out->nranks,
                                                 out->nthreads)
                            : apps::paper_config(kind, out->nranks,
                                                 out->nthreads);
  out->rank_main = [cfg](simmpi::Process& p) { apps::run_app_rank(cfg, p); };
  return true;
}

int run_single(const util::Flags& flags) {
  const std::string app = flags.get("app", "lu");
  if (app == "hidden") {
    // The hidden app is not an injection benchmark; run it uncontrolled
    // under HOME via the sweep driver's baseline path.
    AppChoice choice;
    if (!make_app(flags, &choice)) return 2;
    explore::SweepConfig cfg;
    cfg.nranks = choice.nranks;
    cfg.nthreads = choice.nthreads;
    cfg.schedules = 0;
    apply_diagnose_flags(flags, &cfg);
    if (!apply_resilience_flags(flags, &cfg)) return 2;
    const explore::SweepResult result =
        explore::Sweeper(cfg).run(choice.rank_main);
    std::printf("%s", result.to_string().c_str());
    return finish_provenance(flags, sweep_provenance(flags, result));
  }

  apps::Tool tool = apps::Tool::kHome;
  const std::string tool_name = flags.get("tool", "home");
  if (tool_name == "base") {
    tool = apps::Tool::kBase;
  } else if (tool_name == "home") {
    tool = apps::Tool::kHome;
  } else if (tool_name == "marmot") {
    tool = apps::Tool::kMarmot;
  } else if (tool_name == "itc") {
    tool = apps::Tool::kItc;
  } else {
    std::fprintf(stderr, "unknown --tool=%s (base|home|marmot|itc)\n",
                 tool_name.c_str());
    return 2;
  }

  AppChoice choice;
  if (!make_app(flags, &choice)) return 2;
  apps::AppKind kind = app == "bt" ? apps::AppKind::kBT
                       : app == "sp" ? apps::AppKind::kSP
                                     : apps::AppKind::kLU;
  apps::AppConfig cfg = flags.get_bool("clean", false)
                            ? apps::clean_config(kind, choice.nranks,
                                                 choice.nthreads)
                            : apps::paper_config(kind, choice.nranks,
                                                 choice.nthreads);
  SessionConfig scfg;
  scfg.diagnose.enabled = diagnose_requested(flags);
  scfg.diagnose.paranoid = flags.get_bool("paranoid", false);
  if (scfg.diagnose.enabled && tool != apps::Tool::kHome) {
    std::fprintf(stderr, "--explain/--paranoid requires --tool=home\n");
    return 2;
  }
  if (!apply_fault_flags(flags, &scfg)) return 2;
  if (scfg.faults.enabled && tool != apps::Tool::kHome) {
    std::fprintf(stderr, "--inject requires --tool=home\n");
    return 2;
  }
  const apps::ToolRunResult result = apps::run_with_tool(tool, cfg, scfg);
  std::printf("app=%s tool=%s run=%.3fs analysis=%.3fs\n", app.c_str(),
              apps::tool_name(tool), result.run_seconds,
              result.analysis_seconds);
  std::printf("%s", result.report.to_string().c_str());
  return finish_provenance(flags, result.provenance);
}

int run_explore(const util::Flags& flags, int schedules) {
  AppChoice choice;
  if (!make_app(flags, &choice)) return 2;

  explore::SweepConfig cfg;
  cfg.nranks = choice.nranks;
  cfg.nthreads = choice.nthreads;
  cfg.schedules = schedules;
  cfg.base_seed =
      static_cast<std::uint64_t>(flags.get_int("seed-base", 1));
  cfg.schedule_dir = flags.get("schedule-dir", "");
  if (!explore::parse_strategy_kind(flags.get("strategy", "random"),
                                    &cfg.strategy)) {
    std::fprintf(stderr,
                 "unknown --strategy (none|random|pct|delay|wildcard|"
                 "guided)\n");
    return 2;
  }
  cfg.stop_on_first_new = flags.get_bool("stop-on-first", false);
  apply_diagnose_flags(flags, &cfg);
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
             choice.name == "hidden") {
    // Derive guidance from the app's built-in static model: the same
    // commstat pass the CLI runs, closed into the sweep in-process.
    const sast::CommstatResult comm =
        sast::analyze_comm_source(apps::hidden_race_model_source());
    cfg.guidance =
        std::make_shared<explore::StaticGuidance>(comm.guidance);
    std::printf("derived guidance from static model: %zu ambiguous site(s), "
                "%zu ordered pair(s)\n",
                cfg.guidance->ambiguous.size(), cfg.guidance->ordered.size());
  }

  const explore::SweepResult result =
      explore::Sweeper(cfg).run(choice.rank_main);
  std::printf("%s", result.to_string().c_str());
  for (const std::string& err : result.run_errors) {
    std::fprintf(stderr, "run error: %s\n", err.c_str());
  }
  return finish_provenance(flags, sweep_provenance(flags, result));
}

int run_replay(const util::Flags& flags, const std::string& path) {
  AppChoice choice;
  if (!make_app(flags, &choice)) return 2;

  explore::Schedule schedule;
  if (!explore::Schedule::load(path, &schedule)) {
    std::fprintf(stderr, "cannot load schedule %s\n", path.c_str());
    return 2;
  }
  explore::SweepConfig cfg;
  cfg.nranks = choice.nranks;
  cfg.nthreads = choice.nthreads;
  const std::set<std::string> keys =
      explore::Sweeper(cfg).replay(schedule, choice.rank_main);
  std::printf("replayed %s (%zu decision(s), %zu fault(s), strategy %s, seed "
              "%llu): %zu violation(s)\n",
              path.c_str(), schedule.decisions.size(), schedule.faults.size(),
              schedule.strategy.c_str(),
              static_cast<unsigned long long>(schedule.seed), keys.size());
  for (const std::string& key : keys) std::printf("  %s\n", key.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const std::string replay = flags.get("replay", "");
  if (!replay.empty()) return run_replay(flags, replay);
  const int schedules = flags.get_int("explore", 0);
  if (schedules > 0) return run_explore(flags, schedules);
  return run_single(flags);
}
