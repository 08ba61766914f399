// Sweep driver (ISSUE-7 tentpole): run N seeded schedules of a hybrid app
// under HOME, aggregate unique violation keys with their first-seen seed and
// replayable schedule, and report interleaving coverage.
//
// The Sweeper is the concurrency-testing front door: `toolrun --explore N`
// and `examples/schedule_hunter` both drive it.  Every schedule is one full
// Session run (controlled by a seeded Strategy); any schedule that surfaces
// a violation key the baseline run missed yields a decision log that
// replays the finding deterministically (Sweeper::replay).  Each run has its
// own Session and Universe, so run() executes the schedules on up to one
// worker per core and folds their outcomes in schedule index order: the
// result and the journal are those of a serial sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/diagnose/certificate.hpp"
#include "src/diagnose/provenance.hpp"
#include "src/explore/hooks.hpp"
#include "src/explore/journal.hpp"
#include "src/explore/strategy.hpp"
#include "src/home/session.hpp"
#include "src/simmpi/universe.hpp"

namespace home::explore {

struct SweepConfig {
  int nranks = 2;
  int nthreads = 2;
  int schedules = 16;               ///< controlled runs (excl. the baseline).
  std::uint64_t base_seed = 1;      ///< schedule i uses seed base_seed + i.
  StrategyKind strategy = StrategyKind::kRandomWalk;
  /// Detection knobs reused for every run (explore fields are overwritten).
  SessionConfig session;
  /// Run one uncontrolled schedule first, as the single-run baseline the
  /// sweep is compared against.
  bool run_baseline = true;
  /// When nonempty, the first-seen schedule of every new violation is saved
  /// as <dir>/seed<seed>.schedule (directory must exist).
  std::string schedule_dir;
  /// Forwarded to simmpi::UniverseConfig.
  int block_timeout_ms = 10000;
  /// Static guidance (src/sast/commstat): forwarded to the kGuided strategy
  /// and used to prune schedules whose guided pick fingerprint duplicates an
  /// earlier seed's — such runs can only permute statically-ordered pairs.
  std::shared_ptr<const StaticGuidance> guidance;
  /// Stop sweeping after the first exploration-exclusive finding (time-to-
  /// first-violation measurements); later schedules that already ran are
  /// neither folded nor journaled.
  bool stop_on_first_new = false;
  /// Violation provenance: build an explanation certificate for every
  /// violation each run reports and attach it to the finding.
  diagnose::Options diagnose;
  /// ddmin-minimize the first-seen schedule of every exploration finding
  /// (replay-driven: up to diagnose::MinimizeOptions::max_replays full
  /// controlled runs each).
  bool minimize = false;
  /// When nonempty, minimized schedules are saved as
  /// <dir>/seed<seed>.min.schedule (directory must exist).
  std::string min_schedule_dir;
  // --- resilience (ISSUE-10) ----------------------------------------------
  /// Per-schedule wall-clock watchdog (ms; 0 = off).  A schedule that
  /// exceeds it is torn down via its Universe::request_abort within one poll
  /// interval and classified through the DeadlockMonitor's wait-for graph.
  int schedule_timeout_ms = 0;
  /// Bounded retry for crashed/hung schedules: up to max_retries re-runs
  /// with exponential backoff (retry_backoff_ms, doubled per attempt).
  int max_retries = 0;
  int retry_backoff_ms = 50;
  /// When nonempty, schedules that still fail after the retries get their
  /// reproduction artifacts persisted here (seed<seed>.schedule, the run's
  /// record with its faults, and seed<seed>.reason.txt; directory must
  /// exist).
  std::string quarantine_dir;
  /// When nonempty, every completed schedule is checkpointed to this
  /// append-only journal, and a rerun with the same journal *resumes*:
  /// journaled schedules are replayed from their records instead of
  /// executed, reproducing the uninterrupted sweep's key set and coverage
  /// aggregates.  (Certificate *objects* are not journaled — resume a
  /// diagnose sweep only for its key/coverage aggregates.)
  std::string journal_path;
};

/// One unique violation key and the earliest schedule that produced it.
struct SweepFinding {
  std::string key;
  std::uint64_t seed = 0;
  int schedule_index = -1;     ///< -1 = found by the uncontrolled baseline.
  Schedule schedule;           ///< empty for baseline findings.
  std::string schedule_path;   ///< set when saved to schedule_dir.
  bool in_baseline = false;    ///< also reported by the uncontrolled run.
  /// Explanation certificate from the first-seen run (SweepConfig::diagnose;
  /// shared so SweepResult copies stay cheap).
  std::shared_ptr<diagnose::Certificate> certificate;
  /// ddmin results (SweepConfig::minimize; minimized is empty and verified
  /// false until minimization ran and the replay reproduced `key`).
  Schedule minimized;
  bool minimized_verified = false;
  int minimize_replays = 0;
  std::string min_schedule_path;  ///< set when saved to min_schedule_dir.
};

/// A schedule that kept failing (hang or crash) through all retries; its
/// reproduction artifacts are persisted under SweepConfig::quarantine_dir.
struct QuarantinedSchedule {
  int index = -1;
  std::uint64_t seed = 0;
  std::string status;  ///< "timeout" | "crash".
  std::string reason;  ///< watchdog diagnosis or exception message.
  int retries = 0;     ///< attempts beyond the first.
  std::string schedule_path;
};

/// A schedule the sweep skipped without running, with the static reason.
struct PrunedSchedule {
  int index = -1;
  std::uint64_t seed = 0;
  std::string reason;
};

struct SweepResult {
  int schedules_run = 0;
  std::set<std::string> baseline_keys;
  std::vector<SweepFinding> findings;       ///< unique keys, first-seen order.
  /// findings-vs-schedules curve: cumulative unique keys after schedule i
  /// (index 0 = after the baseline when run_baseline, else after schedule 0).
  std::vector<std::size_t> coverage_curve;
  std::set<std::uint64_t> orderings;        ///< distinct sync-point orderings.
  std::uint64_t hook_hits = 0;              ///< total hook hits, all runs.
  double seconds = 0.0;
  std::vector<std::string> run_errors;      ///< rank failures, per schedule.
  std::vector<PrunedSchedule> pruned;       ///< statically-pruned schedules.
  /// Index of the first schedule that surfaced an exploration-exclusive
  /// violation (-1 = none did).
  int first_new_schedule = -1;
  // --- provenance aggregates (SweepConfig::diagnose / minimize) -----------
  std::size_t certificates = 0;           ///< built across all runs.
  std::size_t certificates_verified = 0;  ///< paranoid passes.
  std::vector<std::string> certificate_failures;  ///< paranoid failures.
  int minimize_replays = 0;               ///< replays spent by ddmin, total.
  // --- resilience aggregates (ISSUE-10) -----------------------------------
  std::vector<QuarantinedSchedule> quarantined;
  int timeouts = 0;      ///< schedules whose final attempt hit the watchdog.
  int crashes = 0;       ///< schedules whose final attempt threw.
  int retries = 0;       ///< total re-run attempts across all schedules.
  int resumed = 0;       ///< schedules replayed from the journal, not run.
  std::size_t journal_torn_blocks = 0;  ///< discarded torn journal records.

  /// Keys the sweep found that the baseline run did not.
  std::size_t new_vs_baseline() const;
  std::string to_string() const;
};

class Sweeper {
 public:
  using RankMain = std::function<void(simmpi::Process&)>;

  explicit Sweeper(SweepConfig cfg) : cfg_(std::move(cfg)) {}

  /// The full sweep: baseline + cfg.schedules controlled runs, executed
  /// concurrently (one worker per core; one in all when
  /// cfg.session.wal_path is set, since each run truncates that file) and
  /// folded in index order.  `rank_main` runs on several universes at once.
  /// Minimization stays serial.
  SweepResult run(const RankMain& rank_main);

  /// Replay one recorded run — its scheduling decisions and, when it
  /// injected faults, exactly those faults; returns the run's violation key
  /// set.
  std::set<std::string> replay(const Schedule& schedule,
                               const RankMain& rank_main);

 private:
  struct RunOutcome {
    std::set<std::string> keys;
    Schedule schedule;
    std::uint64_t signature = 0;
    std::uint64_t hook_hits = 0;
    std::vector<std::string> errors;
    diagnose::ProvenanceReport provenance;
    bool timed_out = false;       ///< watchdog aborted this run.
    std::string hang_diagnosis;   ///< DeadlockMonitor classification.
  };

  /// One watchdog-guarded attempt sequence: run, retry on hang/crash with
  /// backoff, and report the final status ("ok" | "timeout" | "crash").
  struct GuardedRun {
    RunOutcome outcome;
    std::string status = "ok";
    std::string failure;
    int retries = 0;
  };

  /// `with_diagnose` lets the minimization-replay oracle skip certificate
  /// construction (a replay only needs the key set).  `fault_seed` overrides
  /// SessionConfig::faults.seed when nonzero.
  RunOutcome run_once(const Options& opts, const RankMain& rank_main,
                      bool with_diagnose, std::uint64_t fault_seed = 0);
  GuardedRun run_guarded(const Options& opts, const RankMain& rank_main,
                         bool with_diagnose, std::uint64_t fault_seed);
  void quarantine(SweepResult& result, const GuardedRun& guard, int index,
                  std::uint64_t seed, const Options& opts,
                  std::uint64_t fault_seed);
  void minimize_findings(SweepResult& result, const RankMain& rank_main);

  SweepConfig cfg_;
};

}  // namespace home::explore
