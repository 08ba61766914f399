#include "src/explore/sweeper.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "src/diagnose/minimize.hpp"

#include "src/home/deadlock_monitor.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

namespace home::explore {

std::size_t SweepResult::new_vs_baseline() const {
  std::size_t n = 0;
  for (const SweepFinding& f : findings) {
    if (!f.in_baseline) ++n;
  }
  return n;
}

std::string SweepResult::to_string() const {
  std::ostringstream os;
  os << "explore sweep: " << schedules_run << " schedule(s), "
     << orderings.size() << " distinct ordering(s), " << findings.size()
     << " unique violation(s) (" << baseline_keys.size() << " baseline, +"
     << new_vs_baseline() << " exploration-only), " << hook_hits
     << " hook hits, " << seconds << " s\n";
  for (const SweepFinding& f : findings) {
    os << "  " << f.key;
    if (f.schedule_index < 0) {
      os << "  [baseline]";
    } else {
      os << "  [first seen: schedule " << f.schedule_index << ", seed "
         << f.seed << (f.in_baseline ? ", also in baseline" : "") << "]";
    }
    if (f.certificate) os << " [certified]";
    if (!f.schedule_path.empty()) os << " -> " << f.schedule_path;
    os << "\n";
    if (f.minimized_verified || !f.minimized.empty()) {
      os << "    minimized: " << f.minimized.decisions.size()
         << " decision(s) (from " << f.schedule.decisions.size() << ", "
         << f.minimize_replays << " replay(s))"
         << (f.minimized_verified ? ", replay-verified" : ", NOT verified");
      if (!f.min_schedule_path.empty()) os << " -> " << f.min_schedule_path;
      os << "\n";
    }
  }
  if (certificates > 0 || !certificate_failures.empty()) {
    os << "  certificates: " << certificates << " built, "
       << certificates_verified << " verified, " << certificate_failures.size()
       << " failed\n";
    for (const std::string& f : certificate_failures) {
      os << "    VERIFY FAILED: " << f << "\n";
    }
  }
  if (!pruned.empty()) {
    os << "  pruned " << pruned.size() << " schedule(s) statically:\n";
    for (const PrunedSchedule& p : pruned) {
      os << "    schedule " << p.index << " (seed " << p.seed
         << "): " << p.reason << "\n";
    }
  }
  if (timeouts > 0 || crashes > 0 || retries > 0 || resumed > 0 ||
      journal_torn_blocks > 0) {
    os << "  resilience: " << timeouts << " timeout(s), " << crashes
       << " crash(es), " << retries << " retry attempt(s), " << resumed
       << " schedule(s) resumed from journal";
    if (journal_torn_blocks > 0) {
      os << ", " << journal_torn_blocks << " torn journal block(s) discarded";
    }
    os << "\n";
    for (const QuarantinedSchedule& q : quarantined) {
      os << "    quarantined schedule " << q.index << " (seed " << q.seed
         << ", " << q.status << " after " << (q.retries + 1)
         << " attempt(s)): " << q.reason;
      if (!q.schedule_path.empty()) os << " -> " << q.schedule_path;
      os << "\n";
    }
  }
  os << "  coverage curve (cumulative unique violations):";
  for (std::size_t c : coverage_curve) os << " " << c;
  os << "\n";
  return os.str();
}

namespace {

/// Finished runs a worker may hold beyond the fold, per worker: bounds the
/// results buffered behind one slow (e.g. hanging) schedule.
constexpr std::size_t kRunsAheadPerWorker = 8;

/// Runs a sweep's jobs on pooled worker threads and hands their results
/// back in job order: take(k) blocks until job k finished and rethrows what
/// it threw.  Workers claim jobs in order, never more than `window` past the
/// last take(), so at most `window` results wait; stop() (and the
/// destructor) lets running jobs finish and drops the rest unstarted.
template <typename Result>
class OrderedRuns {
 public:
  OrderedRuns(std::size_t jobs, std::size_t workers, std::size_t window,
              std::function<Result(std::size_t)> job)
      : job_(std::move(job)), jobs_(jobs), window_(window) {
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this] { work(); });
    }
  }
  ~OrderedRuns() {
    stop();
    for (util::PooledThread& t : threads_) t.join();
  }
  OrderedRuns(const OrderedRuns&) = delete;
  OrderedRuns& operator=(const OrderedRuns&) = delete;

  Result take(std::size_t k) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return finished_.count(k) != 0; });
    Finished done = std::move(finished_.extract(k).mapped());
    taken_ = k + 1;
    cv_.notify_all();
    if (done.error) std::rethrow_exception(done.error);
    return std::move(*done.result);
  }

  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_.notify_all();
  }

 private:
  struct Finished {
    std::optional<Result> result;
    std::exception_ptr error;
  };

  void work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] {
        return stopping_ || next_ == jobs_ || next_ < taken_ + window_;
      });
      if (stopping_ || next_ == jobs_) return;
      const std::size_t k = next_++;
      lock.unlock();
      Finished done;
      try {
        done.result.emplace(job_(k));
      } catch (...) {
        done.error = std::current_exception();
      }
      lock.lock();
      finished_.emplace(k, std::move(done));
      cv_.notify_all();
    }
  }

  const std::function<Result(std::size_t)> job_;
  const std::size_t jobs_;
  const std::size_t window_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::size_t, Finished> finished_;  ///< done, not yet taken.
  std::size_t next_ = 0;   ///< next job a worker claims.
  std::size_t taken_ = 0;  ///< jobs the fold has taken.
  bool stopping_ = false;
  std::vector<util::PooledThread> threads_;
};

}  // namespace

Sweeper::RunOutcome Sweeper::run_once(const Options& opts,
                                      const RankMain& rank_main,
                                      bool with_diagnose,
                                      std::uint64_t fault_seed) {
  RunOutcome outcome;

  SessionConfig scfg = cfg_.session;
  scfg.explore = opts;
  if (with_diagnose) scfg.diagnose = cfg_.diagnose;
  if (fault_seed != 0) scfg.faults.seed = fault_seed;
  Session session(scfg);

  simmpi::UniverseConfig ucfg;
  ucfg.nranks = cfg_.nranks;
  ucfg.block_timeout_ms = cfg_.block_timeout_ms;
  session.configure(ucfg);

  simmpi::Universe universe(ucfg);
  session.attach(universe);
  universe.run_context().team_size = cfg_.nthreads;

  // Per-schedule wall-clock watchdog: if the run outlives the budget, abort
  // this universe (every blocked MPI call of this run throws AbortError
  // within one poll interval; runs beside it are untouched) and classify the
  // hang from the wait-for graph the DeadlockMonitor maintained while the
  // run was alive.
  DeadlockMonitor monitor(cfg_.nranks);
  const bool watchdogged = cfg_.schedule_timeout_ms > 0;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool run_done = false;
  util::PooledThread watchdog;
  if (watchdogged) {
    universe.hooks().add(&monitor);
    watchdog = util::PooledThread([&] {
      std::unique_lock<std::mutex> lock(wd_mu);
      const bool finished =
          wd_cv.wait_for(lock, std::chrono::milliseconds(cfg_.schedule_timeout_ms),
                         [&] { return run_done; });
      if (finished) return;
      outcome.timed_out = true;
      outcome.hang_diagnosis = monitor.diagnose();
      universe.request_abort("schedule watchdog: wall clock exceeded " +
                             std::to_string(cfg_.schedule_timeout_ms) + " ms");
    });
  }

  const simmpi::RunResult run = universe.run(rank_main);

  if (watchdogged) {
    {
      std::lock_guard<std::mutex> lock(wd_mu);
      run_done = true;
    }
    wd_cv.notify_all();
    watchdog.join();  // synchronizes outcome.timed_out / hang_diagnosis.
    universe.hooks().remove(&monitor);
  }

  session.detach(universe);
  outcome.errors = run.errors;

  const Report report = session.analyze();
  for (const spec::Violation& v : report.violations()) {
    outcome.keys.insert(spec::violation_key(v));
  }
  outcome.schedule = session.recorded_schedule();
  if (session.explorer() != nullptr) {
    outcome.signature = session.explorer()->order_signature();
    outcome.hook_hits = session.explorer()->hook_hits();
  }
  if (with_diagnose) outcome.provenance = session.provenance();
  return outcome;
}

Sweeper::GuardedRun Sweeper::run_guarded(const Options& opts,
                                         const RankMain& rank_main,
                                         bool with_diagnose,
                                         std::uint64_t fault_seed) {
  GuardedRun guard;
  const int attempts = 1 + std::max(0, cfg_.max_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff before re-running a failed schedule: transient
      // resource pressure (the usual cause of a spurious hang) needs time.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<long long>(cfg_.retry_backoff_ms) << (attempt - 1)));
    }
    guard.retries = attempt;
    try {
      guard.outcome = run_once(opts, rank_main, with_diagnose, fault_seed);
      if (!guard.outcome.timed_out) {
        guard.status = "ok";
        guard.failure.clear();
        return guard;
      }
      guard.status = "timeout";
      guard.failure = guard.outcome.hang_diagnosis.empty()
                          ? "schedule watchdog timeout"
                          : guard.outcome.hang_diagnosis;
    } catch (const std::exception& e) {
      guard.status = "crash";
      guard.failure = e.what();
      guard.outcome = RunOutcome{};
    }
  }
  return guard;
}

void Sweeper::quarantine(SweepResult& result, const GuardedRun& guard,
                         int index, std::uint64_t seed, const Options& opts,
                         std::uint64_t fault_seed) {
  QuarantinedSchedule q;
  q.index = index;
  q.seed = seed;
  q.status = guard.status;
  q.reason = guard.failure;
  q.retries = guard.retries;
  if (guard.status == "timeout") ++result.timeouts;
  else ++result.crashes;

  if (!cfg_.quarantine_dir.empty()) {
    const std::string stem =
        cfg_.quarantine_dir + "/seed" + std::to_string(seed);
    // The run's record as far as it got; a run that recorded nothing (a
    // crash) leaves a header-only record carrying the strategy, seed, fault
    // spec and fault seed needed to re-derive it.
    Schedule sched = guard.outcome.schedule;
    if (sched.decisions.empty()) {
      sched.seed = opts.seed;
      sched.strategy = strategy_kind_name(cfg_.strategy);
    }
    if (!sched.fault_spec && cfg_.session.faults.enabled) {
      sched.fault_spec = cfg_.session.faults.spec;
      sched.fault_seed = fault_seed;
    }
    if (sched.save(stem + ".schedule")) q.schedule_path = stem + ".schedule";
    std::ofstream reason(stem + ".reason.txt");
    if (reason) {
      reason << "schedule " << index << " seed " << seed << " status "
             << guard.status << " after " << (guard.retries + 1)
             << " attempt(s)\n"
             << guard.failure << "\n";
      for (const std::string& err : guard.outcome.errors) {
        reason << "rank error: " << err << "\n";
      }
    }
  }
  result.quarantined.push_back(std::move(q));
}

SweepResult Sweeper::run(const RankMain& rank_main) {
  obs::Span span("explore.sweep");
  util::Stopwatch timer;
  SweepResult result;
  std::set<std::string> seen;

  // Progress journal: load previously-checkpointed schedules (they will be
  // replayed from their records instead of re-run), then open for appending.
  // A journal whose meta line does not describe *this* sweep is truncated —
  // appending to a foreign journal would corrupt both sweeps' records.
  std::map<int, JournalEntry> journaled;
  std::unique_ptr<SweepJournal> journal;
  if (!cfg_.journal_path.empty()) {
    const JournalMeta meta{cfg_.schedules, cfg_.base_seed,
                           strategy_kind_name(cfg_.strategy)};
    std::size_t torn = 0;
    if (SweepJournal::load(cfg_.journal_path, meta, &journaled, &torn)) {
      result.journal_torn_blocks = torn;
    } else {
      journaled.clear();
      std::ofstream(cfg_.journal_path, std::ios::trunc);
    }
    journal = std::make_unique<SweepJournal>(cfg_.journal_path, meta);
  }

  // Returns the schedule path saved for this run's findings, so the journal
  // record can point resumes at it.
  auto note_run = [&](const RunOutcome& outcome, int index,
                      std::uint64_t seed) -> std::string {
    std::string path;
    ++result.schedules_run;
    result.hook_hits += outcome.hook_hits;
    result.certificates += outcome.provenance.certificates.size();
    result.certificates_verified += outcome.provenance.verified;
    for (const std::string& fail : outcome.provenance.verify_failures) {
      result.certificate_failures.push_back(
          "schedule " + std::to_string(index) + ": " + fail);
    }
    if (outcome.signature != 0) result.orderings.insert(outcome.signature);
    for (const std::string& err : outcome.errors) {
      result.run_errors.push_back("schedule " + std::to_string(index) + ": " +
                                  err);
    }
    for (const std::string& key : outcome.keys) {
      if (!seen.insert(key).second) continue;
      if (index >= 0 && result.baseline_keys.count(key) == 0 &&
          result.first_new_schedule < 0) {
        result.first_new_schedule = index;
      }
      SweepFinding f;
      f.key = key;
      f.seed = seed;
      f.schedule_index = index;
      f.in_baseline = index < 0;
      if (index >= 0) {
        f.schedule = outcome.schedule;
        if (!cfg_.schedule_dir.empty()) {
          f.schedule_path = cfg_.schedule_dir + "/seed" + std::to_string(seed) +
                            ".schedule";
          if (!f.schedule.save(f.schedule_path)) f.schedule_path.clear();
          path = f.schedule_path;
        }
      }
      if (const diagnose::Certificate* cert = outcome.provenance.find(key)) {
        f.certificate = std::make_shared<diagnose::Certificate>(*cert);
      }
      result.findings.push_back(std::move(f));
    }
    result.coverage_curve.push_back(seen.size());
    return path;
  };

  auto journal_record = [&](int index, std::uint64_t seed,
                            const GuardedRun& guard,
                            const std::string& sched_path) {
    if (!journal || !journal->ok()) return;
    JournalEntry e;
    e.index = index;
    e.seed = seed;
    e.signature = guard.outcome.signature;
    e.hook_hits = guard.outcome.hook_hits;
    e.status = guard.status;
    e.retries = guard.retries;
    e.keys = guard.outcome.keys;
    e.errors = guard.outcome.errors;
    e.schedule_path = sched_path;
    e.certificates = guard.outcome.provenance.certificates.size();
    e.certificates_verified = guard.outcome.provenance.verified;
    journal->record(e);
  };

  // Replay one journaled schedule into the aggregates without running it.
  // Certificate *objects* were not journaled, so only their counts carry
  // over (SweepConfig::journal_path documents this).
  auto resume_entry = [&](const JournalEntry& e) {
    if (e.index < 0) result.baseline_keys = e.keys;
    RunOutcome outcome;
    outcome.keys = e.keys;
    outcome.signature = e.signature;
    outcome.hook_hits = e.hook_hits;
    outcome.errors = e.errors;
    if (!e.schedule_path.empty()) {
      Schedule::load(e.schedule_path, &outcome.schedule);
    }
    note_run(outcome, e.index, e.seed);
    result.certificates += e.certificates;
    result.certificates_verified += e.certificates_verified;
    result.retries += e.retries;
    ++result.resumed;
    if (e.status != "ok") {
      QuarantinedSchedule q;
      q.index = e.index;
      q.seed = e.seed;
      q.status = e.status;
      q.reason = "journaled " + e.status + " (see quarantine artifacts)";
      q.retries = e.retries;
      q.schedule_path = e.schedule_path;
      if (e.status == "timeout") ++result.timeouts;
      else ++result.crashes;
      result.quarantined.push_back(std::move(q));
    }
  };

  // Fold one executed run: aggregates, quarantine of a terminal failure,
  // and the journal checkpoint.
  auto fold_run = [&](const GuardedRun& guard, int index, std::uint64_t seed,
                      const Options& opts, std::uint64_t fault_seed) {
    result.retries += guard.retries;
    if (index < 0) result.baseline_keys = guard.outcome.keys;
    // A timed-out run still analyzed its partial trace; a crashed one has an
    // empty outcome — note_run keeps the coverage curve aligned either way.
    std::string path = note_run(guard.outcome, index, seed);
    if (guard.status != "ok") {
      quarantine(result, guard, index, seed, opts, fault_seed);
      const QuarantinedSchedule& q = result.quarantined.back();
      if (!q.schedule_path.empty()) path = q.schedule_path;
    }
    journal_record(index, seed, guard, path);
  };

  // The sweep in index order: the uncontrolled baseline, then every
  // schedule, each pruned, resumed from the journal, or run.
  struct Step {
    int index = -1;
    std::uint64_t seed = 0;
    Options opts;
    std::uint64_t fault_seed = 0;
    std::string pruned;   ///< nonempty: statically pruned, for this reason.
    std::size_t job = 0;  ///< its run, when it is neither pruned nor resumed.
  };
  const bool faulted = cfg_.session.faults.enabled;
  std::vector<Step> steps;
  if (cfg_.run_baseline) {
    Step baseline;
    baseline.opts.enabled = false;
    if (faulted) baseline.fault_seed = cfg_.session.faults.seed;
    steps.push_back(baseline);
  }

  // Static fingerprint pruning: with guidance, a guided run's pick stream is
  // a pure function of the seed; two seeds with equal fingerprints make the
  // same picks, so their runs can only differ by permuting pairs the static
  // analysis proved ordered — redundant schedules, skipped with a reason.
  // (Pruning re-derives identically on resume: it never consults the
  // journal, only the deterministic fingerprint stream.)
  std::set<std::uint64_t> fingerprints;
  const bool can_prune = cfg_.strategy == StrategyKind::kGuided &&
                         cfg_.guidance && !cfg_.guidance->empty();
  for (int i = 0; i < cfg_.schedules; ++i) {
    Step step;
    step.index = i;
    step.opts.enabled = true;
    step.opts.strategy = cfg_.strategy;
    step.opts.seed = cfg_.base_seed + static_cast<std::uint64_t>(i);
    step.opts.guidance = cfg_.guidance;
    step.seed = step.opts.seed;
    if (can_prune) {
      const std::uint64_t fp = guided_fingerprint(*cfg_.guidance, step.seed);
      if (!fingerprints.insert(fp).second) {
        step.pruned = "guided pick fingerprint " + std::to_string(fp) +
                      " already run; differs only in " +
                      std::to_string(cfg_.guidance->ordered.size()) +
                      " statically-ordered pair(s)";
      }
    }
    // A fault spec draws a new fault seed per schedule, so the sweep
    // explores the fault space alongside the schedule space.
    if (faulted) {
      step.fault_seed =
          cfg_.session.faults.seed + static_cast<std::uint64_t>(i);
    }
    steps.push_back(std::move(step));
  }

  // Runs are independent (each binds its own Session and Universe), so they
  // execute on up to one worker per core; folding strictly in index order
  // keeps findings, first-seen seeds, the coverage curve and the journal
  // byte-identical to a serial sweep.  Runs that share one WAL file go on
  // one worker, since every run truncates it.
  std::vector<const Step*> jobs;
  for (Step& step : steps) {
    if (!step.pruned.empty() || journaled.count(step.index) != 0) continue;
    step.job = jobs.size();
    jobs.push_back(&step);
  }
  const std::size_t workers =
      cfg_.session.wal_path.empty()
          ? std::min<std::size_t>(
                jobs.size(),
                std::max(1u, std::thread::hardware_concurrency()))
          : std::min<std::size_t>(jobs.size(), 1);
  OrderedRuns<GuardedRun> runs(
      jobs.size(), workers, kRunsAheadPerWorker * workers,
      [&](std::size_t k) {
        return run_guarded(jobs[k]->opts, rank_main, true,
                           jobs[k]->fault_seed);
      });

  obs::Counter& pruned_counter =
      obs::Registry::global().counter("explore.pruned_schedules");
  for (const Step& step : steps) {
    if (!step.pruned.empty()) {
      result.pruned.push_back(
          PrunedSchedule{step.index, step.seed, step.pruned});
      pruned_counter.add(1);
      result.coverage_curve.push_back(
          result.coverage_curve.empty() ? 0 : result.coverage_curve.back());
    } else if (auto it = journaled.find(step.index); it != journaled.end()) {
      resume_entry(it->second);
    } else {
      fold_run(runs.take(step.job), step.index, step.seed, step.opts,
               step.fault_seed);
    }
    // Later runs (possibly finished already) are dropped unfolded, as if
    // never run.
    if (cfg_.stop_on_first_new && result.first_new_schedule >= 0) break;
  }
  runs.stop();

  // Flag findings the baseline also reported (first seen by a schedule but
  // not exploration-exclusive).
  for (SweepFinding& f : result.findings) {
    if (f.schedule_index >= 0 && result.baseline_keys.count(f.key) > 0) {
      f.in_baseline = true;
    }
  }

  if (cfg_.minimize) minimize_findings(result, rank_main);

  result.seconds = timer.elapsed_seconds();
  return result;
}

void Sweeper::minimize_findings(SweepResult& result,
                                const RankMain& rank_main) {
  obs::Span span("explore.minimize");
  for (SweepFinding& f : result.findings) {
    if (f.schedule_index < 0 || f.schedule.empty()) continue;
    // Every candidate carries the finding's own faults, so in a
    // fault-injection sweep the oracle replays them instead of drawing fresh
    // ones (which would make reproduction a coin flip).
    const diagnose::MinimizeResult min = diagnose::ddmin_schedule(
        f.schedule, [&](const Schedule& candidate) {
          return replay(candidate, rank_main).count(f.key) > 0;
        });
    f.minimized = min.schedule;
    f.minimized_verified = min.verified;
    f.minimize_replays = min.replays;
    result.minimize_replays += min.replays;
    if (min.verified && !cfg_.min_schedule_dir.empty()) {
      f.min_schedule_path = cfg_.min_schedule_dir + "/seed" +
                            std::to_string(f.seed) + ".min.schedule";
      if (!f.minimized.save(f.min_schedule_path)) f.min_schedule_path.clear();
    }
    if (f.certificate) {
      f.certificate->minimized = f.minimized;
      f.certificate->minimized_verified = f.minimized_verified;
    }
  }
}

std::set<std::string> Sweeper::replay(const Schedule& schedule,
                                      const RankMain& rank_main) {
  Options opts;
  opts.enabled = true;
  opts.seed = schedule.seed;
  opts.replay = std::make_shared<Schedule>(schedule);
  return run_once(opts, rank_main, false).keys;
}

}  // namespace home::explore
