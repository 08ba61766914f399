#include "src/detect/race_detector.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "src/detect/flat_map.hpp"
#include "src/detect/frontier.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/thread_pool.hpp"

namespace home::detect {

namespace {

// Detector telemetry (DESIGN.md §9).  Pair counts are accumulated locally in
// each VariableVerdict and folded in ONE add per analyze() call — a per-pair
// atomic would serialize the frontier inner loops across workers.
struct DetectMetrics {
  obs::Counter& vars = obs::Registry::global().counter("detect.vars_swept");
  obs::Counter& checked =
      obs::Registry::global().counter("detect.pairs_checked");
  obs::Counter& pruned = obs::Registry::global().counter("detect.pairs_pruned");
  obs::Counter& found = obs::Registry::global().counter("detect.pairs_found");
  obs::Counter& epoch_hits =
      obs::Registry::global().counter("clock.epoch_hits");
  obs::Histogram& sweep_ns =
      obs::Registry::global().histogram("detect.var_sweep_ns");
};

DetectMetrics& detect_metrics() {
  static DetectMetrics m;
  return m;
}

VariableVerdict sweep_variable(const HbIndex& hb, const RaceDetectorConfig& cfg,
                               trace::ObjId var,
                               std::span<const std::uint32_t> indices) {
  VariableVerdict verdict;
  verdict.var = var;
  // Event indices are the handles and the feed order (ascending in seq).
  VarFrontier<std::size_t> frontier;
  for (const std::size_t i : indices) {
    const trace::Event& e = hb.events()[i];
    const FrontierAccess access{i, hb.stamp_get(i, e.tid), e.tid, e.is_write(),
                                &e.locks_held};
    frontier.on_access(
        cfg, access, i, [&hb, i](trace::Tid t) { return hb.stamp_get(i, t); },
        [&](std::size_t j) {
          verdict.pairs.push_back(
              ConcurrentPair{j, i, hb.events()[j].tid, e.tid});
        });
    // Saturated: nothing about this variable can change any more.
    if (frontier.saturated()) break;
  }
  verdict.concurrent = frontier.concurrent();
  verdict.pairs_checked = frontier.pairs_checked();
  verdict.epoch_hits = frontier.epoch_hits();
  return verdict;
}

/// Access-event indices grouped by variable in one array: variables in
/// ObjId order, each one's accesses in seq order.
struct AccessGroups {
  std::vector<trace::ObjId> vars;
  std::vector<std::uint32_t> start;  ///< vars.size() + 1 offsets into by_var.
  std::vector<std::uint32_t> by_var;

  std::size_t count(std::size_t k) const { return start[k + 1] - start[k]; }
  std::span<const std::uint32_t> of(std::size_t k) const {
    return std::span<const std::uint32_t>(by_var).subspan(start[k], count(k));
  }
};

/// Groups in three steps: each of `ranges` contiguous event ranges counts its
/// accesses per variable; the calling thread lays the variables out in key
/// order, and within a variable gives each range its slots after those of
/// the ranges before it; then each range drops its accesses into its own
/// slots, so a variable's accesses stay in seq order.  The ranges run as
/// jobs (util::run_jobs); one range is one serial pass.
AccessGroups group_accesses(const std::vector<trace::Event>& all,
                            std::size_t ranges) {
  const auto first = [&all, ranges](std::size_t r) {
    return all.size() * r / ranges;
  };
  // Per range: var -> access count, then the range's next free slot.
  std::vector<FlatMap<std::uint32_t>> cursor(ranges);
  util::run_jobs(ranges, [&](std::size_t r) {
    FlatMap<std::uint32_t>& mine = cursor[r];
    for (std::size_t i = first(r); i < first(r + 1); ++i) {
      if (all[i].is_access()) ++mine[all[i].obj];
    }
  });

  AccessGroups g;
  g.vars.reserve(cursor[0].size());
  for (const FlatMap<std::uint32_t>& mine : cursor) {
    mine.for_each(
        [&g](trace::ObjId var, std::uint32_t) { g.vars.push_back(var); });
  }
  std::sort(g.vars.begin(), g.vars.end());
  if (ranges > 1) {
    g.vars.erase(std::unique(g.vars.begin(), g.vars.end()), g.vars.end());
  }
  g.start.resize(g.vars.size() + 1);
  std::uint32_t next = 0;
  for (std::size_t k = 0; k < g.vars.size(); ++k) {
    g.start[k] = next;
    for (FlatMap<std::uint32_t>& mine : cursor) {
      if (std::uint32_t* slot = mine.find(g.vars[k])) {
        next += std::exchange(*slot, next);
      }
    }
  }
  g.start.back() = next;

  g.by_var.resize(next);
  util::run_jobs(ranges, [&](std::size_t r) {
    FlatMap<std::uint32_t>& mine = cursor[r];
    for (std::size_t i = first(r); i < first(r + 1); ++i) {
      if (all[i].is_access()) {
        g.by_var[(*mine.find(all[i].obj))++] = static_cast<std::uint32_t>(i);
      }
    }
  });
  return g;
}

}  // namespace

const char* detector_mode_name(DetectorMode mode) {
  switch (mode) {
    case DetectorMode::kHybrid: return "hybrid";
    case DetectorMode::kLocksetOnly: return "lockset-only";
    case DetectorMode::kHbOnly: return "hb-only";
  }
  return "?";
}

HappensBeforeConfig happens_before_config(DetectorMode mode) {
  HappensBeforeConfig cfg;
  cfg.lock_edges = (mode == DetectorMode::kHbOnly);
  return cfg;
}

std::size_t ConcurrencyReport::total_pairs() const {
  std::size_t n = 0;
  for (const auto& [var, verdict] : verdicts_) n += verdict.pairs.size();
  return n;
}

std::string ConcurrencyReport::summary() const {
  std::ostringstream os;
  os << "ConcurrencyReport(mode=" << detector_mode_name(mode_) << "): ";
  std::size_t concurrent_vars = 0;
  for (const auto& [var, verdict] : verdicts_) {
    if (verdict.concurrent) ++concurrent_vars;
  }
  os << concurrent_vars << "/" << verdicts_.size() << " variables concurrent, "
     << total_pairs() << " pairs";
  return os.str();
}

ConcurrencyReport RaceDetector::analyze(std::vector<trace::Event> events) const {
  // hardware_concurrency() reads sysfs on Linux: ask only when it can matter.
  std::size_t workers = 1;
  if (events.size() >= util::kParallelAnalysisThreshold) {
    workers = cfg_.analysis_threads != 0
                  ? cfg_.analysis_threads
                  : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  HbIndex hb = [&] {
    obs::Span span("detect.hb");
    return HappensBeforeAnalysis(happens_before_config(cfg_.mode))
        .run(std::move(events), workers);
  }();

  obs::Span sweep_span("detect.sweep");
  const AccessGroups groups = group_accesses(hb.events(), workers);
  const std::vector<trace::ObjId>& vars = groups.vars;

  // Variables are independent once grouped: fan the per-variable sweeps
  // across the calling thread and pooled workers and merge deterministically
  // (results are indexed by the variable's position in key order, so
  // scheduling never shows).
  std::vector<VariableVerdict> results(vars.size());
  const std::size_t nworkers =
      groups.by_var.size() >= util::kParallelAnalysisThreshold
          ? std::min(workers, vars.size())
          : 1;

  // Time individual sweeps only when telemetry is on: two clock reads per
  // variable are cheap, but the disabled path should not touch the clock.
  const bool timed = obs::enabled();
  auto sweep_range = [&](std::atomic<std::size_t>* next) {
    for (std::size_t k = next->fetch_add(1, std::memory_order_relaxed);
         k < vars.size();
         k = next->fetch_add(1, std::memory_order_relaxed)) {
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      results[k] = sweep_variable(hb, cfg_, vars[k], groups.of(k));
      if (timed) {
        detect_metrics().sweep_ns.observe(
            static_cast<double>(obs::now_ns() - t0));
      }
    }
  };

  std::atomic<std::size_t> next{0};
  util::run_jobs(nworkers, [&](std::size_t) { sweep_range(&next); });

  // One batched fold of the per-variable tallies into the registry.
  // `pruned` is the gap to the exhaustive k*(k-1)/2 enumeration — pairs the
  // frontier structure or saturation made it unnecessary to compare.
  std::size_t checked = 0;
  std::size_t found = 0;
  std::size_t exhaustive = 0;
  std::size_t epoch_hits = 0;
  std::map<trace::ObjId, VariableVerdict> verdicts;
  for (std::size_t k = 0; k < vars.size(); ++k) {
    checked += results[k].pairs_checked;
    found += results[k].pairs.size();
    epoch_hits += results[k].epoch_hits;
    const std::size_t n = groups.count(k);
    exhaustive += n * (n - 1) / 2;
    verdicts.emplace_hint(verdicts.end(), vars[k], std::move(results[k]));
  }
  DetectMetrics& metrics = detect_metrics();
  metrics.vars.add(vars.size());
  metrics.checked.add(checked);
  metrics.found.add(found);
  if (epoch_hits > 0) metrics.epoch_hits.add(epoch_hits);
  if (exhaustive > checked) metrics.pruned.add(exhaustive - checked);

  return ConcurrencyReport(std::move(hb), std::move(verdicts), cfg_.mode);
}

}  // namespace home::detect
