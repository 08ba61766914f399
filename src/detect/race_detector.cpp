#include "src/detect/race_detector.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <sstream>
#include <thread>

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
  HbIndex hb = [&] {
    obs::Span span("detect.hb");
    return HappensBeforeAnalysis(happens_before_config(cfg_.mode))
        .run(std::move(events), cfg_.analysis_threads);
  }();

  obs::Span sweep_span("detect.sweep");

  // Group access-event indices by variable into one array, variables in
  // ObjId order and each one's accesses in seq order: count per variable,
  // lay the ranges out in key order, then drop each access into its range.
  const std::vector<trace::Event>& all = hb.events();
  FlatMap<std::uint32_t> cursor;  // var -> access count, then next free slot.
  std::size_t total_accesses = 0;
  for (const trace::Event& e : all) {
    if (e.is_access()) {
      ++cursor[e.obj];
      ++total_accesses;
    }
  }
  std::vector<trace::ObjId> vars;
  vars.reserve(cursor.size());
  cursor.for_each([&vars](trace::ObjId var, std::uint32_t) { vars.push_back(var); });
  std::sort(vars.begin(), vars.end());
  std::vector<std::uint32_t> start(vars.size() + 1, 0);
  for (std::size_t k = 0; k < vars.size(); ++k) {
    std::uint32_t& slot = *cursor.find(vars[k]);
    start[k + 1] = start[k] + slot;
    slot = start[k];
  }
  std::vector<std::uint32_t> by_var(total_accesses);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].is_access()) {
      by_var[(*cursor.find(all[i].obj))++] = static_cast<std::uint32_t>(i);
    }
  }
  const auto accesses_of = [&](std::size_t k) {
    return std::span<const std::uint32_t>(by_var).subspan(
        start[k], start[k + 1] - start[k]);
  };

  // Variables are independent once grouped: fan the per-variable sweeps
  // across the calling thread and pooled workers and merge deterministically
  // (results are indexed by the variable's position in key order, so
  // scheduling never shows).
  std::vector<VariableVerdict> results(vars.size());

  std::size_t nworkers = 1;
  if (total_accesses >= kParallelAnalysisThreshold) {
    nworkers = cfg_.analysis_threads != 0
                   ? cfg_.analysis_threads
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    nworkers = std::min(nworkers, vars.size());
  }

  // Time individual sweeps only when telemetry is on: two clock reads per
  // variable are cheap, but the disabled path should not touch the clock.
  const bool timed = obs::enabled();
  auto sweep_range = [&](std::atomic<std::size_t>* next) {
    for (std::size_t k = next->fetch_add(1, std::memory_order_relaxed);
         k < vars.size();
         k = next->fetch_add(1, std::memory_order_relaxed)) {
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      results[k] = sweep_variable(hb, cfg_, vars[k], accesses_of(k));
      if (timed) {
        detect_metrics().sweep_ns.observe(
            static_cast<double>(obs::now_ns() - t0));
      }
    }
  };

  std::atomic<std::size_t> next{0};
  std::vector<util::PooledThread> workers;
  for (std::size_t w = 1; w < nworkers; ++w) {
    workers.emplace_back([&] { sweep_range(&next); });
  }
  try {
    sweep_range(&next);
  } catch (...) {
    for (util::PooledThread& worker : workers) worker.join();
    throw;
  }
  for (util::PooledThread& worker : workers) worker.join();

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
    const std::size_t n = start[k + 1] - start[k];
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
