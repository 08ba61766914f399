#include "src/detect/race_detector.hpp"

#include <atomic>
#include <sstream>
#include <thread>

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
                               const std::vector<std::size_t>& indices) {
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
        .run(std::move(events));
  }();

  obs::Span sweep_span("detect.sweep");

  // Group access-event indices by variable (seq order preserved).
  std::map<trace::ObjId, std::vector<std::size_t>> by_var;
  std::size_t total_accesses = 0;
  for (std::size_t i = 0; i < hb.events().size(); ++i) {
    if (hb.events()[i].is_access()) {
      by_var[hb.events()[i].obj].push_back(i);
      ++total_accesses;
    }
  }

  // Variables are independent once grouped: fan the per-variable sweeps
  // across a worker pool and merge deterministically (results are indexed by
  // the variable's position in key order, so scheduling never shows).
  std::vector<const std::pair<const trace::ObjId, std::vector<std::size_t>>*>
      vars;
  vars.reserve(by_var.size());
  for (const auto& entry : by_var) vars.push_back(&entry);
  std::vector<VariableVerdict> results(vars.size());

  std::size_t nworkers =
      cfg_.analysis_threads != 0
          ? cfg_.analysis_threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  nworkers = std::min(nworkers, vars.size());
  if (total_accesses < kParallelAnalysisThreshold) nworkers = 1;

  // Time individual sweeps only when telemetry is on: two clock reads per
  // variable are cheap, but the disabled path should not touch the clock.
  const bool timed = obs::enabled();
  auto sweep_range = [&](std::atomic<std::size_t>* next) {
    for (std::size_t k = next->fetch_add(1, std::memory_order_relaxed);
         k < vars.size();
         k = next->fetch_add(1, std::memory_order_relaxed)) {
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      results[k] = sweep_variable(hb, cfg_, vars[k]->first, vars[k]->second);
      if (timed) {
        detect_metrics().sweep_ns.observe(
            static_cast<double>(obs::now_ns() - t0));
      }
    }
  };

  std::atomic<std::size_t> next{0};
  if (nworkers <= 1) {
    sweep_range(&next);
  } else {
    std::vector<util::PooledThread> workers;
    workers.reserve(nworkers);
    for (std::size_t w = 0; w < nworkers; ++w) {
      workers.emplace_back([&] { sweep_range(&next); });
    }
    for (util::PooledThread& worker : workers) worker.join();
  }

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
    const std::size_t n = vars[k]->second.size();
    exhaustive += n * (n - 1) / 2;
    verdicts.emplace_hint(verdicts.end(), vars[k]->first, std::move(results[k]));
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
