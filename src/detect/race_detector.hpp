// The hybrid race detector: lockset ∧ happens-before over monitored variables.
//
// This is the paper's "Hybrid Dynamic Analysis" stage.  For every monitored
// variable it decides Concurrent(v): do two WRITEs from different threads
// potentially execute at the same time?  A pair of accesses is *concurrent*
// when it is unordered by the (strong) happens-before relation AND the two
// locksets are disjoint — the O'Callahan-Choi combination the paper adopts to
// cut the false positives of pure lockset analysis while still reporting
// races that did not manifest in the observed interleaving.
//
// DetectorMode selects the ablation variants benchmarked in E9.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/detect/lockset.hpp"
#include "src/trace/event.hpp"

namespace home::detect {

enum class DetectorMode : std::uint8_t {
  kHybrid,       ///< unordered-by-HB AND disjoint locksets (the paper's HOME).
  kLocksetOnly,  ///< pure Eraser pairwise check (over-reports).
  kHbOnly,       ///< pure HB with lock edges (misses unmanifested races).
};

const char* detector_mode_name(DetectorMode mode);

/// The HB configuration a DetectorMode implies: hybrid and lockset modes
/// use strong edges only; the pure-HB ablation also orders release->acquire.
/// Every pipeline that replays HB for a detector (post-mortem, streaming,
/// certificates) derives it here.
HappensBeforeConfig happens_before_config(DetectorMode mode);

/// One pair of accesses judged concurrent. Indices refer to HbIndex::events().
struct ConcurrentPair {
  std::size_t first = 0;
  std::size_t second = 0;
  trace::Tid tid1 = trace::kNoTid;
  trace::Tid tid2 = trace::kNoTid;
};

struct VariableVerdict {
  trace::ObjId var = 0;
  bool concurrent = false;
  std::vector<ConcurrentPair> pairs;
  /// Cross-thread candidate checks the frontier actually performed — far
  /// fewer than the k*(k-1)/2 pairs of an exhaustive check; the gap feeds
  /// `detect.pairs_pruned` (DESIGN.md §9).
  std::size_t pairs_checked = 0;
  /// Checks answered on the O(1) epoch path (feeds `clock.epoch_hits`).
  std::size_t epoch_hits = 0;
};

/// Result of a detector run: per-variable verdicts plus the HB index needed
/// by the thread-safety matcher to relate MPI call events.
class ConcurrencyReport {
 public:
  ConcurrencyReport(HbIndex hb, std::map<trace::ObjId, VariableVerdict> verdicts,
                    DetectorMode mode)
      : hb_(std::move(hb)), verdicts_(std::move(verdicts)), mode_(mode) {}

  /// The paper's Concurrent(v) predicate.
  bool concurrent(trace::ObjId var) const {
    auto it = verdicts_.find(var);
    return it != verdicts_.end() && it->second.concurrent;
  }

  const VariableVerdict* verdict(trace::ObjId var) const {
    auto it = verdicts_.find(var);
    return it == verdicts_.end() ? nullptr : &it->second;
  }

  const std::map<trace::ObjId, VariableVerdict>& verdicts() const {
    return verdicts_;
  }
  const HbIndex& hb() const { return hb_; }
  DetectorMode mode() const { return mode_; }

  std::size_t total_pairs() const;
  std::string summary() const;

 private:
  HbIndex hb_;
  std::map<trace::ObjId, VariableVerdict> verdicts_;
  DetectorMode mode_;
};

struct RaceDetectorConfig {
  DetectorMode mode = DetectorMode::kHybrid;
  /// Cap on reported pairs per variable (keeps quadratic scans bounded on
  /// adversarial traces; 0 = unlimited).
  std::size_t max_pairs_per_var = 64;
  /// Worker threads for the HB replay's thread groups, the access
  /// grouping's event ranges and the per-variable sweeps.  0 = auto
  /// (hardware_concurrency); 1 = serial.  Small traces always run serially
  /// regardless (see util::kParallelAnalysisThreshold).
  std::size_t analysis_threads = 0;
};

class RaceDetector {
 public:
  explicit RaceDetector(RaceDetectorConfig cfg = {}) : cfg_(cfg) {}

  /// `events` must be seq-sorted (TraceLog::sorted_events()).
  ConcurrencyReport analyze(std::vector<trace::Event> events) const;

 private:
  RaceDetectorConfig cfg_;
};

}  // namespace home::detect
