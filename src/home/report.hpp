// The final report a HOME session produces: matched violations plus the
// run's instrumentation and analysis statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/spec/violations.hpp"

namespace home {

/// Confidence tag for an analysis result (ISSUE-10 degraded-mode analysis).
/// kExact: the analysis saw the complete event stream.  kDegraded: part of
/// the input was lost (a torn WAL salvaged to its longest valid prefix) —
/// reported violations are real, but *absence* of a violation is no longer
/// conclusive.
enum class Verdict : std::uint8_t {
  kExact,
  kDegraded,
};

const char* verdict_name(Verdict verdict);

struct ReportStats {
  std::size_t trace_events = 0;
  std::size_t instrumented_calls = 0;
  std::size_t skipped_calls = 0;
  std::size_t monitored_variables = 0;
  std::size_t concurrent_variables = 0;
  std::size_t concurrent_pairs = 0;
  double analysis_seconds = 0.0;
};

class Report {
 public:
  Report() = default;
  Report(std::vector<spec::Violation> violations, ReportStats stats)
      : violations_(std::move(violations)), stats_(stats) {}

  const std::vector<spec::Violation>& violations() const { return violations_; }
  const ReportStats& stats() const { return stats_; }

  bool clean() const { return violations_.empty(); }
  bool has(spec::ViolationType type) const { return count(type) > 0; }
  std::size_t count(spec::ViolationType type) const;

  /// Number of distinct violation *types* observed (the paper's Table rows
  /// count one per injected violation class).
  std::size_t distinct_types() const;

  /// Degrade this report's confidence, with a human-readable reason
  /// ("WAL salvage: 3 corrupt frames, 120 bytes discarded").  Additive;
  /// a report never un-degrades.
  void mark_degraded(std::string reason);
  Verdict verdict() const { return verdict_; }
  bool degraded() const { return verdict_ == Verdict::kDegraded; }
  const std::vector<std::string>& degraded_reasons() const {
    return degraded_reasons_;
  }

  std::string to_string() const;

 private:
  std::vector<spec::Violation> violations_;
  ReportStats stats_;
  Verdict verdict_ = Verdict::kExact;
  std::vector<std::string> degraded_reasons_;
};

}  // namespace home
