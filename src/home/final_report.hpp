// The last box of the paper's Figure 3: "Final Reports" — the merge of the
// compile-time warnings with the runtime concurrency findings.  Each entry
// records whether a violation class was statically predicted, dynamically
// confirmed, or both; statically predicted classes that the dynamic run never
// confirmed are kept as residual warnings (the run may simply not have
// exercised that path).
#pragma once

#include <string>
#include <vector>

#include "src/home/report.hpp"
#include "src/sast/diagnostics.hpp"

namespace home {

enum class Confirmation : std::uint8_t {
  kStaticOnly,    ///< predicted by the CFG analysis, not observed at runtime.
  kDynamicOnly,   ///< observed at runtime without a static prediction.
  kBoth,          ///< predicted and confirmed — the highest-confidence class.
};

const char* confirmation_name(Confirmation confirmation);

struct FinalEntry {
  spec::ViolationType type = spec::ViolationType::kInitialization;
  Confirmation confirmation = Confirmation::kDynamicOnly;
  std::vector<std::string> static_sites;   ///< callsite labels from sast.
  std::vector<std::string> dynamic_sites;  ///< callsite labels from the run.
  /// Strongest static severity for this class ("definite" / "possible"),
  /// empty when the class was not statically predicted.
  std::string static_severity;
  std::string detail;

  std::string to_string() const;
};

class FinalReport {
 public:
  explicit FinalReport(std::vector<FinalEntry> entries)
      : entries_(std::move(entries)) {}
  FinalReport(std::vector<FinalEntry> entries, Verdict verdict,
              std::vector<std::string> degraded_reasons)
      : entries_(std::move(entries)),
        verdict_(verdict),
        degraded_reasons_(std::move(degraded_reasons)) {}

  const std::vector<FinalEntry>& entries() const { return entries_; }
  std::size_t count(Confirmation confirmation) const;
  bool clean() const { return entries_.empty(); }

  /// Confidence carried over from the dynamic phase: a degraded dynamic
  /// report (a salvaged torn trace) makes every
  /// "not observed at runtime" judgement here inconclusive too.
  Verdict verdict() const { return verdict_; }
  bool degraded() const { return verdict_ == Verdict::kDegraded; }
  const std::vector<std::string>& degraded_reasons() const {
    return degraded_reasons_;
  }

  std::string to_string() const;

 private:
  std::vector<FinalEntry> entries_;
  Verdict verdict_ = Verdict::kExact;
  std::vector<std::string> degraded_reasons_;
};

/// Merge the two phases' findings. Violation classes are joined; within a
/// class, a static site that names the same callsite label as a dynamic
/// report upgrades the entry to kBoth.
FinalReport merge_reports(const std::vector<sast::StaticWarning>& warnings,
                          const Report& dynamic_report);

}  // namespace home
