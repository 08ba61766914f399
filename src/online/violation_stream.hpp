// Live violation surface: deduplicates the matcher's (re-)emissions by
// violation_key and rate-limits the first-occurrence callbacks, so a
// violation firing on every loop iteration produces one live report instead
// of a firehose.  Every deduplicated violation is retained for the final
// report regardless of rate limiting.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/spec/violations.hpp"

namespace home::online {

/// Live on_violation callbacks per violation type.  Suppressed reports are
/// still recorded, just not surfaced live.
inline constexpr std::size_t kMaxLiveReportsPerType = 16;

struct ViolationStreamConfig {
  /// Invoked on the analysis thread for each new (non-duplicate,
  /// non-rate-limited) violation while the program is still running.
  std::function<void(const spec::Violation&)> on_violation;
};

class ViolationStream {
 public:
  explicit ViolationStream(ViolationStreamConfig cfg) : cfg_(std::move(cfg)) {}

  /// Record v if its key is new; fire the live callback unless the type's
  /// live budget is spent.  Returns true if v was new.
  bool offer(spec::Violation&& v);

  /// The deduplicated violations in first-occurrence order.
  std::vector<spec::Violation> take();

  std::size_t recorded() const;    ///< deduplicated violations retained.
  std::size_t duplicates() const;  ///< offers dropped by key dedup.
  std::size_t live_reports() const;
  std::size_t suppressed() const;  ///< recorded but rate-limited live.

 private:
  ViolationStreamConfig cfg_;
  mutable std::mutex mu_;
  std::set<std::string> seen_;
  std::vector<spec::Violation> violations_;
  std::array<std::size_t, spec::kViolationTypeCount> live_per_type_{};
  std::size_t duplicates_ = 0;
  std::size_t live_reports_ = 0;
  std::size_t suppressed_ = 0;
};

}  // namespace home::online
