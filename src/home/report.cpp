#include "src/home/report.hpp"

#include <set>
#include <sstream>

namespace home {

void Report::mark_degraded(std::string reason) {
  verdict_ = Verdict::kDegraded;
  degraded_reasons_.push_back(std::move(reason));
}

std::size_t Report::count(spec::ViolationType type) const {
  std::size_t n = 0;
  for (const auto& v : violations_) {
    if (v.type == type) ++n;
  }
  return n;
}

std::size_t Report::distinct_types() const {
  std::set<int> types;
  for (const auto& v : violations_) types.insert(static_cast<int>(v.type));
  return types.size();
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "=== HOME thread-safety report ===\n";
  if (degraded()) {
    os << "!! DEGRADED analysis — results are a lower bound:\n";
    for (const std::string& reason : degraded_reasons_) {
      os << "!!   " << reason << "\n";
    }
  }
  os << "events=" << stats_.trace_events
     << " instrumented=" << stats_.instrumented_calls
     << " skipped=" << stats_.skipped_calls
     << " monitored-vars=" << stats_.monitored_variables
     << " concurrent-vars=" << stats_.concurrent_variables
     << " pairs=" << stats_.concurrent_pairs << "\n";
  if (violations_.empty()) {
    os << "no thread-safety violations detected\n";
  } else {
    os << violations_.size() << " violation(s), " << distinct_types()
       << " distinct class(es):\n";
    for (const auto& v : violations_) os << "  - " << v.to_string() << "\n";
  }
  return os.str();
}

}  // namespace home
