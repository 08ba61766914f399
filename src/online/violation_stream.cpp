#include "src/online/violation_stream.hpp"

#include <string>
#include <utility>

namespace home::online {

bool ViolationStream::offer(spec::Violation&& v) {
  std::function<void(const spec::Violation&)> callback;
  const spec::Violation* live = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string key = spec::violation_key(v);
    if (!seen_.insert(key).second) {
      ++duplicates_;
      return false;
    }
    spec::note_first_sighting(v, key);
    auto& live_count = live_per_type_[static_cast<std::size_t>(v.type)];
    const bool within_budget = cfg_.max_live_reports_per_type == 0 ||
                               live_count < cfg_.max_live_reports_per_type;
    violations_.push_back(std::move(v));
    if (cfg_.on_violation && within_budget) {
      ++live_count;
      ++live_reports_;
      callback = cfg_.on_violation;
      live = &violations_.back();
    } else if (cfg_.on_violation) {
      ++suppressed_;
    }
  }
  // Callback outside the lock would race with take(); the violation vector is
  // only consumed after the analysis thread stops, and offer() is only called
  // from that thread, so invoking under the captured reference is safe here.
  if (callback) callback(*live);
  return true;
}

std::vector<spec::Violation> ViolationStream::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(violations_);
}

std::size_t ViolationStream::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.size();
}

std::size_t ViolationStream::duplicates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_;
}

std::size_t ViolationStream::live_reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_reports_;
}

std::size_t ViolationStream::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

}  // namespace home::online
