#include "src/simmpi/abort.hpp"

namespace home::simmpi {

void AbortSignal::raise(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reason_.empty()) reason_ = reason;
  }
  raised_.store(true, std::memory_order_release);
}

std::string AbortSignal::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

}  // namespace home::simmpi
