#include "src/simmpi/enforcer.hpp"

#include <string>

namespace home::simmpi {

void ThreadLevelEnforcer::on_call_begin(const CallDesc& desc) {
  const trace::MpiRoutine& routine = trace::routine_of(desc.type);
  if (routine.initializes()) return;  // provided level not final yet.
  checked_.fetch_add(1, std::memory_order_relaxed);

  switch (desc.provided) {
    case ThreadLevel::kSingle:
    case ThreadLevel::kFunneled:
      if (!desc.on_main_thread) {
        throw UsageError(std::string(routine.name) +
                         " called off the main thread under " +
                         thread_level_name(desc.provided));
      }
      break;
    case ThreadLevel::kSerialized: {
      std::lock_guard<std::mutex> lock(mu_);
      if (in_flight_[desc.rank] > 0) {
        throw UsageError(std::string(routine.name) +
                         " overlaps another MPI call under "
                         "MPI_THREAD_SERIALIZED in rank " +
                         std::to_string(desc.rank));
      }
      ++in_flight_[desc.rank];
      break;
    }
    case ThreadLevel::kMultiple:
      break;
  }
}

void ThreadLevelEnforcer::on_call_end(const CallDesc& desc) {
  if (trace::routine_of(desc.type).initializes()) return;
  if (desc.provided == ThreadLevel::kSerialized) {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_[desc.rank] > 0) --in_flight_[desc.rank];
  }
}

}  // namespace home::simmpi
