// The calling thread's display name, shown in the telemetry span timeline.
//
// trace::ThreadRegistry sets it when a thread binds to its tid ("rank0.main",
// "rank1.w3"), subsystems set it directly (the online analyzer names itself
// "analyzer"), and the thread pool clears it when a job ends, so a reused
// thread never carries the last job's name.
#pragma once

#include <cstdint>
#include <string>

namespace home::util {

/// Thread-local; "" until set.  The version counter bumps on every set so
/// cached consumers (obs span rings) can refresh lazily.
void set_current_thread_name(std::string name);
const std::string& current_thread_name();
std::uint64_t current_thread_name_version();

}  // namespace home::util
