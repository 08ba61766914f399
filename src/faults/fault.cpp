#include "src/faults/fault.hpp"

#include <sstream>

namespace home::faults {

namespace {

constexpr const char* kKindNames[kFaultKindCount] = {
    "msg_delay", "msg_drop", "rank_stall", "rank_crash", "lock_pause",
    "queue_pressure",
};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kFaultKindCount ? kKindNames[i] : "?";
}

bool parse_fault_kind(const std::string& name, FaultKind* out) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    if (name == kKindNames[i]) {
      *out = static_cast<FaultKind>(i);
      return true;
    }
  }
  return false;
}

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  os << "delay=" << msg_delay_p << ",drop=" << msg_drop_p
     << ",stall=" << rank_stall_p << ",crash=" << rank_crash_p
     << ",lockpause=" << lock_pause_p << ",qpressure=" << queue_pressure_p
     << ",max_delay_us=" << max_delay_us << ",redeliver_us=" << redeliver_delay_us
     << ",max_crashes=" << max_crashes;
  return os.str();
}

bool FaultSpec::parse(const std::string& text, FaultSpec* out) {
  FaultSpec parsed;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    try {
      if (key == "delay") {
        parsed.msg_delay_p = std::stod(val);
      } else if (key == "drop") {
        parsed.msg_drop_p = std::stod(val);
      } else if (key == "stall") {
        parsed.rank_stall_p = std::stod(val);
      } else if (key == "crash") {
        parsed.rank_crash_p = std::stod(val);
      } else if (key == "lockpause") {
        parsed.lock_pause_p = std::stod(val);
      } else if (key == "qpressure") {
        parsed.queue_pressure_p = std::stod(val);
      } else if (key == "max_delay_us") {
        parsed.max_delay_us = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "redeliver_us") {
        parsed.redeliver_delay_us = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "max_crashes") {
        parsed.max_crashes = std::stoi(val);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  *out = parsed;
  return true;
}

}  // namespace home::faults
