#include "src/spec/violations.hpp"

#include <array>
#include <sstream>

#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"

namespace home::spec {

namespace {

// Resolved once per process (DESIGN.md §9).  The class leaves are dotted
// lowercase (the paper's predicate spellings are not metric-safe), in
// ViolationType order.
struct ViolationMetrics {
  static obs::Counter& counter(const char* name) {
    return obs::Registry::global().counter(name);
  }
  obs::Counter& rule_hits = counter("spec.rule_hits");
  std::array<obs::Counter*, kViolationTypeCount> per_class = {
      &counter("spec.violations.initialization"),
      &counter("spec.violations.finalization"),
      &counter("spec.violations.concurrent_recv"),
      &counter("spec.violations.concurrent_request"),
      &counter("spec.violations.probe"),
      &counter("spec.violations.collective_call")};
};

}  // namespace

const char* violation_type_name(ViolationType type) {
  switch (type) {
    case ViolationType::kInitialization: return "InitializationViolation";
    case ViolationType::kFinalization: return "FinalizationViolation";
    case ViolationType::kConcurrentRecv: return "ConcurrentRecvViolation";
    case ViolationType::kConcurrentRequest: return "ConcurrentRequestViolation";
    case ViolationType::kProbe: return "ProbeViolation";
    case ViolationType::kCollectiveCall: return "CollectiveCallViolation";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::ostringstream os;
  os << violation_type_name(type) << " @ rank " << rank;
  if (tid1 != trace::kNoTid) os << " threads(" << tid1 << "," << tid2 << ")";
  if (!callsite1.empty() || !callsite2.empty()) {
    os << " sites(" << (callsite1.empty() ? "?" : callsite1) << ", "
       << (callsite2.empty() ? "?" : callsite2) << ")";
  }
  if (comm != 0) os << " comm " << comm;
  if (request != 0) os << " request " << request;
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

std::string violation_key(const Violation& v) {
  std::ostringstream os;
  // Callsites give stable identity across interleavings; fall back to call
  // seqs only when the program has no callsite labels at all.
  os << static_cast<int>(v.type) << "|" << v.rank << "|";
  if (v.callsite1.empty() && v.callsite2.empty()) {
    os << v.call1 << "|" << v.call2;
  } else {
    // Order-normalize the pair.
    if (v.callsite1 <= v.callsite2) {
      os << v.callsite1 << "|" << v.callsite2;
    } else {
      os << v.callsite2 << "|" << v.callsite1;
    }
  }
  // Shared-resource identity: without it, collective violations on distinct
  // communicators at the same callsite pair would dedup into one report.
  // Communicator ids are allocation-ordered at startup, hence stable across
  // runs; raw request handles are per-message and are NOT part of the key
  // (they would break replay key equality), only of the report.
  if (v.comm != 0) os << "|comm" << v.comm;
  return os.str();
}

void note_first_sighting(const Violation& v, const std::string& key) {
  static ViolationMetrics metrics;
  metrics.rule_hits.add(1);
  metrics.per_class[static_cast<std::size_t>(v.type)]->add(1);
  // The key leads the detail so the instant correlates with the provenance
  // flows of the same violation.
  obs::instant(std::string("violation: ") + violation_type_name(v.type),
               "[" + key + "] " + v.to_string());
}

}  // namespace home::spec
