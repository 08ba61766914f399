// The thread-safety specification of Section III.A: the six violation
// classes of hybrid MPI/OpenMP programs, and the violation record the
// matcher produces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/event.hpp"

namespace home::spec {

enum class ViolationType : std::uint8_t {
  kInitialization,      ///< MPI calls contradict the provided thread level.
  kFinalization,        ///< MPI_Finalize off the main thread / with pending calls.
  kConcurrentRecv,      ///< two threads receive with same (source, tag, comm).
  kConcurrentRequest,   ///< two threads Wait/Test the same request.
  kProbe,               ///< concurrent probe with same (source, tag) on a comm.
  kCollectiveCall,      ///< one comm used by two concurrent collectives.
};

inline constexpr int kViolationTypeCount = 6;

const char* violation_type_name(ViolationType type);

struct Violation {
  ViolationType type = ViolationType::kInitialization;
  int rank = -1;
  trace::Tid tid1 = trace::kNoTid;
  trace::Tid tid2 = trace::kNoTid;
  trace::Seq call1 = 0;  ///< seq of the first involved MPI call event (0 n/a).
  trace::Seq call2 = 0;
  std::string callsite1;
  std::string callsite2;
  /// Shared-resource identity (0 = n/a): the communicator of a V3/V5/V6
  /// finding, the request object of a V4 finding.  Part of the dedup key so
  /// collectives racing on *distinct* communicators at one callsite pair
  /// stay distinct reports.
  std::uint64_t comm = 0;
  std::uint64_t request = 0;
  std::string detail;

  std::string to_string() const;
};

/// Stable deduplication key: one report per (type, rank, callsite pair,
/// comm/request identity).
std::string violation_key(const Violation& v);

/// The first sighting of violation key `key` in one analysis: bumps
/// `spec.rule_hits` and `spec.violations.<class>` and pins a "[key] ..."
/// instant on the span timeline.  Matcher::match calls it once per reported
/// key, the online ViolationStream once per new key.
void note_first_sighting(const Violation& v, const std::string& key);

}  // namespace home::spec
