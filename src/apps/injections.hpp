// Fault injector: plants each of the six thread-safety violation classes
// into a running hybrid app, with control over whether the violating calls
// *manifest* (actually overlap in real time — catchable by the Marmot-like
// manifest-only checker) or stay *latent* (temporally separated but still
// logically unordered — only predictive tools like HOME catch them).
//
// This reproduces the paper's methodology: "we artificially implemented
// several tricky errors inside of these benchmarks for the accuracy testing".
#pragma once

#include <cstdint>

#include "src/simmpi/universe.hpp"

namespace home::apps {

enum class InjectionStyle : std::uint8_t {
  kManifest,  ///< violating calls overlap in real time.
  kLatent,    ///< violating calls are milliseconds apart (never overlap).
};

struct InjectionMix {
  bool v1_initialization = false;
  bool v2_finalization = false;
  bool v3_concurrent_recv = false;
  bool v4_concurrent_request = false;
  bool v5_probe = false;
  bool v6_collective = false;

  InjectionStyle v3_style = InjectionStyle::kManifest;
  InjectionStyle v5_style = InjectionStyle::kManifest;
  /// true: V5 uses blocking MPI_Probe (the ITC-like tool's blind spot, the
  /// LU configuration); false: MPI_Iprobe (captured by every tool).
  bool v5_blocking_probe = false;
  /// BT's trap: a *legal* critical-guarded pair of collectives that the
  /// ITC-like tool (blind to omp critical) reports as a false positive.
  bool benign_critical_bait = false;

  bool any() const {
    return v1_initialization || v2_finalization || v3_concurrent_recv ||
           v4_concurrent_request || v5_probe || v6_collective ||
           benign_critical_bait;
  }
};

/// Communicators the injections use (created serially at app start), and
/// the per-rank state a team shares during them.
struct InjectionComms {
  simmpi::Comm vcomm;     ///< V6's shared collective communicator.
  simmpi::Comm baitcomm;  ///< the benign critical bait's communicator.
  /// V4's receive request and payload, posted by one single() and waited on
  /// by the whole team.  Per rank, so concurrent runs never share them.
  simmpi::Request v4_request;
  int v4_payload = 0;
};

InjectionComms setup_injection_comms(simmpi::Process& p, const InjectionMix& mix);

/// Run all enabled injections. Must be called from *inside* a parallel region
/// by every team thread (threads 0 and 1 take the scripted roles; any extra
/// threads fall through). `partner` pairing: rank r partners with r^1; the
/// odd rank of each pair plays the sender, the even rank the receiver.
void run_injections(simmpi::Process& p, const InjectionMix& mix,
                    InjectionComms& comms);

}  // namespace home::apps
