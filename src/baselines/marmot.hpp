// Marmot-like baseline (Hilbrich et al., IWOMP'08 — the paper's [6]).
//
// Faithfully reproduces the two properties the paper measures against:
//  1. Architecture: a central "debug server" — every MPI call funnels
//     through one global analysis critical section (Marmot dedicates an
//     extra MPI process to global analysis), so all ranks serialize on the
//     checker and overhead grows with total call volume (15-56% in the
//     paper).
//  2. Semantics: *manifest-only* detection.  A violating pair is reported
//     only when the two calls actually overlap in real time in the observed
//     run; potential violations that happened to serialize are missed — the
//     false negatives the paper's accuracy table shows (5/6 on LU and SP).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/home/report.hpp"
#include "src/simmpi/universe.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/thread_registry.hpp"

namespace home::baselines {

class MarmotChecker : public simmpi::MpiHooks {
 public:
  void on_call_begin(const simmpi::CallDesc& desc) override;
  void on_call_end(const simmpi::CallDesc& desc) override;

  /// Violations observed so far (deduplicated).
  std::vector<spec::Violation> violations() const;
  std::size_t calls_checked() const;

 private:
  struct ActiveCall {
    trace::MpiCallType type;
    int tid;  ///< OS-thread discriminator (std::thread::id hash).
    int peer;
    int tag;
    std::uint64_t comm;
    std::uint64_t request;
    bool on_main_thread;
    const char* callsite;
    std::uint64_t token;
  };

  void check_against_active(const simmpi::CallDesc& desc, int tid);
  void add_violation(spec::Violation v);
  static int current_tid_key();

  mutable std::mutex mu_;  ///< the central debug-server critical section.
  std::map<int, std::vector<ActiveCall>> active_;  ///< rank -> in-flight calls.
  std::vector<spec::Violation> violations_;
  std::set<std::string> seen_;
  std::size_t calls_checked_ = 0;
  std::uint64_t next_token_ = 1;
};

/// Session wrapper mirroring home::Session's shape for the bench drivers.
class MarmotSession {
 public:
  MarmotSession();

  void configure(simmpi::UniverseConfig& ucfg);
  void attach(simmpi::Universe& universe);
  void detach(simmpi::Universe& universe);
  Report analyze();

  trace::ThreadRegistry& registry() { return registry_; }

 private:
  trace::ThreadRegistry registry_;
  std::unique_ptr<MarmotChecker> checker_;
};

}  // namespace home::baselines
