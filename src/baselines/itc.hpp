// Intel-Thread-Checker-like baseline (the paper's [2]/[18] comparator).
//
// Reproduces the three properties the paper measures against:
//  1. Systematic, heavyweight monitoring: *every* MPI call is instrumented
//     (no static filtering) and *every* shared memory access of the
//     application streams through a per-access checking table — the source
//     of its up-to-~200% overhead.
//  2. No OpenMP knowledge: `omp critical` is not recognized, so the lockset
//     of every recorded event is empty.  A critical-guarded pair of MPI
//     calls is therefore reported as concurrent — the false positive the
//     paper observes on BT.
//  3. Probe blind spot: the source/tag arguments of MPI_Probe/Iprobe are not
//     captured, so ProbeViolations are never matched — the missed violation
//     on LU.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/home/report.hpp"
#include "src/simmpi/universe.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/run_context.hpp"

namespace home::baselines {

/// Fixed-size per-address access table: the per-access work ITC does.
class ItcMemoryTracer {
 public:
  explicit ItcMemoryTracer(int log2_slots = 18);

  void access(const void* addr, bool write);

  std::uint64_t accesses() const { return accesses_.load(); }
  std::uint64_t app_races() const { return races_.load(); }
  int threads_seen() const { return threads_seen_.load(); }

 private:
  const std::uint64_t id_;  ///< process-unique; keys the per-thread cache.
  /// One packed word per slot: high 48 bits = hashed address tag, bit 15 =
  /// wrote, low 15 bits = thread key. One atomic exchange per access.
  struct Slot {
    std::atomic<std::uint64_t> packed{0};
  };
  std::vector<Slot> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> races_{0};
  /// Intel Thread Checker funnels every thread through one serial analysis
  /// pipeline, so its per-access cost grows with the team size — modeled by
  /// scaling the per-access work with the number of distinct threads seen
  /// (this is why the paper pins the benchmarks to 2 threads).
  std::atomic<int> threads_seen_{0};
};

/// The hook applications call on shared stores/loads in their kernels: feeds
/// the tracer of the run on this thread (ItcSession::attach puts it in the
/// run context).  Costs one thread-local load and a branch when the run has
/// none (the Base and HOME configurations).
inline void itc_trace(const void* addr, bool write = true) {
  ItcMemoryTracer* tracer = util::run_context().itc_tracer;
  if (tracer) tracer->access(addr, write);
}

/// MPI-call instrumentation: like HOME's wrappers but systematic, with empty
/// locksets, and without probe arguments (see file comment).
class ItcWrappers : public simmpi::MpiHooks {
 public:
  ItcWrappers(trace::TraceLog* log, trace::ThreadRegistry* registry)
      : log_(log), registry_(registry) {}

  void on_call_begin(const simmpi::CallDesc& desc) override;
  void on_call_end(const simmpi::CallDesc& desc) override;

  std::size_t instrumented_calls() const { return instrumented_.load(); }

 private:
  void record(const simmpi::CallDesc& desc);

  trace::TraceLog* log_;
  trace::ThreadRegistry* registry_;
  std::atomic<std::size_t> instrumented_{0};
};

class ItcSession {
 public:
  ItcSession();

  void configure(simmpi::UniverseConfig& ucfg);
  void attach(simmpi::Universe& universe);
  void detach(simmpi::Universe& universe);
  Report analyze();

  trace::TraceLog& log() { return log_; }
  trace::ThreadRegistry& registry() { return registry_; }
  const ItcMemoryTracer& tracer() const { return tracer_; }

 private:
  trace::TraceLog log_;
  trace::ThreadRegistry registry_;
  ItcMemoryTracer tracer_;
  std::unique_ptr<ItcWrappers> wrappers_;
};

}  // namespace home::baselines
