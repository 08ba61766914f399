// HOME's MPI wrappers (the HMPI_* layer of Section IV.B), realized as simmpi
// hooks: for every instrumented call they append the call record to the
// execution log and WRITE the call's monitored variables, carrying the
// calling thread's lockset snapshot.
//
// The instrumentation filter implements the paper's static-analysis overhead
// reduction: only MPI calls inside OpenMP parallel regions (or on the
// explicit callsite plan produced by sast) are instrumented; lifecycle calls
// (Init/Init_thread/Finalize) are always recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/simmpi/hooks.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"

namespace home {

enum class InstrumentFilter : std::uint8_t {
  kAll,           ///< systematic instrumentation (the E8 ablation baseline).
  kParallelOnly,  ///< only calls inside an OpenMP parallel region (default).
  kPlan,          ///< only callsites listed in the static-analysis plan.
};

const char* instrument_filter_name(InstrumentFilter filter);

/// The wrapper body of Section IV.B, shared by the HOME and ITC wrappers:
/// log the call with its arguments, then (if `write_vars`) WRITE each
/// monitored variable its routine writes, back-linked to the call by aux.
/// Every event carries `locks`.
void log_mpi_call(trace::TraceLog& log, const trace::ThreadRegistry* registry,
                  const simmpi::CallDesc& desc,
                  const std::vector<trace::ObjId>& locks, bool write_vars);

struct WrapperConfig {
  InstrumentFilter filter = InstrumentFilter::kParallelOnly;
  /// Callsite labels selected by the static analysis (used with kPlan).
  std::set<std::string> plan;
};

class HomeWrappers : public simmpi::MpiHooks {
 public:
  HomeWrappers(WrapperConfig cfg, trace::TraceLog* log,
               trace::ThreadRegistry* registry)
      : cfg_(std::move(cfg)), log_(log), registry_(registry) {}

  // The paper's wrappers write the monitored variables and the execution log
  // *before* forwarding to the real MPI routine (Listing 2: StartExecLog()
  // precedes MPI_Recv).  Logging at call begin also records calls that then
  // block forever — essential for reporting violations that manifest as
  // deadlock.  Init/Init_thread are the exception: their event must carry the
  // *provided* thread level, which only exists after the call returns.
  void on_call_begin(const simmpi::CallDesc& desc) override;
  void on_call_end(const simmpi::CallDesc& desc) override;

  std::size_t instrumented_calls() const { return instrumented_.load(); }
  std::size_t skipped_calls() const { return skipped_.load(); }

 private:
  bool should_instrument(const simmpi::CallDesc& desc) const;
  void record(const simmpi::CallDesc& desc);

  WrapperConfig cfg_;
  trace::TraceLog* log_;
  trace::ThreadRegistry* registry_;
  std::atomic<std::size_t> instrumented_{0};
  std::atomic<std::size_t> skipped_{0};
};

}  // namespace home
