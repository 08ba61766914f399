// The run context: what one run's runtime hooks consult — its schedule
// explorer, its fault injector, homp's instrumentation sinks, the ITC
// baseline's access tracer, the default OpenMP team size and its abort
// signal.
//
// A simmpi::Universe holds one per run and binds it on every rank thread;
// homp hands it to the team threads a rank forks, and the threads a run
// starts for itself (the injector's redelivery worker, the online analyzer's
// consumer) are handed theirs.  Each hook reads it with one thread-local load
// and a branch, so runs on different threads never see each other's
// explorer, injector, trace log, tracer or abort, and any number of them can
// run at once.  Outside a run every field is null: hooks are no-ops and homp
// runs uninstrumented.
#pragma once

namespace home {
namespace baselines {
class ItcMemoryTracer;
}
namespace explore {
class Explorer;
}
namespace faults {
class Injector;
}
namespace simmpi {
class AbortSignal;
}
namespace trace {
class TraceLog;
class ThreadRegistry;
}  // namespace trace
}  // namespace home

namespace home::util {

struct RunContext {
  explore::Explorer* explorer = nullptr;  ///< null = exploration off.
  faults::Injector* injector = nullptr;   ///< null = fault injection off.
  /// homp's instrumentation sinks (null = the uninstrumented "Base" run).
  trace::TraceLog* log = nullptr;
  trace::ThreadRegistry* registry = nullptr;
  /// The ITC baseline's per-access tracer (null = no ITC session attached).
  baselines::ItcMemoryTracer* itc_tracer = nullptr;
  /// Team size of homp::parallel(n <= 0); 0 = the process default
  /// (homp::set_default_threads).
  int team_size = 0;
  /// Raised to tear the run down (simmpi::abortable_wait polls it).
  const simmpi::AbortSignal* abort = nullptr;
};

namespace internal {
inline thread_local RunContext tls_run_context;
}  // namespace internal

/// The calling thread's run context.
inline const RunContext& run_context() { return internal::tls_run_context; }

/// Binds `ctx` on the calling thread for this object's lifetime, then
/// restores the previous binding.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(const RunContext& ctx)
      : prev_(internal::tls_run_context) {
    internal::tls_run_context = ctx;
  }
  ~ScopedRunContext() { internal::tls_run_context = prev_; }
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext prev_;
};

}  // namespace home::util
