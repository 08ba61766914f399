#include "src/home/wrappers.hpp"

#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/simmpi/universe.hpp"
#include "src/spec/monitored.hpp"

namespace home {
namespace {

/// Simulated cost of the binary-instrumentation probe around each wrapped
/// call (busy iterations).  The paper's dynamic stage runs under Intel Pin,
/// whose per-probe overhead dwarfs our native event emission; this models it
/// so measured overheads land in a comparable regime.
constexpr int kProbeCostIterations = 1600;

}  // namespace

const char* instrument_filter_name(InstrumentFilter filter) {
  switch (filter) {
    case InstrumentFilter::kAll: return "systematic";
    case InstrumentFilter::kParallelOnly: return "parallel-regions-only";
    case InstrumentFilter::kPlan: return "static-plan";
  }
  return "?";
}

bool HomeWrappers::should_instrument(const simmpi::CallDesc& desc) const {
  // Lifecycle calls carry the thread-level facts V1/V2 need; they are
  // always recorded (they are rare, so this costs nothing).
  if (trace::routine_of(desc.type).lifecycle()) return true;
  switch (cfg_.filter) {
    case InstrumentFilter::kAll:
      return true;
    case InstrumentFilter::kParallelOnly:
      // Inside an OpenMP parallel region — or on any thread that is not the
      // rank's main thread (an MPI call from a thread the program started
      // outside homp): both mean hybrid concurrency is possible.
      return homp::in_parallel() || !desc.on_main_thread;
    case InstrumentFilter::kPlan:
      return desc.callsite != nullptr && cfg_.plan.count(desc.callsite) > 0;
  }
  return true;
}

void HomeWrappers::on_call_begin(const simmpi::CallDesc& desc) {
  // Init calls are recorded at end, once `provided` is known.
  if (trace::routine_of(desc.type).initializes()) return;
  if (!should_instrument(desc)) {
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  record(desc);
}

void HomeWrappers::on_call_end(const simmpi::CallDesc& desc) {
  if (trace::routine_of(desc.type).initializes()) record(desc);
}

void log_mpi_call(trace::TraceLog& log, const trace::ThreadRegistry* registry,
                  const simmpi::CallDesc& desc,
                  const std::vector<trace::ObjId>& locks, bool write_vars) {
  trace::MpiCallInfo info;
  info.type = desc.type;
  info.peer = desc.peer;
  info.tag = desc.tag;
  info.comm = desc.comm;
  info.request = desc.request;
  info.on_main_thread = desc.on_main_thread;
  info.provided = desc.process
                      ? static_cast<std::uint8_t>(desc.process->provided_level())
                      : 0;
  if (desc.callsite) info.callsite = log.strings().intern(desc.callsite);

  const trace::Tid tid = registry ? registry->current_tid() : trace::kNoTid;

  trace::Event call;
  call.tid = tid;
  call.rank = desc.rank;
  call.kind = trace::EventKind::kMpiCall;
  call.locks_held = locks;
  call.mpi = info;
  const trace::Seq call_seq = log.emit(std::move(call));
  if (!write_vars) return;

  // aux back-links each write to its call event so the matcher can recover
  // the arguments.
  for (trace::MonitoredVar var : trace::routine_of(desc.type).vars()) {
    trace::Event write;
    write.tid = tid;
    write.rank = desc.rank;
    write.kind = trace::EventKind::kMemWrite;
    write.obj = spec::monitored_var_id(desc.rank, var);
    write.aux = call_seq;
    write.locks_held = locks;
    log.emit(std::move(write));
  }
}

void HomeWrappers::record(const simmpi::CallDesc& desc) {
  instrumented_.fetch_add(1, std::memory_order_relaxed);

  // Emulated Pin-probe cost.
  volatile std::uint64_t sink = 1;
  for (int i = 0; i < kProbeCostIterations; ++i) sink = sink * 31 + 7;

  log_mpi_call(*log_, registry_, desc, homp::current_locks(), true);
}

}  // namespace home
