#include "src/baselines/itc.hpp"

#include <functional>
#include <thread>

#include "src/home/session.hpp"
#include "src/homp/runtime.hpp"
#include "src/spec/monitored.hpp"
#include "src/util/stats.hpp"

namespace home::baselines {

std::atomic<ItcMemoryTracer*> g_itc_tracer{nullptr};

namespace {

int cached_tid_key() {
  thread_local int key = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
  return key;
}

}  // namespace

ItcMemoryTracer::ItcMemoryTracer(int log2_slots)
    : slots_(static_cast<std::size_t>(1) << log2_slots),
      mask_((static_cast<std::uint64_t>(1) << log2_slots) - 1) {}

void ItcMemoryTracer::access(const void* addr, bool write) {
  // The access counter is folded in batches through a thread-local cache so
  // the hot path carries one atomic exchange, not two RMWs.
  thread_local std::uint64_t local_count = 0;
  thread_local const ItcMemoryTracer* registered_with = nullptr;
  if (registered_with != this) {
    registered_with = this;
    threads_seen_.fetch_add(1, std::memory_order_relaxed);
  }
  if (++local_count >= 256) {
    accesses_.fetch_add(local_count, std::memory_order_relaxed);
    local_count = 0;
  }
  // Serial-pipeline emulation: per-access analysis work grows with the
  // OpenMP team size — ITC multiplexes all of a process's threads through
  // one serial checker (see header comment).
  const int scale = homp::default_threads();
  volatile std::uint64_t sink = 1;
  for (int i = 0; i < scale * scale; ++i) sink = sink * 31 + 7;
  // Fibonacci hash into the table.
  const std::uint64_t key =
      reinterpret_cast<std::uint64_t>(addr) * 0x9E3779B97F4A7C15ULL;
  Slot& slot = slots_[(key >> 13) & mask_];
  const std::uint64_t tid = static_cast<std::uint64_t>(cached_tid_key()) & 0x7FFF;
  const std::uint64_t packed =
      (key & ~0xFFFFULL) | tid | (write ? 0x8000ULL : 0ULL);
  const std::uint64_t prev = slot.packed.exchange(packed, std::memory_order_relaxed);
  // Same address tag, different thread, at least one write -> counted as an
  // application-level data-race suspicion (ITC's noisy statistics).
  if (prev != 0 && (prev & ~0xFFFFULL) == (packed & ~0xFFFFULL) &&
      ((prev ^ packed) & 0x7FFFULL) != 0 && ((prev | packed) & 0x8000ULL) != 0) {
    races_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ItcWrappers::on_call_begin(const simmpi::CallDesc& desc) {
  const bool is_init = desc.type == trace::MpiCallType::kInit ||
                       desc.type == trace::MpiCallType::kInitThread;
  if (!is_init) record(desc);
}

void ItcWrappers::on_call_end(const simmpi::CallDesc& desc) {
  const bool is_init = desc.type == trace::MpiCallType::kInit ||
                       desc.type == trace::MpiCallType::kInitThread;
  if (is_init) record(desc);
}

void ItcWrappers::record(const simmpi::CallDesc& desc) {
  instrumented_.fetch_add(1, std::memory_order_relaxed);

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
  if (desc.callsite) info.callsite = log_->strings().intern(desc.callsite);

  const trace::Tid tid = registry_ ? registry_->current_tid() : trace::kNoTid;

  trace::Event call;
  call.tid = tid;
  call.rank = desc.rank;
  call.kind = trace::EventKind::kMpiCall;
  // No lockset snapshot: ITC does not understand omp critical, so events
  // carry empty locksets and lock-guarded pairs stay "concurrent".
  call.mpi = info;
  const trace::Seq call_seq = log_->emit(std::move(call));

  // Probe blind spot: the source/tag arguments of *blocking* MPI_Probe are
  // not captured (the paper observes this on LU), so no monitored-variable
  // writes are produced for it; MPI_Iprobe is handled normally.
  if (desc.type == trace::MpiCallType::kProbe) return;

  for (spec::MonitoredVar var : spec::monitored_vars_for(desc.type)) {
    trace::Event write;
    write.tid = tid;
    write.rank = desc.rank;
    write.kind = trace::EventKind::kMemWrite;
    write.obj = spec::monitored_var_id(desc.rank, var);
    write.aux = call_seq;
    log_->emit(std::move(write));
  }
}

ItcSession::ItcSession()
    : wrappers_(std::make_unique<ItcWrappers>(&log_, &registry_)) {}

void ItcSession::configure(simmpi::UniverseConfig& ucfg) {
  ucfg.log = &log_;
  ucfg.registry = &registry_;
  ucfg.emit_message_edges = true;
}

void ItcSession::attach(simmpi::Universe& universe) {
  universe.hooks().add(wrappers_.get());
  homp::install_instrumentation(homp::Instrumentation{&log_, &registry_});
  g_itc_tracer.store(&tracer_);
}

void ItcSession::detach(simmpi::Universe& universe) {
  g_itc_tracer.store(nullptr);
  universe.hooks().remove(wrappers_.get());
  homp::clear_instrumentation();
}

Report ItcSession::analyze() {
  util::Stopwatch timer;
  PostMortem pass = analyze_post_mortem(log_.sorted_events(), log_.strings(),
                                        detect::RaceDetectorConfig{});
  ReportStats stats = pass.stats;
  stats.instrumented_calls = wrappers_->instrumented_calls();
  stats.analysis_seconds = timer.elapsed_seconds();
  return Report(std::move(pass.violations), stats);
}

}  // namespace home::baselines
