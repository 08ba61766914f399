#include "src/baselines/itc.hpp"

#include <functional>
#include <thread>

#include "src/home/session.hpp"
#include "src/home/wrappers.hpp"
#include "src/homp/runtime.hpp"
#include "src/util/stats.hpp"

namespace home::baselines {
namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int cached_tid_key() {
  thread_local int key = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
  return key;
}

}  // namespace

ItcMemoryTracer::ItcMemoryTracer(int log2_slots)
    : id_(next_tracer_id()),
      slots_(static_cast<std::size_t>(1) << log2_slots),
      mask_((static_cast<std::uint64_t>(1) << log2_slots) - 1) {}

void ItcMemoryTracer::access(const void* addr, bool write) {
  // The access counter is folded in batches through a thread-local cache so
  // the hot path carries one atomic exchange, not two RMWs.  The cache is
  // keyed by the tracer's id, not its address: runs reuse pooled threads, so
  // a tracer built where a dead one lived must not inherit the thread's
  // registration or its unfolded count.
  thread_local std::uint64_t local_count = 0;
  thread_local std::uint64_t registered_with = 0;  ///< ids start at 1.
  if (registered_with != id_) {
    registered_with = id_;
    local_count = 0;
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
  if (!trace::routine_of(desc.type).initializes()) record(desc);
}

void ItcWrappers::on_call_end(const simmpi::CallDesc& desc) {
  if (trace::routine_of(desc.type).initializes()) record(desc);
}

void ItcWrappers::record(const simmpi::CallDesc& desc) {
  instrumented_.fetch_add(1, std::memory_order_relaxed);
  // No lockset snapshot: ITC does not understand omp critical, so events
  // carry empty locksets and lock-guarded pairs stay "concurrent".  Probe
  // blind spot: the source/tag arguments of *blocking* MPI_Probe are not
  // captured (the paper observes this on LU), so it writes no monitored
  // variable; MPI_Iprobe is handled normally.
  log_mpi_call(*log_, registry_, desc, {},
               desc.type != trace::MpiCallType::kProbe);
}

ItcSession::ItcSession()
    : wrappers_(std::make_unique<ItcWrappers>(&log_, &registry_)) {}

void ItcSession::configure(simmpi::UniverseConfig& ucfg) {
  ucfg.log = &log_;
  ucfg.registry = &registry_;
}

void ItcSession::attach(simmpi::Universe& universe) {
  universe.hooks().add(wrappers_.get());
  util::RunContext& run = universe.run_context();
  run.log = &log_;
  run.registry = &registry_;
  run.itc_tracer = &tracer_;
}

void ItcSession::detach(simmpi::Universe& universe) {
  universe.hooks().remove(wrappers_.get());
  util::RunContext& run = universe.run_context();
  run.log = nullptr;
  run.registry = nullptr;
  run.itc_tracer = nullptr;
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
