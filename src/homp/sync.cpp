#include "src/homp/sync.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "src/explore/hooks.hpp"
#include "src/faults/injector.hpp"
#include "src/homp/runtime.hpp"
#include "src/simmpi/universe.hpp"
#include "src/util/run_context.hpp"
#include "src/util/thread_pool.hpp"

namespace home::homp {
namespace {

std::atomic<trace::ObjId> g_lock_counter{0x1000};

/// The locks the calling thread holds, kept sorted.  Keyed by the pooled job
/// the thread runs: a rank that ends by an exception while it holds a Lock
/// taken with lock() must not hand that id to the next job on its thread.
struct HeldLocks {
  std::uint64_t job = 0;
  std::vector<trace::ObjId> ids;
};

thread_local HeldLocks tls_locks;

std::vector<trace::ObjId>& held_locks() {
  const std::uint64_t job = util::current_job_id();
  if (tls_locks.job != job) {
    tls_locks.job = job;
    tls_locks.ids.clear();
  }
  return tls_locks.ids;
}

}  // namespace

namespace internal {

void note_acquired(trace::ObjId lock_id) {
  std::vector<trace::ObjId>& held = held_locks();
  held.insert(std::lower_bound(held.begin(), held.end(), lock_id), lock_id);
}

void note_released(trace::ObjId lock_id) {
  std::vector<trace::ObjId>& held = held_locks();
  auto it = std::lower_bound(held.begin(), held.end(), lock_id);
  if (it != held.end() && *it == lock_id) held.erase(it);
}

}  // namespace internal

std::vector<trace::ObjId> current_locks() { return held_locks(); }

namespace {

void emit_lock_event(trace::EventKind kind, trace::ObjId lock_id) {
  if (!util::run_context().log) return;
  trace::Event e;
  e.kind = kind;
  e.obj = lock_id;
  e.locks_held = held_locks();
  internal::emit_event(std::move(e));
}

}  // namespace

Lock::Lock() : id_(g_lock_counter.fetch_add(1)) {}

void Lock::lock() {
  if (explore::active()) {
    const simmpi::Process* process = simmpi::Universe::current();
    explore::yield_point(explore::HookKind::kLockAcquire,
                         process ? process->rank() : -1, "homp.lock");
  }
  mu_.lock();
  internal::note_acquired(id_);
  // Lock-holder pause fault: widen the critical section while *holding* the
  // mutex, the classic way a preempted holder starves its peers.
  if (faults::active()) {
    const simmpi::Process* process = simmpi::Universe::current();
    faults::lock_holder_point(process ? process->rank() : -1, "homp.lock");
  }
  emit_lock_event(trace::EventKind::kLockAcquire, id_);
}

void Lock::unlock() {
  emit_lock_event(trace::EventKind::kLockRelease, id_);
  internal::note_released(id_);
  mu_.unlock();
}

bool Lock::try_lock() {
  if (!mu_.try_lock()) return false;
  internal::note_acquired(id_);
  emit_lock_event(trace::EventKind::kLockAcquire, id_);
  return true;
}

Lock& critical_lock(const std::string& name) {
  // OpenMP critical sections are scoped to one *process*.  In the
  // rank-as-thread substrate all ranks (of every running Universe) share this
  // address space, so each simmpi Process keeps its own locks: two ranks, or
  // two concurrent runs, entering critical("x") never exclude each other —
  // exactly like two real MPI processes.
  simmpi::Process* process = simmpi::Universe::current();
  if (process != nullptr) {
    return *static_cast<Lock*>(
        process->critical_lock(name, [] { return std::make_shared<Lock>(); })
            .get());
  }
  // homp used without simmpi: one process, one table.
  static std::mutex registry_mu;
  static std::map<std::string, std::unique_ptr<Lock>> locks;
  std::lock_guard<std::mutex> guard(registry_mu);
  auto& slot = locks[name];
  if (!slot) slot = std::make_unique<Lock>();
  return *slot;
}

void critical(const std::string& name, const std::function<void()>& body) {
  if (explore::active()) {
    const simmpi::Process* process = simmpi::Universe::current();
    explore::yield_point(explore::HookKind::kCritical,
                         process ? process->rank() : -1, name.c_str());
  }
  LockGuard guard(critical_lock(name));
  if (faults::active()) {
    const simmpi::Process* process = simmpi::Universe::current();
    faults::lock_holder_point(process ? process->rank() : -1, name.c_str());
  }
  body();
}

}  // namespace home::homp
