#include "src/homp/pthreads_shim.hpp"

#include "src/homp/runtime.hpp"
#include "src/simmpi/universe.hpp"
#include "src/util/run_context.hpp"

namespace home::homp {

Thread::Thread(std::function<void()> body) {
  const util::RunContext run = util::run_context();
  trace::ThreadRegistry* registry = run.registry;
  simmpi::Process* process = simmpi::Universe::current();
  const int rank = process ? process->rank() : trace::kNoRank;

  if (registry) {
    const trace::Tid parent = registry->current_tid();
    child_tid_ = registry->register_thread(parent, rank, /*is_rank_main=*/false);
    // Fork edge stamped before the child can emit anything.
    internal::emit_plain(trace::EventKind::kThreadFork,
                         static_cast<trace::ObjId>(child_tid_));
  }

  thread_ = util::PooledThread([run, registry, process, tid = child_tid_,
                                fn = std::move(body)] {
    util::ScopedRunContext bind(run);
    if (registry && tid != trace::kNoTid) registry->bind_current_thread(tid);
    simmpi::Universe::set_current(process);
    fn();
    simmpi::Universe::set_current(nullptr);
  });
}

Thread::~Thread() {
  // Like std::thread, destroying an unjoined thread is a programming error;
  // joining here keeps tests and examples safe instead of terminating.
  if (thread_.joinable()) join();
}

void Thread::join() {
  if (joined_ || !thread_.joinable()) return;
  thread_.join();
  joined_ = true;
  if (util::run_context().registry && child_tid_ != trace::kNoTid) {
    internal::emit_plain(trace::EventKind::kThreadJoin,
                         static_cast<trace::ObjId>(child_tid_));
  }
}

}  // namespace home::homp
