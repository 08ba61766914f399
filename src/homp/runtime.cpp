#include "src/homp/runtime.hpp"

#include <atomic>
#include <mutex>

#include "src/explore/hooks.hpp"
#include "src/homp/team.hpp"
#include "src/obs/span.hpp"
#include "src/simmpi/universe.hpp"
#include "src/util/run_context.hpp"
#include "src/util/thread_pool.hpp"

namespace home::homp {

namespace {

std::atomic<int> g_default_threads{2};
std::atomic<std::uint64_t> g_team_counter{1};

struct ThreadCtx {
  internal::Team* team = nullptr;
  int tnum = 0;
  std::uint64_t construct_count = 0;
};

// Stack of enclosing parallel regions (supports nesting).
thread_local std::vector<ThreadCtx> tls_stack;

ThreadCtx* current_ctx() {
  return tls_stack.empty() ? nullptr : &tls_stack.back();
}

}  // namespace

void set_default_threads(int nthreads) {
  g_default_threads.store(nthreads > 0 ? nthreads : 1);
}
int default_threads() {
  const int run_size = util::run_context().team_size;
  return run_size > 0 ? run_size : g_default_threads.load();
}

int thread_num() {
  ThreadCtx* ctx = current_ctx();
  return ctx ? ctx->tnum : 0;
}

int num_threads() {
  ThreadCtx* ctx = current_ctx();
  return ctx && ctx->team ? ctx->team->size() : 1;
}

bool in_parallel() { return current_ctx() != nullptr; }

namespace internal {

Team* current_team() {
  ThreadCtx* ctx = current_ctx();
  return ctx ? ctx->team : nullptr;
}

std::uint64_t next_construct_index() {
  ThreadCtx* ctx = current_ctx();
  return ctx ? ctx->construct_count++ : 0;
}

void emit_event(trace::Event e) {
  const util::RunContext& ctx = util::run_context();
  if (!ctx.log) return;
  e.tid = ctx.registry ? ctx.registry->current_tid() : trace::kNoTid;
  e.rank = ctx.registry ? ctx.registry->current_rank() : trace::kNoRank;
  ctx.log->emit(std::move(e));
}

void emit_plain(trace::EventKind kind, trace::ObjId obj, std::uint64_t aux) {
  if (!util::run_context().log) return;
  trace::Event e;
  e.kind = kind;
  e.obj = obj;
  e.aux = aux;
  emit_event(std::move(e));
}

void team_barrier(Team* team) {
  if (!team) return;
  if (explore::active()) {
    simmpi::Process* process = simmpi::Universe::current();
    explore::yield_point(explore::HookKind::kBarrier,
                         process ? process->rank() : -1, "homp.barrier");
  }
  const std::uint64_t my_gen = team->begin_barrier();
  // The arrival event must be stamped before any participant can be released,
  // so the HB replay sees every arrival before any post-barrier event —
  // emit first, then arrive.
  emit_plain(trace::EventKind::kBarrier, (team->team_id() << 20) | my_gen,
             static_cast<std::uint64_t>(team->size()));
  team->finish_barrier(my_gen);
}

}  // namespace internal

void barrier() { internal::team_barrier(internal::current_team()); }

void parallel(int nthreads, const std::function<void()>& body) {
  obs::Span span("omp.parallel");
  const int n = nthreads > 0 ? nthreads : default_threads();
  const std::uint64_t team_id = g_team_counter.fetch_add(1);
  internal::Team team(n, team_id);

  // Team threads belong to the forking thread's run: they inherit its
  // context (explorer, injector, sinks, abort) as they inherit its rank.
  const util::RunContext run = util::run_context();
  trace::ThreadRegistry* registry = run.registry;
  simmpi::Process* process = simmpi::Universe::current();
  const int rank = process ? process->rank() : trace::kNoRank;

  internal::emit_plain(trace::EventKind::kRegionBegin, team_id,
                       static_cast<std::uint64_t>(n));

  // Pre-register worker tids so the master can emit fork events that are
  // stamped before any child event (the HB replay relies on this order).
  std::vector<trace::Tid> worker_tids(static_cast<std::size_t>(n), trace::kNoTid);
  if (registry) {
    const trace::Tid parent = registry->current_tid();
    for (int i = 1; i < n; ++i) {
      worker_tids[static_cast<std::size_t>(i)] =
          registry->register_thread(parent, rank, /*is_rank_main=*/false);
      internal::emit_plain(trace::EventKind::kThreadFork,
                           static_cast<trace::ObjId>(
                               worker_tids[static_cast<std::size_t>(i)]));
    }
  }

  std::vector<util::PooledThread> workers;
  workers.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  std::exception_ptr first_error;
  std::mutex error_mu;

  for (int i = 1; i < n; ++i) {
    workers.emplace_back([&, i] {
      util::ScopedRunContext bind(run);
      if (registry) {
        registry->bind_current_thread(worker_tids[static_cast<std::size_t>(i)]);
      }
      simmpi::Universe::set_current(process);  // inherit the rank context.
      tls_stack.push_back(ThreadCtx{&team, i, 0});
      const int prev_lane = explore::internal::set_thread_lane(i);
      explore::internal::enter_parallel();
      try {
        body();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      explore::internal::exit_parallel();
      explore::internal::set_thread_lane(prev_lane);
      tls_stack.pop_back();
      simmpi::Universe::set_current(nullptr);
    });
  }

  // The calling thread is thread 0 (the OpenMP master).
  tls_stack.push_back(ThreadCtx{&team, 0, 0});
  const int prev_lane = explore::internal::set_thread_lane(0);
  explore::internal::enter_parallel();
  try {
    body();
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!first_error) first_error = std::current_exception();
  }
  explore::internal::exit_parallel();
  explore::internal::set_thread_lane(prev_lane);
  tls_stack.pop_back();

  for (auto& w : workers) w.join();
  if (registry) {
    for (int i = 1; i < n; ++i) {
      internal::emit_plain(trace::EventKind::kThreadJoin,
                           static_cast<trace::ObjId>(
                               worker_tids[static_cast<std::size_t>(i)]));
    }
  }
  internal::emit_plain(trace::EventKind::kRegionEnd, team_id);

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace home::homp
