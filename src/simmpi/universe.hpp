// The Universe runs N rank-threads (the "MPI processes", jobs on the
// process's thread pool, util/thread_pool.hpp) and owns the shared
// infrastructure: mailboxes, communicator table, hook registry, the optional
// trace sink and the run's context (util/run_context.hpp: explorer, injector,
// homp sinks, team size, abort signal), which run() binds on every rank
// thread.  Process is one rank's context; its pointer is carried in a
// thread_local so OpenMP-style worker threads spawned by homp inherit the
// rank of their parent (homp calls Universe::set_current on each worker and
// binds the same run context).  Nothing here is process-global, so any
// number of Universes can run at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "src/explore/hooks.hpp"
#include "src/faults/injector.hpp"
#include "src/simmpi/abort.hpp"
#include "src/simmpi/comm.hpp"
#include "src/simmpi/hooks.hpp"
#include "src/simmpi/mailbox.hpp"
#include "src/simmpi/request.hpp"
#include "src/simmpi/types.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/run_context.hpp"

namespace home::simmpi {

struct UniverseConfig {
  int nranks = 2;
  /// Highest thread level the "library build" grants (init_thread caps here).
  ThreadLevel max_thread_level = ThreadLevel::kMultiple;
  /// Synchronous sends: sender blocks until a receive consumes the message.
  bool rendezvous_sends = false;
  /// Blocking-call timeout standing in for deadlock detection (0 = forever).
  int block_timeout_ms = 10000;
  /// Optional instrumentation sinks (normally installed by a home::Session).
  /// With a log, every message also logs its kMsgSend/kMsgRecv edge.
  trace::TraceLog* log = nullptr;
  trace::ThreadRegistry* registry = nullptr;
};

struct RunResult {
  std::vector<int> failed_ranks;
  std::vector<std::string> errors;
  bool ok() const { return failed_ranks.empty(); }
};

class Universe;

/// One MPI "process" (a rank). All MPI operations are methods here.
class Process {
 public:
  int rank() const { return rank_; }
  int size() const;
  Universe& universe() { return *uni_; }

  // --- lifecycle -----------------------------------------------------------
  /// MPI_Init: defaults to MPI_THREAD_SINGLE, like the paper's Figure 1 bug.
  void init(const CallOpts& opts = {});
  /// MPI_Init_thread: returns the provided level (requested capped by config).
  ThreadLevel init_thread(ThreadLevel requested, const CallOpts& opts = {});
  void finalize(const CallOpts& opts = {});
  bool initialized() const { return initialized_.load(); }
  bool finalized() const { return finalized_.load(); }
  ThreadLevel provided_level() const { return provided_; }
  /// MPI_Is_thread_main for the calling thread.
  bool is_thread_main() const;

  // --- point to point ------------------------------------------------------
  Err send(const void* buf, int count, Datatype dt, int dest, int tag, Comm comm,
           const CallOpts& opts = {});
  Err recv(void* buf, int count, Datatype dt, int src, int tag, Comm comm,
           Status* status = nullptr, const CallOpts& opts = {});
  Request isend(const void* buf, int count, Datatype dt, int dest, int tag,
                Comm comm, const CallOpts& opts = {});
  Request irecv(void* buf, int count, Datatype dt, int src, int tag, Comm comm,
                const CallOpts& opts = {});
  Err wait(Request& request, Status* status = nullptr, const CallOpts& opts = {});
  bool test(Request& request, Status* status = nullptr, const CallOpts& opts = {});
  void probe(int src, int tag, Comm comm, Status* status, const CallOpts& opts = {});
  bool iprobe(int src, int tag, Comm comm, Status* status, const CallOpts& opts = {});
  Err sendrecv(const void* sendbuf, int sendcount, Datatype sdt, int dest, int sendtag,
               void* recvbuf, int recvcount, Datatype rdt, int src, int recvtag,
               Comm comm, Status* status = nullptr, const CallOpts& opts = {});
  /// MPI_Ssend: synchronous mode — completes only once a matching receive
  /// consumed the message, regardless of UniverseConfig::rendezvous_sends.
  Err ssend(const void* buf, int count, Datatype dt, int dest, int tag, Comm comm,
            const CallOpts& opts = {});

  // --- multi-request completion ---------------------------------------------
  /// MPI_Waitall. Statuses (if non-null) must have requests.size() slots.
  Err waitall(std::vector<Request>& requests, Status* statuses = nullptr,
              const CallOpts& opts = {});
  /// MPI_Waitany: blocks until one request completes; returns its index.
  int waitany(std::vector<Request>& requests, Status* status = nullptr,
              const CallOpts& opts = {});
  /// MPI_Testall: true iff every request is complete.
  bool testall(std::vector<Request>& requests, const CallOpts& opts = {});

  // --- persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start) ------
  Request send_init(const void* buf, int count, Datatype dt, int dest, int tag,
                    Comm comm, const CallOpts& opts = {});
  Request recv_init(void* buf, int count, Datatype dt, int src, int tag,
                    Comm comm, const CallOpts& opts = {});
  /// MPI_Start: (re)activate a persistent request created by *_init.
  void start(Request& request, const CallOpts& opts = {});

  // --- collectives ---------------------------------------------------------
  void barrier(Comm comm, const CallOpts& opts = {});
  void bcast(void* buf, int count, Datatype dt, int root, Comm comm,
             const CallOpts& opts = {});
  void reduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
              ReduceOp op, int root, Comm comm, const CallOpts& opts = {});
  void allreduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
                 ReduceOp op, Comm comm, const CallOpts& opts = {});
  void gather(const void* sendbuf, int sendcount, Datatype dt, void* recvbuf,
              int root, Comm comm, const CallOpts& opts = {});
  void allgather(const void* sendbuf, int sendcount, Datatype dt, void* recvbuf,
                 Comm comm, const CallOpts& opts = {});
  void scatter(const void* sendbuf, int sendcount, Datatype dt, void* recvbuf,
               int root, Comm comm, const CallOpts& opts = {});
  void alltoall(const void* sendbuf, int sendcount, Datatype dt, void* recvbuf,
                Comm comm, const CallOpts& opts = {});
  /// MPI_Gatherv: variable-size gather; recvcounts/displs (in elements) are
  /// significant at the root only.
  void gatherv(const void* sendbuf, int sendcount, Datatype dt, void* recvbuf,
               const int* recvcounts, const int* displs, int root, Comm comm,
               const CallOpts& opts = {});
  /// MPI_Scatterv: variable-size scatter; sendcounts/displs (in elements) are
  /// significant at the root only. recvcount is each receiver's capacity.
  void scatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                Datatype dt, void* recvbuf, int recvcount, int root, Comm comm,
                const CallOpts& opts = {});
  /// MPI_Scan: inclusive prefix reduction over comm ranks.
  void scan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
            ReduceOp op, Comm comm, const CallOpts& opts = {});
  /// MPI_Reduce_scatter_block: reduce then scatter equal blocks.
  void reduce_scatter_block(const void* sendbuf, void* recvbuf, int recvcount,
                            Datatype dt, ReduceOp op, Comm comm,
                            const CallOpts& opts = {});

  // --- communicator management (collective over the parent comm) -----------
  Comm comm_dup(Comm comm, const CallOpts& opts = {});
  Comm comm_split(Comm comm, int color, int key, const CallOpts& opts = {});
  int comm_rank(Comm comm) const;
  int comm_size(Comm comm) const;

  /// The lock object behind homp's `critical(name)` on this rank, built by
  /// `make` on first use (simmpi does not know homp's lock type).  OpenMP
  /// scopes a named critical section to one process, so each Process keeps
  /// its own: two ranks, or two concurrent runs, never exclude each other.
  std::shared_ptr<void> critical_lock(
      const std::string& name,
      const std::function<std::shared_ptr<void>()>& make);

 private:
  friend class Universe;
  Process(Universe* uni, int rank) : uni_(uni), rank_(rank) {}

  /// Build a CallDesc and run `body` between hook begin/end notifications.
  template <typename Body>
  auto hooked(CallDesc desc, Body&& body);

  CallDesc make_desc(trace::MpiCallType type, int peer, int tag, CommId comm,
                     std::uint64_t request, const CallOpts& opts);

  /// Resolve comm handle + translate my world rank into comm terms.
  CommImpl& resolve(Comm comm, int* my_comm_rank) const;

  Universe* uni_;
  int rank_;
  ThreadLevel provided_ = ThreadLevel::kSingle;
  std::atomic<bool> initialized_{false};
  std::atomic<bool> finalized_{false};
  trace::Tid main_tid_ = trace::kNoTid;
  std::mutex criticals_mu_;
  std::map<std::string, std::shared_ptr<void>> criticals_;
};

class Universe {
 public:
  explicit Universe(UniverseConfig cfg);
  ~Universe();
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  /// Launch cfg.nranks rank-threads running rank_main and join them.
  /// Exceptions escaping a rank (including TimeoutError) are collected.
  /// Single-shot: a Universe models one MPI job; a second run() throws.
  RunResult run(const std::function<void(Process&)>& rank_main);

  const UniverseConfig& config() const { return cfg_; }
  int nranks() const { return cfg_.nranks; }

  Mailbox& mailbox(int world_rank) { return *mailboxes_.at(static_cast<std::size_t>(world_rank)); }
  CommTable& comms() { return comms_; }
  HookRegistry& hooks() { return hooks_; }
  trace::TraceLog* log() { return cfg_.log; }
  trace::ThreadRegistry* registry() { return cfg_.registry; }

  /// This run's context, bound by run() on every rank thread.  A session's
  /// attach() fills in its explorer, injector and homp sinks; set fields
  /// before run().  The bound abort signal is always this universe's own.
  util::RunContext& run_context() { return ctx_; }

  /// Tear this run down: every blocked MPI call of this universe throws
  /// AbortError within kAbortPollMs; other universes are unaffected.
  /// Thread-safe; the first reason wins.
  void request_abort(const std::string& reason) { abort_.raise(reason); }
  bool abort_requested() const { return abort_.raised(); }

  /// Request and message ids count from 1 in every universe, so a run's ids
  /// do not depend on the runs before or beside it.  Thread-safe.
  std::uint64_t next_request_id() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t next_message_id() {
    return next_message_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's rank context (nullptr outside a run).
  static Process* current();
  /// Install the rank context on the calling thread (used by homp workers).
  static void set_current(Process* process);

 private:
  UniverseConfig cfg_;
  bool ran_ = false;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Process>> processes_;
  CommTable comms_;
  HookRegistry hooks_;
  util::RunContext ctx_;
  AbortSignal abort_;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> next_message_id_{1};
};

/// Exploration hook kind for an MPI routine: blocking/matching calls get
/// their own kinds so strategies can target them (DESIGN.md §11 inventory).
inline explore::HookKind explore_kind_for(const trace::MpiRoutine& routine) {
  if (routine.completes_request()) return explore::HookKind::kWaitTest;
  if (routine.probes()) return explore::HookKind::kProbe;
  if (routine.collective()) return explore::HookKind::kCollectiveArrive;
  return explore::HookKind::kMpiCall;
}

template <typename Body>
auto Process::hooked(CallDesc desc, Body&& body) {
  // Yield hook before anything happens (including the wrapper logging), so
  // an injected delay shifts the whole call — this is the per-MPI-call
  // choice point of the schedule explorer.  One load + branch when off.
  const trace::MpiRoutine& routine = trace::routine_of(desc.type);
  const char* site = desc.callsite != nullptr ? desc.callsite : routine.name;
  explore::yield_point(explore_kind_for(routine), desc.rank, site);
  // Fault hook at the same choice point: the run's Injector may stall this
  // rank or throw RankCrashError (collected by Universe::run into
  // RunResult::failed_ranks).  One load + branch when off.
  faults::mpi_call_point(desc.rank, site);
  uni_->hooks().begin(desc);
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    uni_->hooks().end(desc);
  } else {
    auto result = body();
    uni_->hooks().end(desc);
    return result;
  }
}

}  // namespace home::simmpi
