#include "src/simmpi/universe.hpp"

#include <exception>
#include <mutex>

#include "src/obs/span.hpp"
#include "src/util/log.hpp"
#include "src/util/thread_pool.hpp"

namespace home::simmpi {
namespace {

thread_local Process* tls_current_process = nullptr;

}  // namespace

Universe::Universe(UniverseConfig cfg) : cfg_(cfg) {
  if (cfg_.nranks < 1) throw UsageError("Universe needs at least 1 rank");
  mailboxes_.reserve(static_cast<std::size_t>(cfg_.nranks));
  std::vector<int> world;
  for (int r = 0; r < cfg_.nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->set_owner_rank(r);
    world.push_back(r);
  }
  comms_.create_with_id(kCommWorld.id, world);
  processes_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    processes_.push_back(std::unique_ptr<Process>(new Process(this, r)));
  }
}

Universe::~Universe() = default;

Process* Universe::current() { return tls_current_process; }

void Universe::set_current(Process* process) { tls_current_process = process; }

RunResult Universe::run(const std::function<void(Process&)>& rank_main) {
  if (ran_) {
    throw UsageError("Universe::run is single-shot (one MPI job per Universe); "
                     "construct a fresh Universe for another run");
  }
  ran_ = true;
  util::RunContext ctx = ctx_;
  ctx.abort = &abort_;
  RunResult result;
  std::mutex result_mu;

  trace::ThreadRegistry* registry = cfg_.registry;

  // The launcher thread is the common happens-before ancestor of all ranks.
  trace::Tid launcher_tid = trace::kNoTid;
  if (registry) {
    launcher_tid = registry->current_tid();
    if (launcher_tid == trace::kNoTid) {
      launcher_tid = registry->register_current_thread(trace::kNoTid,
                                                       trace::kNoRank, false);
    }
  }

  std::vector<util::PooledThread> threads;
  threads.reserve(processes_.size());
  for (auto& process_ptr : processes_) {
    Process* process = process_ptr.get();
    threads.emplace_back([&, process] {
      util::ScopedRunContext bind(ctx);
      set_current(process);
      if (registry) {
        // Rank main threads are mutually concurrent by construction, so no
        // fork edge is recorded between the launcher and the ranks; homp adds
        // fork/join edges for the worker threads inside each rank.
        process->main_tid_ = registry->register_current_thread(
            launcher_tid, process->rank(), /*is_rank_main=*/true);
      }
      try {
        obs::Span span("rank.main");
        rank_main(*process);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(result_mu);
        result.failed_ranks.push_back(process->rank());
        result.errors.push_back("rank " + std::to_string(process->rank()) +
                                ": " + e.what());
      }
      set_current(nullptr);
    });
  }
  for (auto& t : threads) t.join();
  return result;
}

// --- Process lifecycle -------------------------------------------------------

int Process::size() const { return uni_->nranks(); }

std::shared_ptr<void> Process::critical_lock(
    const std::string& name,
    const std::function<std::shared_ptr<void>()>& make) {
  std::lock_guard<std::mutex> lock(criticals_mu_);
  std::shared_ptr<void>& slot = criticals_[name];
  if (!slot) slot = make();
  return slot;
}

CallDesc Process::make_desc(trace::MpiCallType type, int peer, int tag,
                            CommId comm, std::uint64_t request,
                            const CallOpts& opts) {
  CallDesc desc;
  desc.type = type;
  desc.rank = rank_;
  desc.peer = peer;
  desc.tag = tag;
  desc.comm = comm;
  desc.request = request;
  desc.callsite = opts.callsite;
  desc.provided = provided_;
  desc.on_main_thread = is_thread_main();
  desc.process = this;
  return desc;
}

bool Process::is_thread_main() const {
  trace::ThreadRegistry* registry = uni_->registry();
  if (!registry) {
    // Without a registry we cannot distinguish threads; treat the rank-thread
    // assumption optimistically (base runs are not checked anyway).
    return true;
  }
  return registry->current_tid() == main_tid_;
}

void Process::init(const CallOpts& opts) {
  // Plain MPI_Init grants only MPI_THREAD_SINGLE — the root cause of the
  // paper's Figure 1 case study.
  hooked(make_desc(trace::logged_as("MPI_Init"), -1, kAnyTag, 0, 0, opts), [&] {
    provided_ = ThreadLevel::kSingle;
    initialized_.store(true);
  });
}

ThreadLevel Process::init_thread(ThreadLevel requested, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Init_thread"), -1, kAnyTag, 0, 0, opts), [&] {
        const auto req = static_cast<int>(requested);
        const auto cap = static_cast<int>(uni_->config().max_thread_level);
        provided_ = req <= cap ? requested : uni_->config().max_thread_level;
        initialized_.store(true);
        return provided_;
      });
}

void Process::finalize(const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Finalize"), -1, kAnyTag, 0, 0, opts),
         [&] { finalized_.store(true); });
}

CommImpl& Process::resolve(Comm comm, int* my_comm_rank) const {
  CommImpl& impl = uni_->comms().get_or_throw(comm.id);
  if (my_comm_rank) {
    *my_comm_rank = impl.comm_rank_of(rank_);
    if (*my_comm_rank < 0) {
      throw UsageError("rank " + std::to_string(rank_) +
                       " is not a member of comm " + std::to_string(comm.id));
    }
  }
  return impl;
}

int Process::comm_rank(Comm comm) const {
  int r = -1;
  resolve(comm, &r);
  return r;
}

int Process::comm_size(Comm comm) const {
  int r = -1;
  return resolve(comm, &r).size();
}

}  // namespace home::simmpi
