#include "src/apps/app.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/homp/worksharing.hpp"
#include "src/util/rng.hpp"

namespace home::apps {
namespace {

using simmpi::Comm;
using simmpi::Datatype;
using simmpi::kCommWorld;
using simmpi::Process;
using simmpi::ReduceOp;
using simmpi::Status;

/// Master-funneled halo exchange: east edges travel around the rank ring.
void halo_exchange(Process& p, std::vector<Zone>& zones) {
  const int right = (p.rank() + 1) % p.size();
  const int left = (p.rank() - 1 + p.size()) % p.size();
  for (std::size_t z = 0; z < zones.size(); ++z) {
    const int tag = 10 + static_cast<int>(z);
    const std::vector<double> east = zones[z].east_edge();
    std::vector<double> halo(static_cast<std::size_t>(zones[z].interior()), 0.0);
    p.sendrecv(east.data(), zones[z].interior(), Datatype::kDouble, right, tag,
               halo.data(), zones[z].interior(), Datatype::kDouble, left, tag,
               kCommWorld, nullptr, {"app.halo"});
    zones[z].set_west_halo(halo);
  }
}

/// Legal per-thread neighbour exchange: each thread uses its own tag, the
/// fix the paper recommends for Figure 2's bug.
void thread_exchange(Process& p) {
  const int right = (p.rank() + 1) % p.size();
  const int left = (p.rank() - 1 + p.size()) % p.size();
  const int tag = 50 + homp::thread_num();
  const double mine = static_cast<double>(p.rank() * 100 + homp::thread_num());
  double theirs = 0.0;
  p.send(&mine, 1, Datatype::kDouble, right, tag, kCommWorld,
         {"app.exchange.send"});
  p.recv(&theirs, 1, Datatype::kDouble, left, tag, kCommWorld, nullptr,
         {"app.exchange.recv"});
}

}  // namespace

double run_app_rank(const AppConfig& cfg, Process& p) {
  if (cfg.inject.v1_initialization) {
    p.init({"app.init"});  // plain MPI_Init: thread level stays SINGLE.
  } else {
    p.init_thread(simmpi::ThreadLevel::kMultiple, {"app.init"});
  }

  InjectionComms comms = setup_injection_comms(p, cfg.inject);

  std::vector<Zone> zones;
  zones.reserve(static_cast<std::size_t>(cfg.zones_per_rank));
  for (int z = 0; z < cfg.zones_per_rank; ++z) {
    zones.emplace_back(cfg.grid, 1.0 + 0.1 * p.rank() + 0.01 * z);
  }

  const int inject_iter = cfg.iterations / 2;
  double last_total = 0.0;

  for (int iter = 0; iter < cfg.iterations; ++iter) {
    // Serial communication phase (NPB-MZ's exch_qbc shape): halo exchange
    // between the parallel compute phases. These calls are provably free of
    // *thread*-safety violations, which is exactly the call volume HOME's
    // static filtering removes from instrumentation (the E8 ablation).
    halo_exchange(p, zones);

    homp::parallel(cfg.nthreads, [&] {
      if (cfg.jitter_ms_max > 0) {
        util::Rng rng(cfg.jitter_seed * 1000003ULL +
                      static_cast<std::uint64_t>(p.rank()) * 131 +
                      static_cast<std::uint64_t>(homp::thread_num()) * 17 +
                      static_cast<std::uint64_t>(iter));
        std::this_thread::sleep_for(std::chrono::milliseconds(
            rng.next_int(0, cfg.jitter_ms_max)));
      }
      // Compute: zones distributed across the team.
      homp::for_range(0, cfg.zones_per_rank, [&](int z) {
        sweep_zone(cfg.kind, zones[static_cast<std::size_t>(z)]);
      });

      // Hybrid communication: per-thread tagged neighbour exchange (legal
      // under MPI_THREAD_MULTIPLE — each thread has its own tag).
      thread_exchange(p);
      homp::barrier();

      if (iter == inject_iter && cfg.inject.any()) {
        run_injections(p, cfg.inject, comms);
      }

      // V2: on the last iteration thread 1 finalizes off the main thread.
      if (iter == cfg.iterations - 1 && cfg.inject.v2_finalization &&
          homp::thread_num() == 1) {
        p.finalize({"inject.v2.finalize"});
      }
    });

    // Serial residual reduction.
    double residual = 0.0;
    for (const Zone& zone : zones) residual += zone.residual();
    double total = 0.0;
    p.allreduce(&residual, &total, 1, Datatype::kDouble, ReduceOp::kSum,
                kCommWorld, {"app.residual"});
    last_total = total;
  }

  if (!p.finalized()) p.finalize({"app.finalize"});
  return last_total;
}

AppConfig paper_config(AppKind kind, int nranks, int nthreads) {
  AppConfig cfg = clean_config(kind, nranks, nthreads);
  cfg.inject.v1_initialization = true;
  cfg.inject.v2_finalization = true;
  cfg.inject.v3_concurrent_recv = true;
  cfg.inject.v4_concurrent_request = true;
  cfg.inject.v5_probe = true;
  cfg.inject.v6_collective = true;
  switch (kind) {
    case AppKind::kLU:
      cfg.inject.v5_blocking_probe = true;
      cfg.inject.v5_style = InjectionStyle::kLatent;
      break;
    case AppKind::kBT:
      cfg.inject.benign_critical_bait = true;
      break;
    case AppKind::kSP:
      cfg.inject.v3_style = InjectionStyle::kLatent;
      break;
  }
  return cfg;
}

AppConfig clean_config(AppKind kind, int nranks, int nthreads) {
  AppConfig cfg;
  cfg.kind = kind;
  cfg.nranks = nranks;
  cfg.nthreads = nthreads;
  switch (kind) {
    case AppKind::kLU:
      cfg.zones_per_rank = 2;
      cfg.grid = 20;
      cfg.iterations = 4;
      break;
    case AppKind::kBT:
      cfg.zones_per_rank = 2;
      cfg.grid = 18;
      cfg.iterations = 4;
      break;
    case AppKind::kSP:
      cfg.zones_per_rank = 3;
      cfg.grid = 16;
      cfg.iterations = 4;
      break;
  }
  return cfg;
}

}  // namespace home::apps
