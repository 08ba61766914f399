#include "perfbench/src/synth.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/simmpi/types.hpp"
#include "src/spec/monitored.hpp"
#include "src/spec/violations.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using home::trace::Event;
using home::trace::EventKind;
using home::trace::MpiCallType;
using home::trace::ObjId;
using home::trace::Tid;

// Disjoint id ranges per object kind (all below spec::kMonitoredBase).
constexpr ObjId kVarBase = 0x10000000ULL;
constexpr ObjId kLockBase = 0x20000000ULL;
constexpr ObjId kBarrierBase = 0x30000000ULL;
constexpr ObjId kMsgBase = 0x40000000ULL;
constexpr std::uint64_t kRequestBase = 0x50000000ULL;
/// aux placeholder on a monitored write: "link to my unit's MPI call".
constexpr std::uint64_t kLinkToCall = ~0ULL;

// Trace shape.  The planted calls need up to ten compute phases (two per
// kind) off the FUNNELED rank: keep (kRanks - 1) * kPhases * 3 / 4 >= 10.
constexpr int kRanks = 4;
constexpr int kThreadsPerRank = 64;
constexpr int kPhases = 8;
constexpr int kAccessesPerThread = 4;  ///< per thread per compute phase.
constexpr int kBarrierVars = 16;       ///< per rank.
constexpr int kLockVars = 8;           ///< per rank, one lock each.
constexpr int kRacyVars = 4;           ///< per rank.

/// Events one thread emits back to back (an MPI wrapper body, a critical
/// section) — the interleaver never splits a unit.
using Unit = std::vector<Event>;

enum class PlantKind { kRecvRecv, kWaitWait, kProbeRecv, kCollColl, kDecoy };

struct Plant {
  PlantKind kind;
  int rank;
  int phase;
  int a;  ///< local worker ids (1..threads_per_rank-1).
  int b;
  std::uint32_t cs_a;
  std::uint32_t cs_b;
  int tag;
  std::uint64_t comm;
  std::uint64_t request;
};

class Builder {
 public:
  explicit Builder(std::uint64_t seed)
      : rng_(seed), levels_(static_cast<std::size_t>(kRanks),
                            home::simmpi::ThreadLevel::kMultiple) {
    strings_.push_back("");
  }

  SynthTrace build();

 private:
  Tid tid_of(int rank, int local) const {
    return static_cast<Tid>(rank * kThreadsPerRank + local);
  }

  std::uint32_t intern(const std::string& s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.push_back(s);
    ids_.emplace(s, id);
    return id;
  }

  Unit mpi_unit(int rank, int local, MpiCallType type, int peer, int tag,
                std::uint64_t comm, std::uint64_t request,
                std::uint32_t callsite, std::vector<ObjId> locks = {}) const {
    Event call;
    call.tid = tid_of(rank, local);
    call.rank = rank;
    call.kind = EventKind::kMpiCall;
    call.locks_held = locks;
    home::trace::MpiCallInfo info;
    info.type = type;
    info.peer = peer;
    info.tag = tag;
    info.comm = comm;
    info.request = request;
    info.on_main_thread = local == 0;
    info.provided =
        static_cast<std::uint8_t>(levels_[static_cast<std::size_t>(rank)]);
    info.callsite = callsite;
    call.mpi = info;
    Unit unit{call};
    for (home::spec::MonitoredVar var : home::spec::monitored_vars_for(type)) {
      Event w;
      w.tid = call.tid;
      w.rank = rank;
      w.kind = EventKind::kMemWrite;
      w.obj = home::spec::monitored_var_id(rank, var);
      w.aux = kLinkToCall;
      w.locks_held = locks;
      unit.push_back(std::move(w));
    }
    return unit;
  }

  Event simple(int rank, int local, EventKind kind, ObjId obj,
               std::uint64_t aux = 0) const {
    Event e;
    e.tid = tid_of(rank, local);
    e.rank = rank;
    e.kind = kind;
    e.obj = obj;
    e.aux = aux;
    return e;
  }

  void emit(Unit unit) {
    std::uint64_t call_seq = 0;
    for (Event& e : unit) {
      e.seq = static_cast<home::trace::Seq>(events_.size() + 1);
      if (e.kind == EventKind::kMpiCall) call_seq = e.seq;
      if (e.aux == kLinkToCall) e.aux = call_seq;
      events_.push_back(std::move(e));
    }
  }

  /// Emit per-thread unit queues in a seeded random interleaving.
  void interleave(std::vector<std::vector<Unit>>& queues) {
    std::vector<std::size_t> next(queues.size(), 0);
    std::vector<std::size_t> live;
    for (std::size_t t = 0; t < queues.size(); ++t) {
      if (!queues[t].empty()) live.push_back(t);
    }
    while (!live.empty()) {
      const std::size_t k = rng_.next_below(live.size());
      const std::size_t t = live[k];
      emit(std::move(queues[t][next[t]++]));
      if (next[t] == queues[t].size()) {
        live[k] = live.back();
        live.pop_back();
      }
    }
  }

  void plan();
  void startup();
  void comm_phase(int phase);
  void compute_phase(int phase);
  void barrier(int phase);
  void finalize();
  void expect(home::spec::ViolationType type, int rank, std::uint32_t cs1,
              std::uint32_t cs2, std::uint64_t comm);

  home::util::Rng rng_;
  std::vector<home::simmpi::ThreadLevel> levels_;
  std::vector<std::string> strings_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Event> events_;
  std::vector<Plant> plants_;
  std::set<std::string> expected_;
  int funneled_rank_ = 0;
  int funneled_phase_ = 0;
  int funneled_worker_ = 1;
  int finalize_rank_ = 0;
  int finalize_worker_ = 1;
  ObjId next_msg_ = kMsgBase;
};

bool is_comm_phase(int phase) { return phase % 4 == 0; }

void Builder::expect(home::spec::ViolationType type, int rank,
                     std::uint32_t cs1, std::uint32_t cs2, std::uint64_t comm) {
  home::spec::Violation v;
  v.type = type;
  v.rank = rank;
  v.callsite1 = strings_[cs1];
  v.callsite2 = cs2 == 0 ? "" : strings_[cs2];
  v.comm = comm;
  expected_.insert(home::spec::violation_key(v));
}

void Builder::plan() {
  const int workers = kThreadsPerRank - 1;
  funneled_rank_ = static_cast<int>(rng_.next_below(kRanks));
  finalize_rank_ = (funneled_rank_ + 1 +
                    static_cast<int>(rng_.next_below(kRanks - 1))) % kRanks;
  levels_[static_cast<std::size_t>(funneled_rank_)] =
      home::simmpi::ThreadLevel::kFunneled;

  // Free (rank, compute phase) slots: at most one plant per rank and phase,
  // so the only concurrent MPI calls of a phase are the plant's own pair.
  std::vector<std::pair<int, int>> free_slots;
  for (int r = 0; r < kRanks; ++r) {
    for (int p = 0; p < kPhases; ++p) {
      if (!is_comm_phase(p)) free_slots.emplace_back(r, p);
    }
  }
  auto take_slot = [&](bool funneled) {
    std::vector<std::size_t> fit;
    for (std::size_t i = 0; i < free_slots.size(); ++i) {
      if ((free_slots[i].first == funneled_rank_) == funneled) fit.push_back(i);
    }
    const std::size_t i = fit[rng_.next_below(fit.size())];
    const std::pair<int, int> slot = free_slots[i];
    free_slots.erase(free_slots.begin() + static_cast<std::ptrdiff_t>(i));
    return slot;
  };
  auto pick_workers = [&](int* a, int* b) {
    *a = 1 + static_cast<int>(rng_.next_below(workers));
    do {
      *b = 1 + static_cast<int>(rng_.next_below(workers));
    } while (*b == *a);
  };

  funneled_phase_ = take_slot(true).second;
  funneled_worker_ = 1 + static_cast<int>(rng_.next_below(workers));
  finalize_worker_ = 1 + static_cast<int>(rng_.next_below(workers));
  // V1: an off-main send under FUNNELED; V2: MPI_Finalize off main.
  expect(home::spec::ViolationType::kInitialization, funneled_rank_,
         intern("syn.v1.offmain_send"), 0, 0);
  expect(home::spec::ViolationType::kFinalization, finalize_rank_,
         intern("syn.v2.worker_finalize"), 0, 0);

  // V3..V6 plus clean decoys, only on MULTIPLE ranks (any off-main call on
  // the FUNNELED rank would be a further V1).
  const PlantKind kinds[] = {PlantKind::kRecvRecv, PlantKind::kWaitWait,
                             PlantKind::kProbeRecv, PlantKind::kCollColl,
                             PlantKind::kDecoy};
  int serial = 0;
  for (PlantKind kind : kinds) {
    const int count = 1 + static_cast<int>(rng_.next_below(2));
    for (int k = 0; k < count; ++k, ++serial) {
      Plant plant{};
      plant.kind = kind;
      std::tie(plant.rank, plant.phase) = take_slot(false);
      pick_workers(&plant.a, &plant.b);
      plant.tag = 500 + serial;
      plant.comm = 1 + rng_.next_below(3);
      plant.request = kRequestBase + static_cast<std::uint64_t>(serial);
      const std::string n = std::to_string(serial);
      switch (kind) {
        case PlantKind::kRecvRecv:
          plant.cs_a = plant.cs_b = intern("syn.v3.recv." + n);
          expect(home::spec::ViolationType::kConcurrentRecv, plant.rank,
                 plant.cs_a, plant.cs_b, plant.comm);
          break;
        case PlantKind::kWaitWait:
          plant.cs_a = plant.cs_b = intern("syn.v4.wait." + n);
          expect(home::spec::ViolationType::kConcurrentRequest, plant.rank,
                 plant.cs_a, plant.cs_b, 0);
          break;
        case PlantKind::kProbeRecv:
          plant.cs_a = intern("syn.v5.probe." + n);
          plant.cs_b = intern("syn.v5.recv." + n);
          expect(home::spec::ViolationType::kProbe, plant.rank, plant.cs_a,
                 plant.cs_b, plant.comm);
          break;
        case PlantKind::kCollColl:
          plant.cs_a = plant.cs_b = intern("syn.v6.allreduce." + n);
          expect(home::spec::ViolationType::kCollectiveCall, plant.rank,
                 plant.cs_a, plant.cs_b, plant.comm);
          break;
        case PlantKind::kDecoy:
          plant.cs_a = plant.cs_b = intern("syn.critical.recv." + n);
          break;
      }
      plants_.push_back(plant);
    }
  }
}

void Builder::startup() {
  const std::uint32_t cs = intern("syn.init_thread");
  for (int r = 0; r < kRanks; ++r) {
    emit(mpi_unit(r, 0, MpiCallType::kInitThread, -1, -1, 0, 0, cs));
    for (int l = 1; l < kThreadsPerRank; ++l) {
      emit({simple(r, 0, EventKind::kThreadFork,
                   static_cast<ObjId>(tid_of(r, l)))});
    }
  }
}

void Builder::comm_phase(int phase) {
  const std::uint32_t cs_send = intern("syn.halo.send");
  const std::uint32_t cs_recv = intern("syn.halo.recv");
  const std::uint32_t cs_reduce = intern("syn.residual.allreduce");
  const int ranks = kRanks;
  const int tag = 100 + (phase / 4) % 8;
  const ObjId first_msg = next_msg_;
  for (int r = 0; r < ranks; ++r) {
    Unit send = mpi_unit(r, 0, MpiCallType::kSend, (r + 1) % ranks, tag, 1, 0,
                         cs_send);
    send.push_back(simple(r, 0, EventKind::kMsgSend, next_msg_++));
    emit(std::move(send));
  }
  for (int r = 0; r < ranks; ++r) {
    const int src = (r + ranks - 1) % ranks;
    Unit recv = mpi_unit(r, 0, MpiCallType::kRecv, src, tag, 1, 0, cs_recv);
    recv.push_back(simple(r, 0, EventKind::kMsgRecv,
                          first_msg + static_cast<ObjId>(src)));
    emit(std::move(recv));
  }
  for (int r = 0; r < ranks; ++r) {
    emit(mpi_unit(r, 0, MpiCallType::kAllreduce, -1, -1, 1, 0, cs_reduce));
  }
}

void Builder::compute_phase(int phase) {
  const int T = kThreadsPerRank;
  std::vector<std::vector<Unit>> queues(
      static_cast<std::size_t>(kRanks * T));
  for (int r = 0; r < kRanks; ++r) {
    const ObjId vars = kVarBase + static_cast<ObjId>(r) * 0x10000;
    const ObjId locks = kLockBase + static_cast<ObjId>(r) * 0x10000;
    for (int l = 0; l < T; ++l) {
      std::vector<Unit>& q = queues[static_cast<std::size_t>(tid_of(r, l))];
      // The barrier-ordered variable this thread owns in this phase.
      const int owned = ((l - phase) % T + T) % T;
      if (owned < kBarrierVars) {
        q.push_back({simple(r, l, EventKind::kMemWrite,
                            vars + static_cast<ObjId>(owned))});
      }
      for (int k = static_cast<int>(q.size()); k < kAccessesPerThread;
           ++k) {
        const EventKind access = rng_.next_bool(0.5) ? EventKind::kMemWrite
                                                     : EventKind::kMemRead;
        if (rng_.next_bool(0.75)) {
          const ObjId lv = rng_.next_below(kLockVars);
          const ObjId lock = locks + lv;
          Event acq = simple(r, l, EventKind::kLockAcquire, lock);
          Event use = simple(r, l, access, vars + 0x100 + lv);
          use.locks_held = {lock};
          Event rel = simple(r, l, EventKind::kLockRelease, lock);
          rel.locks_held = {lock};
          q.push_back({acq, use, rel});
        } else {
          q.push_back({simple(r, l, access,
                              vars + 0x200 + rng_.next_below(kRacyVars))});
        }
      }
    }
  }

  auto insert_at_random = [&](int rank, int local, Unit unit) {
    std::vector<Unit>& q = queues[static_cast<std::size_t>(tid_of(rank, local))];
    const std::size_t at = rng_.next_below(q.size() + 1);
    q.insert(q.begin() + static_cast<std::ptrdiff_t>(at), std::move(unit));
  };
  for (const Plant& p : plants_) {
    if (p.phase != phase) continue;
    const int peer = (p.rank + 1) % kRanks;
    switch (p.kind) {
      case PlantKind::kRecvRecv:
        insert_at_random(p.rank, p.a, mpi_unit(p.rank, p.a, MpiCallType::kRecv,
                                               peer, p.tag, p.comm, 0, p.cs_a));
        insert_at_random(p.rank, p.b, mpi_unit(p.rank, p.b, MpiCallType::kRecv,
                                               peer, p.tag, p.comm, 0, p.cs_b));
        break;
      case PlantKind::kWaitWait:
        insert_at_random(p.rank, p.a, mpi_unit(p.rank, p.a, MpiCallType::kWait,
                                               -1, -1, 0, p.request, p.cs_a));
        insert_at_random(p.rank, p.b, mpi_unit(p.rank, p.b, MpiCallType::kWait,
                                               -1, -1, 0, p.request, p.cs_b));
        break;
      case PlantKind::kProbeRecv:
        insert_at_random(p.rank, p.a,
                         mpi_unit(p.rank, p.a, MpiCallType::kProbe, peer, p.tag,
                                  p.comm, 0, p.cs_a));
        insert_at_random(p.rank, p.b, mpi_unit(p.rank, p.b, MpiCallType::kRecv,
                                               peer, p.tag, p.comm, 0, p.cs_b));
        break;
      case PlantKind::kCollColl:
        insert_at_random(p.rank, p.a,
                         mpi_unit(p.rank, p.a, MpiCallType::kAllreduce, -1, -1,
                                  p.comm, 0, p.cs_a));
        insert_at_random(p.rank, p.b,
                         mpi_unit(p.rank, p.b, MpiCallType::kAllreduce, -1, -1,
                                  p.comm, 0, p.cs_b));
        break;
      case PlantKind::kDecoy: {
        // Same receive pattern as V3, but inside one critical section.
        const ObjId crit = kLockBase + static_cast<ObjId>(p.rank) * 0x10000 +
                           0xffff;
        for (int local : {p.a, p.b}) {
          Unit unit{simple(p.rank, local, EventKind::kLockAcquire, crit)};
          for (Event& e : mpi_unit(p.rank, local, MpiCallType::kRecv, peer,
                                   p.tag, p.comm, 0, p.cs_a, {crit})) {
            unit.push_back(std::move(e));
          }
          Event rel = simple(p.rank, local, EventKind::kLockRelease, crit);
          rel.locks_held = {crit};
          unit.push_back(std::move(rel));
          insert_at_random(p.rank, local, std::move(unit));
        }
        break;
      }
    }
  }
  if (phase == funneled_phase_) {
    insert_at_random(funneled_rank_, funneled_worker_,
                     mpi_unit(funneled_rank_, funneled_worker_,
                              MpiCallType::kSend, (funneled_rank_ + 1) %
                                                      kRanks,
                              7, 1, 0, intern("syn.v1.offmain_send")));
  }
  interleave(queues);
}

void Builder::barrier(int phase) {
  std::vector<std::vector<Unit>> queues(
      static_cast<std::size_t>(kRanks * kThreadsPerRank));
  for (int r = 0; r < kRanks; ++r) {
    const ObjId id = kBarrierBase + static_cast<ObjId>(r) * 0x10000 +
                     static_cast<ObjId>(phase);
    for (int l = 0; l < kThreadsPerRank; ++l) {
      queues[static_cast<std::size_t>(tid_of(r, l))].push_back(
          {simple(r, l, EventKind::kBarrier, id,
                  static_cast<std::uint64_t>(kThreadsPerRank))});
    }
  }
  interleave(queues);
}

void Builder::finalize() {
  const std::uint32_t cs_main = intern("syn.finalize");
  for (int r = 0; r < kRanks; ++r) {
    if (r == finalize_rank_) {
      emit(mpi_unit(r, finalize_worker_, MpiCallType::kFinalize, -1, -1, 0, 0,
                    intern("syn.v2.worker_finalize")));
    } else {
      emit(mpi_unit(r, 0, MpiCallType::kFinalize, -1, -1, 0, 0, cs_main));
    }
  }
}

SynthTrace Builder::build() {
  plan();
  startup();
  for (int p = 0; p < kPhases; ++p) {
    if (is_comm_phase(p)) {
      comm_phase(p);
    } else {
      compute_phase(p);
    }
    barrier(p);
  }
  finalize();

  SynthTrace out;
  out.trace.events = std::move(events_);
  out.trace.strings = std::move(strings_);
  out.planted_keys = std::move(expected_);
  out.ranks = kRanks;
  out.threads_per_rank = kThreadsPerRank;
  return out;
}

}  // namespace

SynthTrace make_synth_trace(std::uint64_t seed) { return Builder(seed).build(); }

void register_synth_threads(const SynthTrace& synth,
                            home::trace::ThreadRegistry* registry) {
  for (int r = 0; r < synth.ranks; ++r) {
    const Tid main = static_cast<Tid>(r * synth.threads_per_rank);
    for (int l = 0; l < synth.threads_per_rank; ++l) {
      registry->register_thread(l == 0 ? home::trace::kNoTid : main, r, l == 0);
    }
  }
}

}  // namespace perfbench
