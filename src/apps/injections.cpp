#include "src/apps/injections.hpp"

#include <chrono>
#include <thread>

#include "src/homp/runtime.hpp"
#include "src/homp/sync.hpp"
#include "src/homp/worksharing.hpp"

namespace home::apps {
namespace {

using simmpi::Comm;
using simmpi::Datatype;
using simmpi::kCommWorld;
using simmpi::Process;
using simmpi::ReduceOp;
using simmpi::Status;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// rank r pairs with r^1; returns -1 when the partner does not exist.
int partner_of(const Process& p) {
  const int partner = p.rank() ^ 1;
  return partner < p.size() ? partner : -1;
}

// V1: thread 1 issues a collective off the main thread. Combined with the
// app-level plain MPI_Init (thread level SINGLE), every tool has manifest
// evidence of the initialization violation.
void inject_v1(Process& p) {
  if (homp::thread_num() != 1) return;
  double mine = 1.0;
  double out = 0.0;
  p.allreduce(&mine, &out, 1, Datatype::kDouble, ReduceOp::kSum, kCommWorld,
              {"inject.v1.allreduce"});
}

// V3: the even rank's two threads receive from the partner with one shared
// tag. Manifest style: the receivers block while the sender is delayed, so
// the two receives overlap. Latent style: the messages are pre-delivered and
// the second receive starts milliseconds after the first finished.
void inject_v3(Process& p, InjectionStyle style) {
  const int partner = partner_of(p);
  if (partner < 0) return;
  const int tag = 903;
  const int tnum = homp::thread_num();
  if (p.rank() % 2 == 1) {
    if (tnum > 1) return;
    // Manifest: both messages are delayed so both receives block and overlap.
    if (style == InjectionStyle::kManifest) sleep_ms(15);
    const int value = tnum;
    p.send(&value, 1, Datatype::kInt, partner, tag, kCommWorld,
           {"inject.v3.send"});
    return;
  }
  if (tnum == 0) {
    int v = 0;
    p.recv(&v, 1, Datatype::kInt, partner, tag, kCommWorld, nullptr,
           {"inject.v3.recv.a"});
  } else if (tnum == 1) {
    if (style == InjectionStyle::kLatent) sleep_ms(25);
    int v = 0;
    p.recv(&v, 1, Datatype::kInt, partner, tag, kCommWorld, nullptr,
           {"inject.v3.recv.b"});
  }
}

// V4: the even rank posts one receive request and both threads complete it
// with MPI_Wait; the partner's send is delayed so both waits overlap.
void inject_v4(Process& p, InjectionComms& comms) {
  const int partner = partner_of(p);
  if (partner < 0) return;
  const int tag = 904;
  const int tnum = homp::thread_num();
  if (p.rank() % 2 == 1) {
    if (tnum != 0) return;
    sleep_ms(15);  // both waits must be in flight when the message lands.
    const int value = 42;
    p.send(&value, 1, Datatype::kInt, partner, tag, kCommWorld,
           {"inject.v4.send"});
    return;
  }
  // Every team thread participates (single has an implied team barrier, so
  // skipping threads here would desynchronize the team's barrier episodes).
  // One shared request per region instance, stashed in the rank's injection
  // state and published to the team through a single construct.
  homp::single([&] {
    comms.v4_request = p.irecv(&comms.v4_payload, 1, Datatype::kInt, partner,
                               tag, kCommWorld, {"inject.v4.irecv"});
  });
  p.wait(comms.v4_request, nullptr, {"inject.v4.wait"});
}

// V5: a probe races a receive on the same (source, tag, comm).
//  - blocking_probe + latent  (LU): pre-delivered messages, temporally
//    separated probe and recv — Marmot (manifest-only) and ITC (probe-blind)
//    both miss it; HOME reports it.
//  - iprobe + manifest (BT/SP): thread 1 blocks in recv while thread 0 polls
//    Iprobe until the delayed sender delivers — every tool sees the overlap.
void inject_v5(Process& p, InjectionStyle style, bool blocking_probe) {
  const int partner = partner_of(p);
  if (partner < 0) return;
  const int tag = 905;
  const int tnum = homp::thread_num();
  if (p.rank() % 2 == 1) {
    if (tnum != 0) return;
    if (style == InjectionStyle::kManifest) sleep_ms(15);
    for (int i = 0; i < 2; ++i) {
      const int value = i;
      p.send(&value, 1, Datatype::kInt, partner, tag, kCommWorld,
             {"inject.v5.send"});
    }
    return;
  }
  if (tnum == 0) {
    if (style == InjectionStyle::kLatent) sleep_ms(2);
    Status st;
    if (blocking_probe) {
      p.probe(partner, tag, kCommWorld, &st, {"inject.v5.probe"});
    } else {
      while (!p.iprobe(partner, tag, kCommWorld, &st, {"inject.v5.iprobe"})) {
        sleep_ms(1);
      }
    }
    // Delay before consuming so the *probe vs. recv* pair is the only one
    // that can overlap in real time; the consuming receive must not overlap
    // thread 1's receive, or the manifest-only baseline would additionally
    // observe a ConcurrentRecv here and blur the per-class accounting.
    sleep_ms(3);
    int v = 0;
    p.recv(&v, 1, Datatype::kInt, partner, tag, kCommWorld, nullptr,
           {"inject.v5.recv.consume"});
  } else if (tnum == 1) {
    if (style == InjectionStyle::kLatent) sleep_ms(25);
    int v = 0;
    p.recv(&v, 1, Datatype::kInt, partner, tag, kCommWorld, nullptr,
           {"inject.v5.recv"});
  }
}

// V6: both threads of every rank enter a collective on the same shared
// communicator concurrently.
void inject_v6(Process& p, const InjectionComms& comms) {
  if (homp::thread_num() > 1) return;
  // Odd ranks hold back so the collective round can only be completed by an
  // even rank's *pair* of threads — guaranteeing that, on every even rank,
  // the second thread's call begins while the first is still blocked (the
  // overlap the manifest-only baseline needs to observe).
  if (p.rank() % 2 == 1) sleep_ms(15);
  p.barrier(comms.vcomm, {"inject.v6.barrier"});
}

// The benign bait: same shape as V6 but serialized by omp critical —
// perfectly legal under MPI_THREAD_MULTIPLE (calls never overlap).
void run_bait(Process& p, const InjectionComms& comms) {
  if (homp::thread_num() > 1) return;
  homp::critical("mpi_bait", [&] {
    p.barrier(comms.baitcomm, {"bait.v6.barrier"});
  });
}

}  // namespace

InjectionComms setup_injection_comms(Process& p, const InjectionMix& mix) {
  InjectionComms comms;
  if (mix.v6_collective) comms.vcomm = p.comm_dup(kCommWorld);
  if (mix.benign_critical_bait) comms.baitcomm = p.comm_dup(kCommWorld);
  return comms;
}

namespace {

// Global re-alignment between injection phases.  homp::barrier only
// synchronizes one rank's team; the sender/receiver timing scripts above
// assume the *ranks* start each phase together, so the master also runs a
// world barrier.
void sync_all(Process& p) {
  homp::barrier();
  homp::master([&] { p.barrier(kCommWorld, {"inject.sync"}); });
  homp::barrier();
}

}  // namespace

void run_injections(Process& p, const InjectionMix& mix,
                    InjectionComms& comms) {
  if (mix.v1_initialization) {
    inject_v1(p);
    sync_all(p);
  }
  if (mix.v3_concurrent_recv) {
    inject_v3(p, mix.v3_style);
    sync_all(p);
  }
  if (mix.v4_concurrent_request) {
    inject_v4(p, comms);
    sync_all(p);
  }
  if (mix.v5_probe) {
    inject_v5(p, mix.v5_style, mix.v5_blocking_probe);
    sync_all(p);
  }
  if (mix.v6_collective) {
    inject_v6(p, comms);
    sync_all(p);
  }
  if (mix.benign_critical_bait) {
    run_bait(p, comms);
    sync_all(p);
  }
  // V2 runs at the end of the app's last iteration (see app.cpp): thread 1
  // finalizes off the main thread.
}

}  // namespace home::apps
