#include "tests/oracle/fixtures.hpp"

#include <algorithm>
#include <memory>

#include "src/detect/incremental.hpp"
#include "src/homp/runtime.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/util/rng.hpp"

namespace home::oracle {

using trace::Event;
using trace::EventKind;

std::vector<Event> random_trace(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const int threads = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  const int vars = 3 + static_cast<int>(rng.next_below(6));     // 3..8
  const int locks = 1 + static_cast<int>(rng.next_below(3));    // 1..3
  const int steps = 200 + static_cast<int>(rng.next_below(600));

  std::vector<std::vector<trace::ObjId>> held(
      static_cast<std::size_t>(threads));
  std::vector<Event> events;
  trace::Seq seq = 1;
  trace::ObjId next_msg = 7000;
  std::vector<trace::ObjId> in_flight;  // sent but not yet received.

  auto emit = [&](trace::Tid tid, EventKind kind, trace::ObjId obj,
                  std::uint64_t aux = 0) {
    Event e;
    e.seq = seq++;
    e.tid = tid;
    e.kind = kind;
    e.obj = obj;
    e.aux = aux;
    e.locks_held = held[static_cast<std::size_t>(tid)];
    std::sort(e.locks_held.begin(), e.locks_held.end());
    events.push_back(std::move(e));
  };

  for (int step = 0; step < steps; ++step) {
    const auto tid = static_cast<trace::Tid>(
        rng.next_below(static_cast<std::uint64_t>(threads)));
    auto& mine = held[static_cast<std::size_t>(tid)];
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {
      // Access a random variable.
      const trace::ObjId var =
          100 + rng.next_below(static_cast<std::uint64_t>(vars));
      emit(tid,
           rng.next_bool(0.6) ? EventKind::kMemWrite : EventKind::kMemRead,
           var);
    } else if (roll < 70) {
      // Acquire a lock not already held.
      const trace::ObjId lock =
          500 + rng.next_below(static_cast<std::uint64_t>(locks));
      if (std::find(mine.begin(), mine.end(), lock) == mine.end()) {
        emit(tid, EventKind::kLockAcquire, lock);
        mine.push_back(lock);
      }
    } else if (roll < 85) {
      // Release a random held lock.
      if (!mine.empty()) {
        const std::size_t pick = rng.next_below(mine.size());
        const trace::ObjId lock = mine[pick];
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(pick));
        emit(tid, EventKind::kLockRelease, lock);
      }
    } else if (roll < 92) {
      // Message edge: send now, matching recv from another thread later.
      if (rng.next_bool(0.5) || in_flight.empty()) {
        const trace::ObjId msg = next_msg++;
        emit(tid, EventKind::kMsgSend, msg);
        in_flight.push_back(msg);
      } else {
        const std::size_t pick = rng.next_below(in_flight.size());
        const trace::ObjId msg = in_flight[pick];
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
        emit(tid, EventKind::kMsgRecv, msg);
      }
    } else if (roll < 97) {
      // Full barrier: every thread arrives.
      const trace::ObjId barrier = 9000 + static_cast<trace::ObjId>(step);
      for (trace::Tid t = 0; t < threads; ++t) {
        emit(t, EventKind::kBarrier, barrier,
             static_cast<std::uint64_t>(threads));
      }
    }
    // Remaining rolls: no event (schedule gap).
  }
  return events;
}

void TraceBuilder::call(const CallSpec& spec) {
  trace::MpiCallInfo info;
  info.type = spec.type;
  info.peer = spec.peer;
  info.tag = spec.tag;
  info.comm = spec.comm;
  info.request = spec.request;
  info.on_main_thread = spec.on_main;
  info.provided = spec.provided;
  if (spec.site) info.callsite = log_.strings().intern(spec.site);

  Event call;
  call.tid = spec.tid;
  call.rank = spec.rank;
  call.kind = EventKind::kMpiCall;
  call.locks_held = spec.locks;
  call.mpi = info;
  const trace::Seq seq = log_.emit(std::move(call));

  for (spec::MonitoredVar var : spec::monitored_vars_for(spec.type)) {
    Event write;
    write.tid = spec.tid;
    write.rank = spec.rank;
    write.kind = EventKind::kMemWrite;
    write.obj = spec::monitored_var_id(spec.rank, var);
    write.aux = seq;
    write.locks_held = spec.locks;
    log_.emit(std::move(write));
  }
}

void TraceBuilder::event(trace::Tid tid, EventKind kind, trace::ObjId obj,
                         std::uint64_t aux) {
  Event e;
  e.tid = tid;
  e.kind = kind;
  e.obj = obj;
  e.aux = aux;
  log_.emit(std::move(e));
}

void TraceBuilder::barrier(const std::vector<trace::Tid>& tids,
                           trace::ObjId id) {
  for (trace::Tid tid : tids) {
    event(tid, EventKind::kBarrier, id, tids.size());
  }
}

void TraceBuilder::region_begin(int rank, trace::Tid tid, int team) {
  Event e;
  e.tid = tid;
  e.rank = rank;
  e.kind = EventKind::kRegionBegin;
  e.obj = 1;
  e.aux = static_cast<std::uint64_t>(team);
  log_.emit(std::move(e));
}

void random_mpi_trace(std::uint64_t seed, TraceBuilder* tb) {
  using trace::MpiCallType;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  const int ranks = rng.next_int(1, 3);
  const int threads = rng.next_int(2, 4);
  const int steps = rng.next_int(30, 120);
  const bool labeled = rng.next_below(4) != 0;
  static const char* const kSites[] = {"s0", "s1", "s2", "s3", "s4"};
  static const MpiCallType kCalls[] = {
      MpiCallType::kSend,      MpiCallType::kRecv,  MpiCallType::kIrecv,
      MpiCallType::kProbe,     MpiCallType::kIprobe, MpiCallType::kWait,
      MpiCallType::kTest,      MpiCallType::kBarrier, MpiCallType::kBcast,
      MpiCallType::kAllreduce};

  struct RankPlan {
    int init_step = 0;
    bool init_thread = true;
    std::uint8_t level = 3;
    std::vector<int> finalize_steps;
  };
  std::vector<RankPlan> plans(static_cast<std::size_t>(ranks));
  for (RankPlan& plan : plans) {
    plan.init_step = rng.next_bool(0.5) ? 0 : rng.next_int(0, steps - 1);
    plan.init_thread = rng.next_bool(0.7);
    plan.level = static_cast<std::uint8_t>(rng.next_below(4));
    for (int f = rng.next_int(0, 2); f > 0; --f) {
      plan.finalize_steps.push_back(rng.next_int(0, steps));
    }
  }
  auto tid_of = [threads](int rank, int local) {
    return static_cast<trace::Tid>(rank * threads + local);
  };
  auto site = [&]() -> const char* {
    return labeled && rng.next_bool(0.9) ? kSites[rng.next_below(5)]
                                         : nullptr;
  };
  auto lifecycle = [&](int step) {
    for (int r = 0; r < ranks; ++r) {
      const RankPlan& plan = plans[static_cast<std::size_t>(r)];
      if (plan.init_step == step) {
        tb->call({.type = plan.init_thread ? MpiCallType::kInitThread
                                           : MpiCallType::kInit,
                  .rank = r, .tid = tid_of(r, 0), .on_main = true,
                  .provided = plan.level, .site = site()});
      }
      for (int at : plan.finalize_steps) {
        if (at != step) continue;
        const int local = rng.next_bool(0.6) ? 0 : rng.next_int(1, threads - 1);
        tb->call({.type = MpiCallType::kFinalize, .rank = r,
                  .tid = tid_of(r, local), .on_main = local == 0,
                  .provided = plan.level, .site = site()});
      }
    }
  };

  trace::ObjId next_id = 7000;
  std::vector<trace::ObjId> in_flight;  // sent but not yet received.
  for (int step = 0; step < steps; ++step) {
    lifecycle(step);
    const int rank = rng.next_int(0, ranks - 1);
    const int local = rng.next_int(0, threads - 1);
    const trace::Tid tid = tid_of(rank, local);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 50) {
      const trace::ObjId lock = 0x1000 + static_cast<trace::ObjId>(rank);
      const bool locked = rng.next_bool(0.25);
      if (locked) tb->event(tid, EventKind::kLockAcquire, lock);
      tb->call({.type = kCalls[rng.next_below(std::size(kCalls))],
                .rank = rank, .tid = tid, .peer = rng.next_int(-1, 1),
                .tag = rng.next_int(-1, 1),
                .comm = static_cast<std::uint64_t>(rng.next_int(1, 2)),
                .request = static_cast<std::uint64_t>(rng.next_int(0, 2)),
                .on_main = local == 0,
                .provided = plans[static_cast<std::size_t>(rank)].level,
                .locks = locked ? std::vector<trace::ObjId>{lock}
                                : std::vector<trace::ObjId>{},
                .site = site()});
      if (locked) tb->event(tid, EventKind::kLockRelease, lock);
    } else if (roll < 60) {
      tb->region_begin(rank, tid_of(rank, 0), rng.next_int(1, threads));
    } else if (roll < 72) {
      std::vector<trace::Tid> team;
      for (int t = 0; t < threads; ++t) team.push_back(tid_of(rank, t));
      tb->barrier(team, next_id++);
    } else if (roll < 88) {
      // Message edge: a send now, its receive on some thread later.
      if (in_flight.empty() || rng.next_bool(0.5)) {
        tb->event(tid, EventKind::kMsgSend, next_id);
        in_flight.push_back(next_id++);
      } else {
        const std::size_t pick = rng.next_below(in_flight.size());
        tb->event(tid, EventKind::kMsgRecv, in_flight[pick]);
        in_flight.erase(in_flight.begin() +
                        static_cast<std::ptrdiff_t>(pick));
      }
    }
    // Remaining rolls: no event (schedule gap).
  }
  lifecycle(steps);
}

int max_tid(const std::vector<Event>& events) {
  int m = -1;
  for (const Event& e : events) m = std::max(m, static_cast<int>(e.tid));
  return m;
}

Mode oracle_mode(detect::DetectorMode mode) {
  switch (mode) {
    case detect::DetectorMode::kHybrid: return Mode::kHybrid;
    case detect::DetectorMode::kLocksetOnly: return Mode::kLocksetOnly;
    case detect::DetectorMode::kHbOnly: return Mode::kHbOnly;
  }
  return Mode::kHybrid;
}

std::map<trace::ObjId, bool> engine_verdicts(
    const detect::ConcurrencyReport& report) {
  std::map<trace::ObjId, bool> out;
  for (const auto& [var, verdict] : report.verdicts()) {
    out[var] = verdict.concurrent;
  }
  return out;
}

PairsByVar report_pairs(const detect::ConcurrencyReport& report) {
  PairsByVar out;
  for (const auto& [var, verdict] : report.verdicts()) {
    auto& pairs = out[var];
    for (const detect::ConcurrentPair& p : verdict.pairs) {
      pairs.emplace_back(report.hb().events()[p.first].seq,
                         report.hb().events()[p.second].seq);
    }
  }
  return out;
}

PairsByVar streamed_pairs(const std::vector<Event>& events,
                          const detect::RaceDetectorConfig& cfg,
                          std::size_t retire_every, std::size_t* epoch_hits) {
  detect::IncrementalHb hb(detect::happens_before_config(cfg.mode));
  for (int t = 0; t <= max_tid(events); ++t) {
    hb.declare_thread(static_cast<trace::Tid>(t));
  }
  detect::IncrementalFrontier frontier(cfg);

  PairsByVar out;
  std::vector<detect::IncrementalFrontier::PairHit> hits;
  std::size_t since_retire = 0;
  for (const Event& e : events) {
    const detect::StampView stamp = hb.advance(e);
    if (e.is_access()) {
      auto rec = std::make_shared<detect::OnlineAccess>();
      rec->seq = e.seq;
      rec->tid = e.tid;
      rec->write = e.is_write();
      rec->locks = e.locks_held;
      hits.clear();
      frontier.on_access(e.obj, std::move(rec), stamp, &hits);
      auto& pairs = out[e.obj];
      for (const auto& hit : hits) {
        pairs.emplace_back(hit.first->seq, hit.second->seq);
      }
    }
    if (retire_every != 0 && ++since_retire >= retire_every) {
      since_retire = 0;
      detect::VectorClock wm;
      if (hb.watermark(&wm)) {
        frontier.retire(wm);
        hb.retire(wm);
      }
    }
  }
  if (epoch_hits != nullptr) *epoch_hits = frontier.epoch_hits();
  return out;
}

std::set<std::string> key_set(const std::vector<spec::Violation>& violations) {
  std::set<std::string> keys;
  for (const spec::Violation& v : violations) {
    keys.insert(spec::violation_key(v));
  }
  return keys;
}

std::set<std::string> key_set(const Report& report) {
  return key_set(report.violations());
}

std::map<std::string, std::string> records_by_key(
    const std::vector<spec::Violation>& violations) {
  std::map<std::string, std::string> out;
  for (const spec::Violation& v : violations) {
    const std::string record =
        std::to_string(static_cast<int>(v.type)) + " rank=" +
        std::to_string(v.rank) + " tids=" + std::to_string(v.tid1) + "," +
        std::to_string(v.tid2) + " calls=" + std::to_string(v.call1) + "," +
        std::to_string(v.call2) + " sites=" + v.callsite1 + "," + v.callsite2 +
        " comm=" + std::to_string(v.comm) +
        " request=" + std::to_string(v.request) + " detail=" + v.detail;
    out.emplace(spec::violation_key(v), record);
  }
  return out;
}

std::set<std::string> streamed_keys(const std::vector<Event>& events,
                                    const trace::StringTable& strings,
                                    const detect::RaceDetectorConfig& cfg,
                                    std::size_t retire_every) {
  trace::ThreadRegistry registry;
  for (int t = 0; t <= max_tid(events); ++t) {
    registry.register_thread(trace::kNoTid, trace::kNoRank, false);
  }
  online::OnlineConfig ocfg;
  ocfg.detector = cfg;
  ocfg.retire_interval = retire_every;
  online::OnlineAnalyzer analyzer(ocfg, &strings, &registry);
  for (const Event& e : events) analyzer.on_event(e);
  analyzer.finish();
  return key_set(analyzer.violations());
}

OnlineRun run_online(const CheckConfig& cfg,
                     const std::function<void(simmpi::Process&)>& rank_main) {
  Session session(cfg.session);
  simmpi::UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  ucfg.max_thread_level = cfg.max_thread_level;
  ucfg.rendezvous_sends = cfg.rendezvous_sends;
  ucfg.block_timeout_ms = cfg.block_timeout_ms;
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(cfg.nthreads);

  OnlineRun out;
  out.run = universe.run(rank_main);
  session.detach(universe);
  out.report = session.analyze();
  out.stats = session.online_analyzer()->stats();

  const detect::ConcurrencyReport concurrency =
      detect::RaceDetector(make_detector_config(cfg.session))
          .analyze(session.log().sorted_events());
  spec::Matcher matcher(&session.log().strings());
  for (const spec::Violation& v : matcher.match(concurrency)) {
    out.post_mortem_keys.insert(spec::violation_key(v));
  }
  return out;
}

}  // namespace home::oracle
