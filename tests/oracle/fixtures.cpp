#include "tests/oracle/fixtures.hpp"

#include <algorithm>
#include <memory>

#include "src/detect/incremental.hpp"
#include "src/homp/runtime.hpp"
#include "src/spec/matcher.hpp"
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

std::set<std::string> key_set(const Report& report) {
  std::set<std::string> keys;
  for (const spec::Violation& v : report.violations()) {
    keys.insert(spec::violation_key(v));
  }
  return keys;
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
