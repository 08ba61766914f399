#include "tests/oracle/reference_matcher.hpp"

#include <map>
#include <set>
#include <string>

#include "src/simmpi/types.hpp"
#include "src/spec/monitored.hpp"
#include "src/spec/rules.hpp"

namespace home::oracle {
namespace {

using detect::HbIndex;
using spec::MonitoredVar;
using spec::Violation;
using trace::Event;
using trace::MpiCallType;

/// Everything the scan aggregates per rank.
struct RankFacts {
  bool saw_init = false;
  bool used_init_thread = false;
  simmpi::ThreadLevel provided = simmpi::ThreadLevel::kSingle;
  std::vector<std::size_t> call_events;      ///< indices of kMpiCall events.
  std::vector<std::size_t> finalize_events;  ///< subset of call_events.
  bool parallel_region = false;              ///< saw a team of size > 1.
};

}  // namespace

std::vector<Violation> reference_match(const detect::ConcurrencyReport& report,
                                       const trace::StringTable* strings) {
  const HbIndex& hb = report.hb();
  const auto& events = hb.events();

  std::map<int, RankFacts> ranks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == trace::EventKind::kRegionBegin && e.rank >= 0 && e.aux > 1) {
      ranks[e.rank].parallel_region = true;
    }
    if (e.kind != trace::EventKind::kMpiCall || !e.mpi) continue;
    RankFacts& facts = ranks[e.rank];
    switch (e.mpi->type) {
      case MpiCallType::kInit:
        facts.saw_init = true;
        facts.provided = static_cast<simmpi::ThreadLevel>(e.mpi->provided);
        break;
      case MpiCallType::kInitThread:
        facts.saw_init = true;
        facts.used_init_thread = true;
        facts.provided = static_cast<simmpi::ThreadLevel>(e.mpi->provided);
        break;
      case MpiCallType::kFinalize:
        facts.finalize_events.push_back(i);
        facts.call_events.push_back(i);
        break;
      default:
        facts.call_events.push_back(i);
        break;
    }
  }

  std::vector<Violation> out;
  std::set<std::string> seen;
  auto add = [&](Violation v) {
    if (seen.insert(spec::violation_key(v)).second) out.push_back(std::move(v));
  };

  // V3 ConcurrentRecv, V4 ConcurrentRequest, V5 Probe, V6 CollectiveCall,
  // driven by the monitored-variable verdicts.
  std::vector<Violation> scratch;
  for (const auto& [var, verdict] : report.verdicts()) {
    if (!spec::is_monitored_var(var) || !verdict.concurrent) continue;
    const MonitoredVar kind = spec::monitored_var_kind(var);
    if (kind != MonitoredVar::kSrcTmp && kind != MonitoredVar::kRequestTmp &&
        kind != MonitoredVar::kCollectiveTmp) {
      continue;
    }
    for (const detect::ConcurrentPair& pair : verdict.pairs) {
      // aux of a monitored-variable write is the seq of its kMpiCall event.
      const std::size_t i1 = hb.index_of_seq(events[pair.first].aux);
      const std::size_t i2 = hb.index_of_seq(events[pair.second].aux);
      if (i1 == HbIndex::npos || i2 == HbIndex::npos) continue;
      const Event& c1 = events[i1];
      const Event& c2 = events[i2];
      if (!c1.mpi || !c2.mpi || c1.tid == c2.tid) continue;
      scratch.clear();
      spec::rules::match_call_pair(kind, c1, c2, strings, &scratch);
      for (Violation& v : scratch) add(std::move(v));
    }
  }

  // V1 Initialization, per rank.
  for (auto& [rank, facts] : ranks) {
    if (!facts.saw_init) continue;
    switch (facts.provided) {
      case simmpi::ThreadLevel::kSingle:
        if (facts.parallel_region) {
          add(spec::rules::single_with_parallel_region(rank,
                                                       facts.used_init_thread));
        }
        break;
      case simmpi::ThreadLevel::kFunneled:
        for (std::size_t i : facts.call_events) {
          if (!events[i].mpi->on_main_thread) {
            add(spec::rules::funneled_off_main(events[i], strings));
          }
        }
        break;
      case simmpi::ThreadLevel::kSerialized:
        // Any concurrent monitored variable of this rank means two MPI calls
        // can overlap; the first one in MonitoredVar order is reported.
        for (int k = 0; k < spec::kMonitoredVarCount; ++k) {
          const auto kind = static_cast<MonitoredVar>(k);
          const detect::VariableVerdict* verdict =
              report.verdict(spec::monitored_var_id(rank, kind));
          if (verdict && verdict->concurrent && !verdict->pairs.empty()) {
            const detect::ConcurrentPair& pair = verdict->pairs.front();
            add(spec::rules::serialized_concurrent(rank, kind, pair.tid1,
                                                   pair.tid2));
            break;
          }
        }
        break;
      case simmpi::ThreadLevel::kMultiple:
        break;
    }
  }

  // V2 Finalization, per rank: every finalize against every other call.
  for (auto& [rank, facts] : ranks) {
    (void)rank;
    for (std::size_t fi : facts.finalize_events) {
      const Event& fin = events[fi];
      if (!fin.mpi->on_main_thread) {
        add(spec::rules::finalize_off_main(fin, strings));
      }
      for (std::size_t ci : facts.call_events) {
        const Event& call = events[ci];
        if (call.mpi->type == MpiCallType::kFinalize) continue;
        if (call.tid == fin.tid) {
          // Program order: a call after finalize on the same thread.
          if (call.seq > fin.seq) {
            add(spec::rules::call_after_finalize(fin, call, strings));
          }
          continue;
        }
        // Cross-thread: a call concurrent with or after the finalize.
        if (hb.concurrent(fi, ci) || hb.ordered(fi, ci)) {
          add(spec::rules::finalize_unordered(fin, call, strings));
        }
      }
    }
  }
  return out;
}

}  // namespace home::oracle
