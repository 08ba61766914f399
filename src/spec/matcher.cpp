#include "src/spec/matcher.hpp"

#include <string>
#include <tuple>

#include "src/obs/span.hpp"
#include "src/spec/rules.hpp"

namespace home::spec {
namespace {

using detect::ConcurrencyReport;
using detect::HbIndex;
using trace::Event;
using trace::MpiCallType;

bool is_wildcard(int v) { return v < 0; }

/// The MPI call event a monitored-variable write is aux-linked to (null when
/// the write is unlinked).
const Event* linked_call(const HbIndex& hb, std::size_t access) {
  const std::size_t i = hb.index_of_seq(hb.events()[access].aux);
  return i == HbIndex::npos ? nullptr : &hb.events()[i];
}

/// Whether `v` replaces `kept`, an earlier record of the same key.  The
/// seq-order pass completes a V1/V2 premise at the later of its events, so a
/// finalize can fire against an earlier call before an earlier finalize
/// meets a later one; the report keeps the smallest (call1, call2) — the
/// earliest finalize or off-main call, then its earliest partner.  V3–V6
/// keep their first record: the pair pass emits them in verdict order.
bool replaces(const Violation& v, const Violation& kept) {
  const bool seq_pass = v.type == ViolationType::kInitialization ||
                        v.type == ViolationType::kFinalization;
  return seq_pass &&
         std::tie(v.call1, v.call2) < std::tie(kept.call1, kept.call2);
}

}  // namespace

bool args_overlap(int a, int b) { return a == b || is_wildcard(a) || is_wildcard(b); }

std::vector<Violation> Matcher::match(const ConcurrencyReport& report) const {
  obs::Span span("spec.match");
  const HbIndex& hb = report.hb();
  const std::vector<Event>& events = hb.events();

  std::vector<Violation> out;
  std::map<std::string, std::size_t> slot_of;  ///< key -> index into out.
  Matcher replay(strings_, [&out, &slot_of](Violation&& v) {
    const auto [it, fresh] = slot_of.try_emplace(violation_key(v), out.size());
    if (fresh) {
      out.push_back(std::move(v));
    } else if (replaces(v, out[it->second])) {
      out[it->second] = std::move(v);
    }
  });

  // Pass 1: V1 SINGLE/FUNNELED and V2 from the region and call events.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == trace::EventKind::kRegionBegin) {
      replay.on_region_begin(e);
    } else if (e.kind == trace::EventKind::kMpiCall) {
      replay.on_call(CallRef(CallRef(), &e), hb.stamp_get(i, e.tid),
                     [&hb, i](trace::Tid t) { return hb.stamp_get(i, t); });
    }
  }

  // Pass 2: V1/SERIALIZED and V3–V6 from the monitored verdict pairs.
  for (const auto& [var, verdict] : report.verdicts()) {
    if (!is_monitored_var(var)) continue;
    const bool calls = rules::carries_call_pairs(monitored_var_kind(var));
    for (const detect::ConcurrentPair& pair : verdict.pairs) {
      replay.on_concurrent_pair(
          var, pair.tid1, calls ? linked_call(hb, pair.first) : nullptr,
          pair.tid2, calls ? linked_call(hb, pair.second) : nullptr);
    }
  }

  stats_ = replay.stats_;
  stats_.violations = out.size();
  for (const auto& [key, slot] : slot_of) note_first_sighting(out[slot], key);
  return out;
}

void Matcher::check_single(RankState& rs, int rank) {
  if (rs.single_reported || !rs.saw_init || !rs.parallel_region) return;
  if (rs.provided != simmpi::ThreadLevel::kSingle) return;
  rs.single_reported = true;
  emit(rules::single_with_parallel_region(rank, rs.used_init_thread));
}

void Matcher::check_funneled(RankState& rs, const CallRef& call) {
  if (call->mpi->on_main_thread) return;
  if (!rs.saw_init) {
    // Provided level unknown yet; re-judged when init arrives.
    rs.pre_init_off_main.push_back(call);
    return;
  }
  if (rs.provided == simmpi::ThreadLevel::kFunneled) {
    emit(rules::funneled_off_main(*call, strings_));
  }
}

void Matcher::emit_unordered(const Event& fin, const Event& call) {
  emit(rules::finalize_unordered(fin, call, strings_));
}

void Matcher::on_region_begin(const Event& e) {
  if (e.rank < 0 || e.aux <= 1) return;
  RankState& rs = ranks_[e.rank];
  rs.parallel_region = true;
  check_single(rs, e.rank);
}

Matcher::RankState* Matcher::note_call(const CallRef& call,
                                       std::uint64_t epoch) {
  const Event& e = *call;
  if (!e.mpi) return nullptr;
  RankState& rs = ranks_[e.rank];
  const MpiCallType type = e.mpi->type;

  if (type == MpiCallType::kInit || type == MpiCallType::kInitThread) {
    rs.saw_init = true;
    if (type == MpiCallType::kInitThread) rs.used_init_thread = true;
    rs.provided = static_cast<simmpi::ThreadLevel>(e.mpi->provided);
    if (rs.provided == simmpi::ThreadLevel::kFunneled) {
      for (const CallRef& buffered : rs.pre_init_off_main) {
        emit(rules::funneled_off_main(*buffered, strings_));
      }
    }
    rs.pre_init_off_main.clear();
    if (!rs.serialized_reported && rs.have_first_pair &&
        rs.provided == simmpi::ThreadLevel::kSerialized) {
      rs.serialized_reported = true;
      emit(rules::serialized_concurrent(e.rank, rs.first_pair_kind,
                                        rs.first_pair_tid1,
                                        rs.first_pair_tid2));
    }
    check_single(rs, e.rank);
    return nullptr;  // init calls are not "call events" for V1/FUNNELED or V2.
  }

  check_funneled(rs, call);

  if (type == MpiCallType::kFinalize) {
    if (!e.mpi->on_main_thread) emit(rules::finalize_off_main(e, strings_));
    rs.finalizes.push_back(LiveCall{call, epoch});
    return &rs;
  }

  // A non-finalize call after a finalize of its rank always violates V2:
  // same thread is program-order-after; another thread's call cannot be
  // ordered before an already-stamped finalize.
  for (const LiveCall& f : rs.finalizes) {
    if (e.tid == f.call->tid) {
      emit(rules::call_after_finalize(*f.call, e, strings_));
    } else {
      emit(rules::finalize_unordered(*f.call, e, strings_));
    }
  }
  rs.live_calls.push_back(LiveCall{call, epoch});
  return nullptr;
}

void Matcher::on_concurrent_pair(trace::ObjId var, trace::Tid tid1,
                                 const Event* call1, trace::Tid tid2,
                                 const Event* call2) {
  if (!is_monitored_var(var)) return;
  const int rank = monitored_var_rank(var);
  const MonitoredVar kind = monitored_var_kind(var);
  RankState& rs = ranks_[rank];

  // V1/SERIALIZED: any concurrent monitored pair of the rank.
  if (!rs.serialized_reported) {
    if (rs.saw_init && rs.provided == simmpi::ThreadLevel::kSerialized) {
      rs.serialized_reported = true;
      emit(rules::serialized_concurrent(rank, kind, tid1, tid2));
    } else if (!rs.saw_init && !rs.have_first_pair) {
      rs.have_first_pair = true;
      rs.first_pair_kind = kind;
      rs.first_pair_tid1 = tid1;
      rs.first_pair_tid2 = tid2;
    }
  }

  if (!rules::carries_call_pairs(kind)) return;
  ++stats_.concurrent_pairs;
  if (!call1 || !call2 || !call1->mpi || !call2->mpi ||
      call1->tid == call2->tid) {
    return;
  }
  ++stats_.call_pairs;
  scratch_.clear();
  rules::match_call_pair(kind, *call1, *call2, strings_, &scratch_);
  for (Violation& v : scratch_) emit(std::move(v));
}

void Matcher::retire(const detect::VectorClock& watermark) {
  for (auto& [rank, rs] : ranks_) {
    (void)rank;
    std::erase_if(rs.live_calls, [&watermark](const LiveCall& c) {
      return c.epoch <= watermark.get(c.call->tid);
    });
  }
}

std::size_t Matcher::resident_calls() const {
  std::size_t n = 0;
  for (const auto& [rank, rs] : ranks_) {
    (void)rank;
    n += rs.live_calls.size() + rs.finalizes.size() +
         rs.pre_init_off_main.size();
  }
  return n;
}

}  // namespace home::spec
