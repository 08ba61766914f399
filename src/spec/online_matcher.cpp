#include "src/spec/online_matcher.hpp"

#include <algorithm>

#include "src/spec/rules.hpp"

namespace home::spec {

using trace::Event;
using trace::MpiCallType;

void OnlineMatcher::check_single(RankState& rs, int rank) {
  if (rs.single_reported || !rs.saw_init || !rs.parallel_region) return;
  if (rs.provided != simmpi::ThreadLevel::kSingle) return;
  rs.single_reported = true;
  emit(rules::single_with_parallel_region(rank, rs.used_init_thread));
}

void OnlineMatcher::check_funneled(
    RankState& rs, const std::shared_ptr<const trace::Event>& call) {
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

void OnlineMatcher::on_region_begin(const Event& e) {
  if (e.rank < 0 || e.aux <= 1) return;
  RankState& rs = ranks_[e.rank];
  rs.parallel_region = true;
  check_single(rs, e.rank);
}

void OnlineMatcher::on_call(const std::shared_ptr<const trace::Event>& call,
                            const detect::StampView& stamp) {
  const Event& e = *call;
  if (!e.mpi) return;
  RankState& rs = ranks_[e.rank];
  const MpiCallType type = e.mpi->type;

  if (type == MpiCallType::kInit || type == MpiCallType::kInitThread) {
    rs.saw_init = true;
    if (type == MpiCallType::kInitThread) rs.used_init_thread = true;
    rs.provided = static_cast<simmpi::ThreadLevel>(e.mpi->provided);
    if (rs.provided == simmpi::ThreadLevel::kFunneled) {
      for (const auto& buffered : rs.pre_init_off_main) {
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
    return;  // init calls are not "call events" for V1/FUNNELED or V2.
  }

  check_funneled(rs, call);

  if (type == MpiCallType::kFinalize) {
    if (!e.mpi->on_main_thread) emit(rules::finalize_off_main(e, strings_));
    // Every retained earlier call of another thread that is not ordered
    // before this finalize completes a V2 premise.  Same-thread retained
    // calls precede the finalize in program order — no violation.
    for (const LiveCall& c : rs.live_calls) {
      if (c.ev->tid == e.tid) continue;
      if (!c.stamp.leq_later(stamp)) {
        emit(rules::finalize_unordered(e, *c.ev, strings_));
      }
    }
    rs.finalizes.push_back(LiveCall{call, detect::Stamp::epoch(stamp)});
    return;
  }

  // A non-finalize call after a finalize of its rank always violates V2:
  // same thread is program-order-after; another thread's call cannot be
  // ordered before an already-stamped finalize.
  for (const LiveCall& f : rs.finalizes) {
    if (e.tid == f.ev->tid) {
      emit(rules::call_after_finalize(*f.ev, e, strings_));
    } else {
      emit(rules::finalize_unordered(*f.ev, e, strings_));
    }
  }
  rs.live_calls.push_back(LiveCall{call, detect::Stamp::epoch(stamp)});
}

void OnlineMatcher::on_concurrent_pair(trace::ObjId var,
                                       const detect::OnlineAccess& first,
                                       const detect::OnlineAccess& second) {
  if (!is_monitored_var(var)) return;
  const int rank = monitored_var_rank(var);
  const MonitoredVar kind = monitored_var_kind(var);
  RankState& rs = ranks_[rank];

  // V1/SERIALIZED: any concurrent monitored pair of the rank.
  if (!rs.serialized_reported) {
    if (rs.saw_init && rs.provided == simmpi::ThreadLevel::kSerialized) {
      rs.serialized_reported = true;
      emit(rules::serialized_concurrent(rank, kind, first.tid, second.tid));
    } else if (!rs.saw_init && !rs.have_first_pair) {
      rs.have_first_pair = true;
      rs.first_pair_kind = kind;
      rs.first_pair_tid1 = first.tid;
      rs.first_pair_tid2 = second.tid;
    }
  }

  // srctmp carries V3/V5; requesttmp V4; collectivetmp V6 — same kind
  // filter as the post-mortem matcher.
  if (kind != MonitoredVar::kSrcTmp && kind != MonitoredVar::kRequestTmp &&
      kind != MonitoredVar::kCollectiveTmp) {
    return;
  }
  ++stats_.concurrent_pairs;
  const auto& c1 = first.call;
  const auto& c2 = second.call;
  if (!c1 || !c2 || !c1->mpi || !c2->mpi || c1->tid == c2->tid) return;
  ++stats_.call_pairs;
  scratch_.clear();
  rules::match_call_pair(kind, *c1, *c2, strings_, &scratch_);
  for (Violation& v : scratch_) {
    ++stats_.violations;
    emit(std::move(v));
  }
}

void OnlineMatcher::retire(const detect::VectorClock& watermark) {
  for (auto& [rank, rs] : ranks_) {
    (void)rank;
    auto& calls = rs.live_calls;
    calls.erase(std::remove_if(calls.begin(), calls.end(),
                               [&watermark](const LiveCall& c) {
                                 return c.stamp.leq(watermark);
                               }),
                calls.end());
  }
}

std::size_t OnlineMatcher::resident_calls() const {
  std::size_t n = 0;
  for (const auto& [rank, rs] : ranks_) {
    (void)rank;
    n += rs.live_calls.size() + rs.finalizes.size() +
         rs.pre_init_off_main.size();
  }
  return n;
}

}  // namespace home::spec
