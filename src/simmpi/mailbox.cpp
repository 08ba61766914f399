#include "src/simmpi/mailbox.hpp"

#include <chrono>
#include <cstring>
#include <vector>

#include "src/explore/hooks.hpp"
#include "src/simmpi/abort.hpp"

namespace home::simmpi {

bool Mailbox::matches(const Envelope& msg, int src, int tag, CommId comm) {
  if (msg.comm != comm) return false;
  if (src != kAnySource && msg.src != src) return false;
  if (tag != kAnyTag && msg.tag != tag) return false;
  return true;
}

void Mailbox::complete_recv(RequestState& recv, Envelope& msg) {
  const std::size_t elem = datatype_size(msg.dt);
  const std::size_t incoming = msg.payload.size();
  const std::size_t capacity = static_cast<std::size_t>(recv.count) * datatype_size(recv.dt);
  const std::size_t ncopy = incoming < capacity ? incoming : capacity;
  if (recv.buf && ncopy > 0) std::memcpy(recv.buf, msg.payload.data(), ncopy);

  Status status;
  status.source = msg.src;
  status.tag = msg.tag;
  status.count = elem ? static_cast<int>(ncopy / elem) : 0;
  status.msg_id = msg.msg_id;
  recv.complete(status, incoming > capacity ? Err::kTruncate : Err::kOk);

  if (msg.token) {
    {
      std::lock_guard<std::mutex> lock(msg.token->mu);
      msg.token->consumed = true;
    }
    msg.token->cv.notify_all();
  }
}

void Mailbox::deliver(Envelope msg) {
  std::unique_lock<std::mutex> lock(mu_);
  // Candidate receives: the first posted receive of each distinct
  // (match_src, match_tag) pattern that matches this envelope. Within one
  // pattern MPI mandates posted order, so later same-pattern receives are
  // never candidates; across patterns real MPI may complete either, which
  // is the nondeterminism the explorer steers.
  std::vector<std::deque<std::shared_ptr<RequestState>>::iterator> eligible;
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    RequestState& recv = **it;
    if (!matches(msg, recv.match_src, recv.match_tag, recv.match_comm)) {
      continue;
    }
    bool pattern_seen = false;
    for (const auto& prior : eligible) {
      if ((*prior)->match_src == recv.match_src &&
          (*prior)->match_tag == recv.match_tag) {
        pattern_seen = true;
        break;
      }
    }
    if (!pattern_seen) eligible.push_back(it);
    if (!explore::active()) break;  // default: first posted match wins.
  }
  if (!eligible.empty()) {
    const std::size_t choice = explore::pick_point(
        explore::HookKind::kRecvMatch, owner_rank_, "mailbox.match",
        eligible.size());
    auto matched = *eligible[choice];
    posted_.erase(eligible[choice]);
    lock.unlock();
    complete_recv(*matched, msg);
    return;
  }
  unexpected_.push_back(std::move(msg));
  cv_.notify_all();
}

void Mailbox::post_recv(const std::shared_ptr<RequestState>& recv) {
  std::unique_lock<std::mutex> lock(mu_);
  // Candidate messages: the oldest queued match from each distinct source.
  // Same-source messages must match in arrival order (non-overtaking), but
  // a wildcard-source receive may legally take whichever sender's message
  // "arrived first" — the pick the explorer controls.
  std::vector<std::deque<Envelope>::iterator> eligible;
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(*it, recv->match_src, recv->match_tag, recv->match_comm)) {
      continue;
    }
    bool source_seen = false;
    for (const auto& prior : eligible) {
      if (prior->src == it->src) {
        source_seen = true;
        break;
      }
    }
    if (!source_seen) eligible.push_back(it);
    if (recv->match_src != kAnySource || !explore::active()) break;
  }
  if (!eligible.empty()) {
    const std::size_t choice = explore::pick_point(
        explore::HookKind::kWildcardPick, owner_rank_,
        recv->site.empty() ? "mailbox.wildcard" : recv->site.c_str(),
        eligible.size());
    Envelope msg = std::move(*eligible[choice]);
    unexpected_.erase(eligible[choice]);
    lock.unlock();
    complete_recv(*recv, msg);
    return;
  }
  posted_.push_back(recv);
}

bool Mailbox::iprobe(int src, int tag, CommId comm, Status* status) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Envelope& msg : unexpected_) {
    if (matches(msg, src, tag, comm)) {
      if (status) {
        status->source = msg.src;
        status->tag = msg.tag;
        const std::size_t elem = datatype_size(msg.dt);
        status->count = elem ? static_cast<int>(msg.payload.size() / elem) : 0;
        status->msg_id = msg.msg_id;
      }
      return true;
    }
  }
  return false;
}

void Mailbox::probe(int src, int tag, CommId comm, Status* status, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto match_now = [&]() -> const Envelope* {
    for (const Envelope& msg : unexpected_) {
      if (matches(msg, src, tag, comm)) return &msg;
    }
    return nullptr;
  };
  const Envelope* found = nullptr;
  if (!abortable_wait(cv_, lock, timeout_ms,
                      [&] { return (found = match_now()) != nullptr; })) {
    throw TimeoutError("MPI_Probe timed out (possible deadlock)");
  }
  if (status && found) {
    status->source = found->src;
    status->tag = found->tag;
    const std::size_t elem = datatype_size(found->dt);
    status->count = elem ? static_cast<int>(found->payload.size() / elem) : 0;
    status->msg_id = found->msg_id;
  }
}

}  // namespace home::simmpi
