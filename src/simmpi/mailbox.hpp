// Per-rank message matching engine: posted-receive queue plus
// unexpected-message queue, with MPI matching order semantics
// (first-posted receive wins; unexpected messages match in arrival order).
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "src/simmpi/request.hpp"
#include "src/simmpi/types.hpp"

namespace home::simmpi {

class Mailbox {
 public:
  /// World rank this mailbox belongs to (set by the Universe); identifies
  /// the mailbox's matching decisions in exploration schedules.
  void set_owner_rank(int rank) { owner_rank_ = rank; }

  /// An envelope arrives: match against posted receives in post order, else
  /// queue as unexpected. Completes the matched receive (copy + notify).
  /// Under exploration, when receives with *distinct* matching patterns are
  /// both eligible the explorer picks the winner (kRecvMatch); identically-
  /// patterned receives keep FIFO order (MPI non-overtaking).
  void deliver(Envelope msg);

  /// Post a receive: match against unexpected messages in arrival order,
  /// else queue. Completion is observed through the RequestState.
  /// Under exploration, a wildcard-source receive facing queued messages
  /// from multiple senders lets the explorer pick the sender
  /// (kWildcardPick); per-sender arrival order is preserved.
  void post_recv(const std::shared_ptr<RequestState>& recv);

  /// Non-blocking probe: is there an unexpected message matching
  /// (src, tag, comm)? Fills *status without consuming the message.
  bool iprobe(int src, int tag, CommId comm, Status* status);

  /// Blocking probe with timeout (0 = forever). Throws TimeoutError.
  void probe(int src, int tag, CommId comm, Status* status, int timeout_ms);

 private:
  static bool matches(const Envelope& msg, int src, int tag, CommId comm);
  /// Copy payload into the receive buffer and complete the request.
  static void complete_recv(RequestState& recv, Envelope& msg);

  int owner_rank_ = -1;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signalled on new unexpected messages.
  std::deque<Envelope> unexpected_;
  std::deque<std::shared_ptr<RequestState>> posted_;
};

}  // namespace home::simmpi
