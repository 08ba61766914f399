// Communicators and the generic collective rendezvous primitive.
//
// Every collective (barrier, bcast, reduce, ...) is derived from one
// allgather-style exchange: each member deposits a byte payload, the round
// completes when all members have arrived, and every member gets a snapshot
// of all contributions.  Rounds are heap-allocated and reference-counted so
// back-to-back collectives on the same communicator never interfere.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/simmpi/types.hpp"

namespace home::simmpi {

/// One in-flight collective round on a communicator.
struct CollectiveRound {
  CollectiveRound(CommId comm_id, std::size_t n) : comm(comm_id), slots(n) {}

  /// Member `comm_rank`'s contribution, which must hold at least `nbytes`.
  /// Every read of a slot goes through here: when two threads of one rank
  /// enter one round (a CollectiveCallViolation), they fill one slot twice
  /// and the round completes with another member's slot still empty, so
  /// reading it throws UsageError (naming the comm and the rank) instead of
  /// copying from nothing.
  std::span<const std::byte> read(int comm_rank, std::size_t nbytes) const;

  CommId comm;
  std::vector<std::vector<std::byte>> slots;
  std::size_t arrived = 0;
  bool complete = false;
  int op_tag = -1;  ///< collective type of the first arriver (mismatch check).
  std::condition_variable cv;
};

class CommImpl {
 public:
  CommImpl(CommId id, std::vector<int> members)
      : id_(id), members_(std::move(members)) {}

  CommId id() const { return id_; }
  int size() const { return static_cast<int>(members_.size()); }
  const std::vector<int>& members() const { return members_; }  ///< world ranks.
  int world_rank_of(int comm_rank) const { return members_.at(static_cast<std::size_t>(comm_rank)); }
  /// Comm rank of a world rank, or -1 if not a member.
  int comm_rank_of(int world_rank) const;

  /// The rendezvous primitive (see file comment). `op_tag` identifies the
  /// collective type; members disagreeing on it throw UsageError.
  /// Returns a shared snapshot of all members' contributions.
  std::shared_ptr<const CollectiveRound> exchange(int comm_rank, int op_tag,
                                                  std::vector<std::byte> contribution,
                                                  int timeout_ms);

 private:
  CommId id_;
  std::vector<int> members_;
  std::mutex mu_;
  std::shared_ptr<CollectiveRound> current_;
};

/// Process-wide communicator table (owned by the Universe).
class CommTable {
 public:
  /// Create a communicator over the given world ranks; returns its handle.
  Comm create(std::vector<int> members);

  /// Create with a specific id (COMM_WORLD bootstrapping).
  Comm create_with_id(CommId id, std::vector<int> members);

  CommImpl* get(CommId id);
  const CommImpl* get(CommId id) const;
  CommImpl& get_or_throw(CommId id);

  std::size_t count() const;

 private:
  mutable std::mutex mu_;
  std::map<CommId, std::unique_ptr<CommImpl>> comms_;
  CommId next_id_ = 2;  // 1 is reserved for COMM_WORLD.
};

}  // namespace home::simmpi
