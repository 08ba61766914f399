#include "src/simmpi/comm.hpp"

#include <chrono>
#include <string>

#include "src/simmpi/abort.hpp"

namespace home::simmpi {

int CommImpl::comm_rank_of(int world_rank) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == world_rank) return static_cast<int>(i);
  }
  return -1;
}

std::span<const std::byte> CollectiveRound::read(int comm_rank,
                                                 std::size_t nbytes) const {
  const std::vector<std::byte>& slot =
      slots.at(static_cast<std::size_t>(comm_rank));
  // A filled slot holds at least one byte (exchange marks empty payloads).
  if (slot.empty() || slot.size() < nbytes) {
    throw UsageError("collective on comm " + std::to_string(comm) + ": rank " +
                     std::to_string(comm_rank) + " contributed " +
                     std::to_string(slot.size()) + " bytes, " +
                     std::to_string(nbytes) + " needed");
  }
  return slot;
}

std::shared_ptr<const CollectiveRound> CommImpl::exchange(
    int comm_rank, int op_tag, std::vector<std::byte> contribution, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!current_) {
    current_ = std::make_shared<CollectiveRound>(id_, members_.size());
  }
  std::shared_ptr<CollectiveRound> round = current_;

  if (round->op_tag == -1) {
    round->op_tag = op_tag;
  } else if (round->op_tag != op_tag) {
    throw UsageError("mismatched collective on comm " + std::to_string(id_) +
                     ": op " + std::to_string(op_tag) + " vs " +
                     std::to_string(round->op_tag));
  }

  auto& slot = round->slots.at(static_cast<std::size_t>(comm_rank));
  // NOTE: two threads of one rank issuing the same collective concurrently
  // (the CollectiveCallViolation) land in the same slot; the substrate keeps
  // the *last* deposit. Every arrival counts toward completion — for correct
  // programs (one deposit per member per round) this is identical to counting
  // distinct slots, while under a violation the round still terminates and
  // the program observes corrupted collective semantics instead of a hang,
  // exactly like a real MPI library's undefined behaviour.  A member whose
  // slot was left empty fails its read (CollectiveRound::read).
  slot = std::move(contribution);
  if (slot.empty()) slot.resize(1);  // mark occupied even for empty payloads.

  ++round->arrived;
  if (round->arrived == round->slots.size()) {
    round->complete = true;
    current_.reset();  // next collective starts a fresh round.
    round->cv.notify_all();
    return round;
  }

  if (!abortable_wait(round->cv, lock, timeout_ms,
                      [&] { return round->complete; })) {
    throw TimeoutError("collective timed out on comm " + std::to_string(id_) +
                       " (possible deadlock)");
  }
  return round;
}

Comm CommTable::create(std::vector<int> members) {
  std::lock_guard<std::mutex> lock(mu_);
  const CommId id = next_id_++;
  comms_.emplace(id, std::make_unique<CommImpl>(id, std::move(members)));
  return Comm{id};
}

Comm CommTable::create_with_id(CommId id, std::vector<int> members) {
  std::lock_guard<std::mutex> lock(mu_);
  comms_.emplace(id, std::make_unique<CommImpl>(id, std::move(members)));
  if (id >= next_id_) next_id_ = id + 1;
  return Comm{id};
}

CommImpl* CommTable::get(CommId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = comms_.find(id);
  return it == comms_.end() ? nullptr : it->second.get();
}

const CommImpl* CommTable::get(CommId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = comms_.find(id);
  return it == comms_.end() ? nullptr : it->second.get();
}

CommImpl& CommTable::get_or_throw(CommId id) {
  CommImpl* impl = get(id);
  if (!impl) throw UsageError("invalid communicator id " + std::to_string(id));
  return *impl;
}

std::size_t CommTable::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return comms_.size();
}

}  // namespace home::simmpi
