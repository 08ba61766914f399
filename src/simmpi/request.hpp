// Requests: the completion objects behind Isend/Irecv/Wait/Test, and the
// message envelope that travels between mailboxes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/simmpi/types.hpp"

namespace home::simmpi {

/// Synchronous-send rendezvous token: in rendezvous mode the sender blocks
/// until a receive consumes the message.
struct SendToken {
  std::mutex mu;
  std::condition_variable cv;
  bool consumed = false;
};

/// A message in flight. Payload is owned bytes (eager-copy semantics).
struct Envelope {
  int src = kAnySource;  ///< sender's rank *within* the communicator.
  int tag = kAnyTag;
  CommId comm = 0;
  Datatype dt = Datatype::kByte;
  int count = 0;
  std::uint64_t msg_id = 0;
  std::vector<std::byte> payload;
  std::shared_ptr<SendToken> token;  ///< non-null in rendezvous mode.
};

enum class RequestKind : std::uint8_t { kSend, kRecv };

/// Stored parameters of a persistent request (MPI_Send_init / MPI_Recv_init);
/// MPI_Start re-arms the operation from these.
struct PersistentInfo {
  bool is_send = false;
  const void* send_buf = nullptr;  ///< send side only.
  int count = 0;
  Datatype dt = Datatype::kByte;
  int my_comm_rank = -1;  ///< sender's rank within the communicator.
  int peer_world = -1;    ///< destination world rank (send side).
  int tag = kAnyTag;
  CommId comm = 0;
};

/// Shared completion state. An outstanding Irecv lives in the destination
/// mailbox's posted-receive queue until a matching envelope arrives.
class RequestState {
 public:
  RequestState(RequestKind kind, std::uint64_t id) : kind_(kind), id_(id) {}

  RequestKind kind() const { return kind_; }
  std::uint64_t id() const { return id_; }

  // --- matching criteria / destination buffer (recv only) -----------------
  int match_src = kAnySource;
  int match_tag = kAnyTag;
  CommId match_comm = 0;
  void* buf = nullptr;
  int count = 0;
  Datatype dt = Datatype::kByte;
  /// Callsite label (CallOpts::callsite) of the posting receive, if any;
  /// used as the explorer's pick-site label so static guidance can address
  /// individual wildcard receives instead of the shared mailbox site.
  std::string site;

  /// Persistent-mode parameters (set by *_init, consumed by MPI_Start).
  std::optional<PersistentInfo> persistent;

  /// Complete the request (under the owner mailbox's lock or standalone).
  void complete(Status status, Err err);

  /// Re-arm a persistent request: clears completion so it can run again.
  void reset_for_restart();

  /// Block until complete; throws TimeoutError after timeout_ms (0 = forever).
  Err wait(int timeout_ms);

  /// Non-blocking completion check (MPI_Test).
  bool test(Status* status_out, Err* err_out);

  bool done() const;
  Status status() const;
  Err error() const;

 private:
  RequestKind kind_;
  std::uint64_t id_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_;
  Err err_ = Err::kOk;
};

/// User-facing request handle (like MPI_Request; copyable, shareable across
/// threads — sharing one request between two waiting threads is exactly the
/// ConcurrentRequestViolation the tool detects).
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> state) : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const { return state_ ? state_->id() : 0; }
  RequestState* state() { return state_.get(); }
  const RequestState* state() const { return state_.get(); }
  const std::shared_ptr<RequestState>& shared_state() const { return state_; }

 private:
  std::shared_ptr<RequestState> state_;
};

}  // namespace home::simmpi
