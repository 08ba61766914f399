// Point-to-point operations: eager-copy sends (optionally rendezvous),
// blocking and nonblocking receives, probe, and request completion.
#include <chrono>
#include <cstring>
#include <thread>

#include "src/simmpi/abort.hpp"
#include "src/simmpi/universe.hpp"

namespace home::simmpi {
namespace {

/// A message from comm rank `src` carrying a copy of the send buffer, with
/// the next message id of `uni`'s run.
Envelope make_envelope(Universe& uni, int src, int tag, CommId comm,
                       const void* buf, int count, Datatype dt) {
  Envelope msg;
  msg.src = src;
  msg.tag = tag;
  msg.comm = comm;
  msg.dt = dt;
  msg.count = count;
  msg.msg_id = uni.next_message_id();
  msg.payload.resize(static_cast<std::size_t>(count) * datatype_size(dt));
  if (!msg.payload.empty()) {
    std::memcpy(msg.payload.data(), buf, msg.payload.size());
  }
  return msg;
}

/// A receive request matching (src, tag, comm) into `buf`, not yet posted,
/// with the next request id of `uni`'s run.
std::shared_ptr<RequestState> recv_state(Universe& uni, void* buf, int count,
                                         Datatype dt, int src, int tag,
                                         CommId comm, const CallOpts& opts) {
  auto state = std::make_shared<RequestState>(RequestKind::kRecv,
                                              uni.next_request_id());
  state->match_src = src;
  state->match_tag = tag;
  state->match_comm = comm;
  state->buf = buf;
  state->count = count;
  state->dt = dt;
  if (opts.callsite) state->site = opts.callsite;
  return state;
}

/// Log a cross-rank happens-before edge (kMsgSend / kMsgRecv) when the run
/// is traced.
void emit_message_edge(Universe& uni, int rank, trace::EventKind kind,
                       std::uint64_t msg_id) {
  if (uni.log() == nullptr) return;
  trace::Event e;
  e.tid = uni.registry() ? uni.registry()->current_tid() : trace::kNoTid;
  e.rank = rank;
  e.kind = kind;
  e.obj = msg_id;
  uni.log()->emit(std::move(e));
}

/// Route a delivery through the fault injector: an installed Injector may
/// sleep the sender (kMsgDelay) or park the envelope for its redelivery
/// worker (kMsgDrop) — the Universe must outlive the injector's quiesce().
/// With no injector installed this is one relaxed load over a plain deliver.
void deliver_faulted(Universe& uni, int src_rank, const char* site,
                     int dest_world, Envelope&& msg) {
  if (faults::active()) {
    auto parked = std::make_shared<Envelope>(std::move(msg));
    auto deliver = [&uni, dest_world, parked] {
      uni.mailbox(dest_world).deliver(std::move(*parked));
    };
    if (faults::message_point(src_rank, site, deliver)) return;  // parked.
    deliver();
    return;
  }
  uni.mailbox(dest_world).deliver(std::move(msg));
}

}  // namespace

Err Process::send(const void* buf, int count, Datatype dt, int dest, int tag,
                  Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Send"), dest, tag, comm.id, 0, opts), [&] {
        int my_comm_rank = -1;
        CommImpl& impl = resolve(comm, &my_comm_rank);
        const int dest_world = impl.world_rank_of(dest);

        Envelope msg =
            make_envelope(*uni_, my_comm_rank, tag, comm.id, buf, count, dt);

        std::shared_ptr<SendToken> token;
        if (uni_->config().rendezvous_sends) {
          token = std::make_shared<SendToken>();
          msg.token = token;
        }

        emit_message_edge(*uni_, rank_, trace::EventKind::kMsgSend, msg.msg_id);

        deliver_faulted(*uni_, rank_, "send", dest_world, std::move(msg));

        if (token) {
          std::unique_lock<std::mutex> lock(token->mu);
          if (!abortable_wait(token->cv, lock, uni_->config().block_timeout_ms,
                              [&] { return token->consumed; })) {
            throw TimeoutError("MPI_Send (rendezvous) timed out: dest=" +
                               std::to_string(dest) + " tag=" + std::to_string(tag));
          }
        }
        return Err::kOk;
      });
}

Request Process::irecv(void* buf, int count, Datatype dt, int src, int tag,
                       Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Irecv"), src, tag, comm.id, 0, opts), [&] {
        int my_comm_rank = -1;
        resolve(comm, &my_comm_rank);
        auto state = recv_state(*uni_, buf, count, dt, src, tag, comm.id, opts);
        uni_->mailbox(rank_).post_recv(state);
        return Request(state);
      });
}

Err Process::recv(void* buf, int count, Datatype dt, int src, int tag, Comm comm,
                  Status* status, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Recv"), src, tag, comm.id, 0, opts), [&] {
        int my_comm_rank = -1;
        resolve(comm, &my_comm_rank);
        auto state = recv_state(*uni_, buf, count, dt, src, tag, comm.id, opts);
        uni_->mailbox(rank_).post_recv(state);
        const Err err = state->wait(uni_->config().block_timeout_ms);
        const Status st = state->status();
        if (status) *status = st;
        emit_message_edge(*uni_, rank_, trace::EventKind::kMsgRecv, st.msg_id);
        return err;
      });
}

Request Process::isend(const void* buf, int count, Datatype dt, int dest, int tag,
                       Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Isend"), dest, tag, comm.id, 0, opts), [&] {
        int my_comm_rank = -1;
        CommImpl& impl = resolve(comm, &my_comm_rank);
        const int dest_world = impl.world_rank_of(dest);

        Envelope msg =
            make_envelope(*uni_, my_comm_rank, tag, comm.id, buf, count, dt);

        emit_message_edge(*uni_, rank_, trace::EventKind::kMsgSend, msg.msg_id);

        // Eager semantics: the buffer is copied, so the send completes
        // immediately from the caller's point of view.
        auto state = std::make_shared<RequestState>(RequestKind::kSend,
                                                    uni_->next_request_id());
        deliver_faulted(*uni_, rank_, "isend", dest_world, std::move(msg));
        state->complete(Status{}, Err::kOk);
        return Request(state);
      });
}

Err Process::wait(Request& request, Status* status, const CallOpts& opts) {
  if (!request.valid()) throw UsageError("MPI_Wait on null request");
  return hooked(
      make_desc(trace::logged_as("MPI_Wait"), -1, kAnyTag, 0, request.id(), opts),
      [&] {
        const Err err = request.state()->wait(uni_->config().block_timeout_ms);
        const Status st = request.state()->status();
        if (status) *status = st;
        if (request.state()->kind() == RequestKind::kRecv && st.msg_id != 0) {
          emit_message_edge(*uni_, rank_, trace::EventKind::kMsgRecv, st.msg_id);
        }
        return err;
      });
}

bool Process::test(Request& request, Status* status, const CallOpts& opts) {
  if (!request.valid()) throw UsageError("MPI_Test on null request");
  return hooked(
      make_desc(trace::logged_as("MPI_Test"), -1, kAnyTag, 0, request.id(), opts),
      [&] {
        Status st;
        Err err = Err::kOk;
        const bool done = request.state()->test(&st, &err);
        if (done && status) *status = st;
        return done;
      });
}

void Process::probe(int src, int tag, Comm comm, Status* status,
                    const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Probe"), src, tag, comm.id, 0, opts), [&] {
    resolve(comm, nullptr);
    uni_->mailbox(rank_).probe(src, tag, comm.id, status,
                               uni_->config().block_timeout_ms);
  });
}

bool Process::iprobe(int src, int tag, Comm comm, Status* status,
                     const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Iprobe"), src, tag, comm.id, 0, opts), [&] {
        resolve(comm, nullptr);
        return uni_->mailbox(rank_).iprobe(src, tag, comm.id, status);
      });
}

Err Process::ssend(const void* buf, int count, Datatype dt, int dest, int tag,
                   Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Ssend"), dest, tag, comm.id, 0, opts), [&] {
        int my_comm_rank = -1;
        CommImpl& impl = resolve(comm, &my_comm_rank);
        const int dest_world = impl.world_rank_of(dest);

        Envelope msg =
            make_envelope(*uni_, my_comm_rank, tag, comm.id, buf, count, dt);
        // Synchronous mode: always rendezvous.
        auto token = std::make_shared<SendToken>();
        msg.token = token;

        emit_message_edge(*uni_, rank_, trace::EventKind::kMsgSend, msg.msg_id);

        deliver_faulted(*uni_, rank_, "ssend", dest_world, std::move(msg));

        std::unique_lock<std::mutex> lock(token->mu);
        if (!abortable_wait(token->cv, lock, uni_->config().block_timeout_ms,
                            [&] { return token->consumed; })) {
          throw TimeoutError("MPI_Ssend timed out: dest=" + std::to_string(dest) +
                             " tag=" + std::to_string(tag));
        }
        return Err::kOk;
      });
}

Err Process::waitall(std::vector<Request>& requests, Status* statuses,
                     const CallOpts& opts) {
  Err worst = Err::kOk;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Status st;
    const Err err = wait(requests[i], &st, opts);
    if (statuses) statuses[i] = st;
    if (err != Err::kOk) worst = err;
  }
  return worst;
}

int Process::waitany(std::vector<Request>& requests, Status* status,
                     const CallOpts& opts) {
  if (requests.empty()) throw UsageError("MPI_Waitany on empty request list");
  // Register interest in every request (one logged completion call each) so
  // the thread-safety analysis sees which requests this call may complete.
  for (Request& r : requests) {
    if (!r.valid()) continue;
    hooked(make_desc(trace::logged_as("MPI_Waitany"), -1, kAnyTag, 0, r.id(), opts),
           [] {});
  }
  const int timeout_ms = uni_->config().block_timeout_ms;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms
                                                                 : 1 << 30);
  for (;;) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].valid()) continue;
      Status st;
      Err err = Err::kOk;
      if (requests[i].state()->test(&st, &err)) {
        if (status) *status = st;
        return static_cast<int>(i);
      }
    }
    if (std::chrono::steady_clock::now() > deadline) {
      throw TimeoutError("MPI_Waitany timed out (possible deadlock)");
    }
    throw_if_aborted();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Process::testall(std::vector<Request>& requests, const CallOpts& opts) {
  bool all_done = true;
  for (Request& r : requests) {
    if (!r.valid()) continue;
    if (!test(r, nullptr, opts)) all_done = false;
  }
  return all_done;
}

// A persistent request is logged as the nonblocking call it stands for, at
// creation and at every MPI_Start; the routine table has no rows of its own
// for them.
Request Process::send_init(const void* buf, int count, Datatype dt, int dest,
                           int tag, Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Isend"), dest, tag, comm.id, 0, opts), [&] {
        int my_comm_rank = -1;
        CommImpl& impl = resolve(comm, &my_comm_rank);
        auto state = std::make_shared<RequestState>(RequestKind::kSend,
                                                    uni_->next_request_id());
        PersistentInfo info;
        info.is_send = true;
        info.send_buf = buf;
        info.count = count;
        info.dt = dt;
        info.my_comm_rank = my_comm_rank;
        info.peer_world = impl.world_rank_of(dest);
        info.tag = tag;
        info.comm = comm.id;
        state->persistent = info;
        state->complete(Status{}, Err::kOk);  // inactive until MPI_Start.
        return Request(state);
      });
}

Request Process::recv_init(void* buf, int count, Datatype dt, int src, int tag,
                           Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Irecv"), src, tag, comm.id, 0, opts), [&] {
        resolve(comm, nullptr);
        auto state = recv_state(*uni_, buf, count, dt, src, tag, comm.id, opts);
        PersistentInfo info;
        info.is_send = false;
        info.count = count;
        info.dt = dt;
        info.tag = tag;
        info.comm = comm.id;
        state->persistent = info;
        state->complete(Status{}, Err::kOk);  // inactive until MPI_Start.
        return Request(state);
      });
}

void Process::start(Request& request, const CallOpts& opts) {
  if (!request.valid() || !request.state()->persistent) {
    throw UsageError("MPI_Start on a non-persistent request");
  }
  hooked(make_desc(request.state()->persistent->is_send
                       ? trace::logged_as("MPI_Isend")
                       : trace::logged_as("MPI_Irecv"),
                   -1, request.state()->persistent->tag,
                   request.state()->persistent->comm, request.id(), opts),
         [&] {
           RequestState& state = *request.state();
           const PersistentInfo& info = *state.persistent;
           state.reset_for_restart();
           if (info.is_send) {
             deliver_faulted(*uni_, rank_, "start", info.peer_world,
                             make_envelope(*uni_, info.my_comm_rank, info.tag,
                                           info.comm, info.send_buf,
                                           info.count, info.dt));
             state.complete(Status{}, Err::kOk);  // eager send semantics.
           } else {
             uni_->mailbox(rank_).post_recv(request.shared_state());
           }
         });
}

Err Process::sendrecv(const void* sendbuf, int sendcount, Datatype sdt, int dest,
                      int sendtag, void* recvbuf, int recvcount, Datatype rdt,
                      int src, int recvtag, Comm comm, Status* status,
                      const CallOpts& opts) {
  // Reported as the primitive calls it runs, each with the caller's
  // callsite, as Waitall is: the receive half is then matched like any
  // receive.  Post the receive first, then send, then complete the receive
  // — deadlock-free for symmetric exchanges even in rendezvous mode.
  Request r = irecv(recvbuf, recvcount, rdt, src, recvtag, comm, opts);
  const Err serr = send(sendbuf, sendcount, sdt, dest, sendtag, comm, opts);
  const Err rerr = wait(r, status, opts);
  return serr != Err::kOk ? serr : rerr;
}

}  // namespace home::simmpi
