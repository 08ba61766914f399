// Collectives, all derived from CommImpl::exchange (allgather of byte blobs).
#include <algorithm>
#include <cstring>

#include "src/simmpi/universe.hpp"

namespace home::simmpi {
namespace {

int op_tag_for(trace::MpiCallType type, int root) {
  return static_cast<int>(type) * 1000 + (root + 1);
}

std::vector<std::byte> to_bytes(const void* buf, int count, Datatype dt) {
  const std::size_t nbytes = static_cast<std::size_t>(count) * datatype_size(dt);
  std::vector<std::byte> out(nbytes);
  if (nbytes > 0 && buf) std::memcpy(out.data(), buf, nbytes);
  return out;
}

template <typename T>
void fold_typed(T* acc, const T* in, int count, ReduceOp op) {
  for (int i = 0; i < count; ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] = acc[i] + in[i]; break;
      case ReduceOp::kProd: acc[i] = acc[i] * in[i]; break;
      case ReduceOp::kMax: acc[i] = acc[i] < in[i] ? in[i] : acc[i]; break;
      case ReduceOp::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
    }
  }
}

void fold(std::byte* acc, const std::byte* in, int count, Datatype dt, ReduceOp op) {
  switch (dt) {
    case Datatype::kInt:
      fold_typed(reinterpret_cast<int*>(acc), reinterpret_cast<const int*>(in),
                 count, op);
      break;
    case Datatype::kLong:
      fold_typed(reinterpret_cast<long*>(acc), reinterpret_cast<const long*>(in),
                 count, op);
      break;
    case Datatype::kFloat:
      fold_typed(reinterpret_cast<float*>(acc), reinterpret_cast<const float*>(in),
                 count, op);
      break;
    case Datatype::kDouble:
      fold_typed(reinterpret_cast<double*>(acc),
                 reinterpret_cast<const double*>(in), count, op);
      break;
    case Datatype::kByte:
    case Datatype::kChar:
      throw UsageError("reduce on untyped data");
  }
}

}  // namespace

void Process::barrier(Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Barrier"), -1, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           impl.exchange(me, op_tag_for(trace::MpiCallType::kBarrier, -1), {},
                         uni_->config().block_timeout_ms);
         });
}

void Process::bcast(void* buf, int count, Datatype dt, int root, Comm comm,
                    const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Bcast"), root, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           std::vector<std::byte> contribution;
           if (me == root) contribution = to_bytes(buf, count, dt);
           auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kBcast, root),
                                      std::move(contribution),
                                      uni_->config().block_timeout_ms);
           if (me != root) {
             const std::size_t nbytes =
                 static_cast<std::size_t>(count) * datatype_size(dt);
             std::memcpy(buf, round->read(root, nbytes).data(), nbytes);
           }
         });
}

void Process::reduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
                     ReduceOp op, int root, Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Reduce"), root, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kReduce, root),
                                      to_bytes(sendbuf, count, dt),
                                      uni_->config().block_timeout_ms);
           if (me == root) {
             const std::size_t nbytes =
                 static_cast<std::size_t>(count) * datatype_size(dt);
             std::memcpy(recvbuf, round->read(0, nbytes).data(), nbytes);
             for (int r = 1; r < impl.size(); ++r) {
               fold(static_cast<std::byte*>(recvbuf),
                    round->read(r, nbytes).data(), count, dt, op);
             }
           }
         });
}

void Process::allreduce(const void* sendbuf, void* recvbuf, int count, Datatype dt,
                        ReduceOp op, Comm comm, const CallOpts& opts) {
  hooked(
      make_desc(trace::logged_as("MPI_Allreduce"), -1, kAnyTag, comm.id, 0, opts),
      [&] {
        int me = -1;
        CommImpl& impl = resolve(comm, &me);
        auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kAllreduce, -1),
                                   to_bytes(sendbuf, count, dt),
                                   uni_->config().block_timeout_ms);
        const std::size_t nbytes =
            static_cast<std::size_t>(count) * datatype_size(dt);
        std::memcpy(recvbuf, round->read(0, nbytes).data(), nbytes);
        for (int r = 1; r < impl.size(); ++r) {
          fold(static_cast<std::byte*>(recvbuf), round->read(r, nbytes).data(),
               count, dt, op);
        }
      });
}

void Process::gather(const void* sendbuf, int sendcount, Datatype dt,
                     void* recvbuf, int root, Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Gather"), root, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kGather, root),
                                      to_bytes(sendbuf, sendcount, dt),
                                      uni_->config().block_timeout_ms);
           if (me == root) {
             const std::size_t chunk =
                 static_cast<std::size_t>(sendcount) * datatype_size(dt);
             auto* out = static_cast<std::byte*>(recvbuf);
             for (int r = 0; r < impl.size(); ++r) {
               std::memcpy(out + static_cast<std::size_t>(r) * chunk,
                           round->read(r, chunk).data(), chunk);
             }
           }
         });
}

void Process::allgather(const void* sendbuf, int sendcount, Datatype dt,
                        void* recvbuf, Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Allgather"), -1, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kGather, -2),
                                      to_bytes(sendbuf, sendcount, dt),
                                      uni_->config().block_timeout_ms);
           const std::size_t chunk =
               static_cast<std::size_t>(sendcount) * datatype_size(dt);
           auto* out = static_cast<std::byte*>(recvbuf);
           for (int r = 0; r < impl.size(); ++r) {
             std::memcpy(out + static_cast<std::size_t>(r) * chunk,
                         round->read(r, chunk).data(), chunk);
           }
         });
}

void Process::scatter(const void* sendbuf, int sendcount, Datatype dt,
                      void* recvbuf, int root, Comm comm, const CallOpts& opts) {
  hooked(
      make_desc(trace::logged_as("MPI_Scatter"), root, kAnyTag, comm.id, 0, opts),
      [&] {
        int me = -1;
        CommImpl& impl = resolve(comm, &me);
        std::vector<std::byte> contribution;
        const std::size_t chunk =
            static_cast<std::size_t>(sendcount) * datatype_size(dt);
        if (me == root) {
          contribution = to_bytes(sendbuf, sendcount * impl.size(), dt);
        }
        auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kScatter, root),
                                   std::move(contribution),
                                   uni_->config().block_timeout_ms);
        const std::byte* all =
            round->read(root, chunk * static_cast<std::size_t>(impl.size()))
                .data();
        std::memcpy(recvbuf, all + static_cast<std::size_t>(me) * chunk, chunk);
      });
}

void Process::alltoall(const void* sendbuf, int sendcount, Datatype dt,
                       void* recvbuf, Comm comm, const CallOpts& opts) {
  hooked(
      make_desc(trace::logged_as("MPI_Alltoall"), -1, kAnyTag, comm.id, 0, opts),
      [&] {
        int me = -1;
        CommImpl& impl = resolve(comm, &me);
        const std::size_t chunk =
            static_cast<std::size_t>(sendcount) * datatype_size(dt);
        auto round = impl.exchange(
            me, op_tag_for(trace::MpiCallType::kAlltoall, -1),
            to_bytes(sendbuf, sendcount * impl.size(), dt),
            uni_->config().block_timeout_ms);
        auto* out = static_cast<std::byte*>(recvbuf);
        for (int r = 0; r < impl.size(); ++r) {
          const std::byte* slot =
              round->read(r, chunk * static_cast<std::size_t>(me + 1)).data();
          std::memcpy(out + static_cast<std::size_t>(r) * chunk,
                      slot + static_cast<std::size_t>(me) * chunk, chunk);
        }
      });
}

void Process::gatherv(const void* sendbuf, int sendcount, Datatype dt,
                      void* recvbuf, const int* recvcounts, const int* displs,
                      int root, Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Gatherv"), root, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kGather,
                                                     root + 500),
                                      to_bytes(sendbuf, sendcount, dt),
                                      uni_->config().block_timeout_ms);
           if (me == root) {
             auto* out = static_cast<std::byte*>(recvbuf);
             const std::size_t elem = datatype_size(dt);
             for (int r = 0; r < impl.size(); ++r) {
               const std::size_t want =
                   static_cast<std::size_t>(recvcounts[r]) * elem;
               std::memcpy(out + static_cast<std::size_t>(displs[r]) * elem,
                           round->read(r, want).data(), want);
             }
           }
         });
}

void Process::scatterv(const void* sendbuf, const int* sendcounts,
                       const int* displs, Datatype dt, void* recvbuf,
                       int recvcount, int root, Comm comm, const CallOpts& opts) {
  hooked(
      make_desc(trace::logged_as("MPI_Scatterv"), root, kAnyTag, comm.id, 0, opts),
      [&] {
        int me = -1;
        CommImpl& impl = resolve(comm, &me);
        const std::size_t elem = datatype_size(dt);
        const int n = impl.size();

        // The root's contribution carries a header (counts then displs, as
        // int32) followed by the full send buffer, because the per-rank
        // layout is significant at the root only.
        std::vector<std::byte> contribution;
        if (me == root) {
          std::size_t total = 0;
          for (int r = 0; r < n; ++r) {
            const std::size_t end = static_cast<std::size_t>(displs[r]) +
                                    static_cast<std::size_t>(sendcounts[r]);
            total = std::max(total, end);
          }
          const std::size_t header = static_cast<std::size_t>(2 * n) * sizeof(int);
          contribution.resize(header + total * elem);
          std::memcpy(contribution.data(), sendcounts,
                      static_cast<std::size_t>(n) * sizeof(int));
          std::memcpy(contribution.data() + static_cast<std::size_t>(n) * sizeof(int),
                      displs, static_cast<std::size_t>(n) * sizeof(int));
          if (total > 0) {
            std::memcpy(contribution.data() + header, sendbuf, total * elem);
          }
        }
        auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kScatter,
                                                  root + 500),
                                   std::move(contribution),
                                   uni_->config().block_timeout_ms);

        const std::size_t header = static_cast<std::size_t>(2 * n) * sizeof(int);
        const std::byte* head = round->read(root, header).data();
        int mine = 0;
        int offset = 0;
        std::memcpy(&mine, head + static_cast<std::size_t>(me) * sizeof(int),
                    sizeof(int));
        std::memcpy(&offset,
                    head + static_cast<std::size_t>(n + me) * sizeof(int),
                    sizeof(int));
        if (mine > recvcount) throw UsageError("scatterv: recv buffer too small");
        const std::size_t begin = header + static_cast<std::size_t>(offset) * elem;
        const std::size_t nbytes = static_cast<std::size_t>(mine) * elem;
        std::memcpy(recvbuf, round->read(root, begin + nbytes).data() + begin,
                    nbytes);
      });
}

void Process::scan(const void* sendbuf, void* recvbuf, int count, Datatype dt,
                   ReduceOp op, Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Scan"), -1, kAnyTag, comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           auto round = impl.exchange(me, op_tag_for(trace::MpiCallType::kScan, -1),
                                      to_bytes(sendbuf, count, dt),
                                      uni_->config().block_timeout_ms);
           // Inclusive prefix: fold contributions of ranks 0..me.
           const std::size_t nbytes =
               static_cast<std::size_t>(count) * datatype_size(dt);
           std::memcpy(recvbuf, round->read(0, nbytes).data(), nbytes);
           for (int r = 1; r <= me; ++r) {
             fold(static_cast<std::byte*>(recvbuf),
                  round->read(r, nbytes).data(), count, dt, op);
           }
         });
}

void Process::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                                   int recvcount, Datatype dt, ReduceOp op,
                                   Comm comm, const CallOpts& opts) {
  hooked(make_desc(trace::logged_as("MPI_Reduce_scatter_block"), -1, kAnyTag,
                   comm.id, 0, opts),
         [&] {
           int me = -1;
           CommImpl& impl = resolve(comm, &me);
           const int total = recvcount * impl.size();
           auto round = impl.exchange(
               me, op_tag_for(trace::MpiCallType::kReduceScatter, -1),
               to_bytes(sendbuf, total, dt), uni_->config().block_timeout_ms);
           // Fold the full vectors, then keep my block.
           const std::size_t nbytes =
               static_cast<std::size_t>(total) * datatype_size(dt);
           const std::byte* first = round->read(0, nbytes).data();
           std::vector<std::byte> acc(first, first + nbytes);
           for (int r = 1; r < impl.size(); ++r) {
             fold(acc.data(), round->read(r, nbytes).data(), total, dt, op);
           }
           const std::size_t block =
               static_cast<std::size_t>(recvcount) * datatype_size(dt);
           std::memcpy(recvbuf, acc.data() + static_cast<std::size_t>(me) * block,
                       block);
         });
}

Comm Process::comm_dup(Comm comm, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Comm_dup"), -1, kAnyTag, comm.id, 0, opts),
      [&] {
        int me = -1;
        CommImpl& impl = resolve(comm, &me);
        // Comm rank 0 allocates the new id and publishes it; a second
        // exchange broadcasts it (both rounds are collective over `comm`).
        std::vector<std::byte> contribution;
        if (me == 0) {
          const Comm fresh = uni_->comms().create(impl.members());
          contribution.resize(sizeof(CommId));
          std::memcpy(contribution.data(), &fresh.id, sizeof(CommId));
        }
        auto round = impl.exchange(me, /*op_tag=*/900001, std::move(contribution),
                                   uni_->config().block_timeout_ms);
        CommId fresh_id = 0;
        std::memcpy(&fresh_id, round->read(0, sizeof(CommId)).data(),
                    sizeof(CommId));
        return Comm{fresh_id};
      });
}

Comm Process::comm_split(Comm comm, int color, int key, const CallOpts& opts) {
  return hooked(
      make_desc(trace::logged_as("MPI_Comm_split"), -1, kAnyTag, comm.id, 0, opts),
      [&] {
        int me = -1;
        CommImpl& impl = resolve(comm, &me);

        // Round 1: allgather (color, key, world_rank).
        struct Entry { int color; int key; int world; };
        Entry mine{color, key, rank_};
        std::vector<std::byte> contribution(sizeof(Entry));
        std::memcpy(contribution.data(), &mine, sizeof(Entry));
        auto round = impl.exchange(me, /*op_tag=*/900002, std::move(contribution),
                                   uni_->config().block_timeout_ms);

        std::vector<Entry> entries(static_cast<std::size_t>(impl.size()));
        for (int r = 0; r < impl.size(); ++r) {
          std::memcpy(&entries[static_cast<std::size_t>(r)],
                      round->read(r, sizeof(Entry)).data(), sizeof(Entry));
        }

        const int my_color = color;

        // Round 2: comm-rank 0 creates one communicator per color (in
        // ascending color order) and publishes the (color, id) pairs.
        struct Pair { int color; CommId id; };
        std::vector<std::byte> ids_blob;
        if (me == 0) {
          std::vector<int> colors;
          for (const Entry& e : entries) colors.push_back(e.color);
          std::sort(colors.begin(), colors.end());
          colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
          std::vector<Pair> pairs;
          for (int c : colors) {
            std::vector<int> group;
            for (const Entry& e : entries) {
              if (e.color == c) group.push_back(e.world);
            }
            std::sort(group.begin(), group.end(), [&](int a, int b) {
              auto key_of = [&](int world) {
                for (const Entry& e : entries) {
                  if (e.world == world) return e.key;
                }
                return 0;
              };
              if (key_of(a) != key_of(b)) return key_of(a) < key_of(b);
              return a < b;
            });
            pairs.push_back(Pair{c, uni_->comms().create(group).id});
          }
          ids_blob.resize(pairs.size() * sizeof(Pair));
          std::memcpy(ids_blob.data(), pairs.data(), ids_blob.size());
        }
        auto round2 = impl.exchange(me, /*op_tag=*/900003, std::move(ids_blob),
                                    uni_->config().block_timeout_ms);
        const std::span<const std::byte> blob = round2->read(0, sizeof(Pair));
        const std::size_t npairs = blob.size() / sizeof(Pair);
        for (std::size_t i = 0; i < npairs; ++i) {
          Pair p{};
          std::memcpy(&p, blob.data() + i * sizeof(Pair), sizeof(Pair));
          if (p.color == my_color) return Comm{p.id};
        }
        throw UsageError("comm_split: no communicator allocated for color " +
                         std::to_string(my_color));
      });
}

}  // namespace home::simmpi
