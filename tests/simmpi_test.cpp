#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/simmpi/universe.hpp"

namespace home::simmpi {
namespace {

using trace::MpiCallType;

UniverseConfig config(int nranks, int timeout_ms = 5000) {
  UniverseConfig cfg;
  cfg.nranks = nranks;
  cfg.block_timeout_ms = timeout_ms;
  return cfg;
}

TEST(Universe, RunsEveryRankOnce) {
  Universe uni(config(4));
  std::atomic<int> mask{0};
  auto result = uni.run([&](Process& p) { mask.fetch_or(1 << p.rank()); });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(Universe, CurrentIsSetInsideRun) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    EXPECT_EQ(Universe::current(), &p);
  });
  EXPECT_EQ(Universe::current(), nullptr);
}

TEST(Universe, CollectsRankExceptions) {
  Universe uni(config(3));
  auto result = uni.run([&](Process& p) {
    if (p.rank() == 1) throw UsageError("boom");
  });
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.failed_ranks.size(), 1u);
  EXPECT_EQ(result.failed_ranks[0], 1);
  EXPECT_NE(result.errors[0].find("boom"), std::string::npos);
}

TEST(InitThread, ProvidedIsCappedByConfig) {
  UniverseConfig cfg = config(1);
  cfg.max_thread_level = ThreadLevel::kSerialized;
  Universe uni(cfg);
  uni.run([&](Process& p) {
    EXPECT_EQ(p.init_thread(ThreadLevel::kMultiple), ThreadLevel::kSerialized);
    EXPECT_EQ(p.provided_level(), ThreadLevel::kSerialized);
  });
}

TEST(InitThread, PlainInitGivesSingle) {
  Universe uni(config(1));
  uni.run([&](Process& p) {
    p.init();
    EXPECT_EQ(p.provided_level(), ThreadLevel::kSingle);
    EXPECT_TRUE(p.initialized());
    p.finalize();
    EXPECT_TRUE(p.finalized());
  });
}

TEST(P2P, BlockingSendRecvDeliversPayload) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    p.init_thread(ThreadLevel::kMultiple);
    if (p.rank() == 0) {
      const int value = 4711;
      EXPECT_EQ(p.send(&value, 1, Datatype::kInt, 1, 7, kCommWorld), Err::kOk);
    } else {
      int value = 0;
      Status st;
      EXPECT_EQ(p.recv(&value, 1, Datatype::kInt, 0, 7, kCommWorld, &st), Err::kOk);
      EXPECT_EQ(value, 4711);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count, 1);
    }
  });
}

TEST(P2P, WildcardSourceAndTagMatch) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const double x = 2.5;
      p.send(&x, 1, Datatype::kDouble, 1, 13, kCommWorld);
    } else {
      double x = 0;
      Status st;
      p.recv(&x, 1, Datatype::kDouble, kAnySource, kAnyTag, kCommWorld, &st);
      EXPECT_DOUBLE_EQ(x, 2.5);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 13);
    }
  });
}

TEST(P2P, MessagesWithSameTagArriveInSendOrder) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 10; ++i) p.send(&i, 1, Datatype::kInt, 1, 0, kCommWorld);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2P, TruncationReported) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      int big[4] = {1, 2, 3, 4};
      p.send(big, 4, Datatype::kInt, 1, 0, kCommWorld);
    } else {
      int small[2] = {0, 0};
      EXPECT_EQ(p.recv(small, 2, Datatype::kInt, 0, 0, kCommWorld), Err::kTruncate);
      EXPECT_EQ(small[0], 1);
      EXPECT_EQ(small[1], 2);
    }
  });
}

TEST(P2P, IsendIrecvWithWait) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const long v = 99L;
      Request r = p.isend(&v, 1, Datatype::kLong, 1, 3, kCommWorld);
      EXPECT_EQ(p.wait(r), Err::kOk);
    } else {
      long v = 0;
      Request r = p.irecv(&v, 1, Datatype::kLong, 0, 3, kCommWorld);
      Status st;
      EXPECT_EQ(p.wait(r, &st), Err::kOk);
      EXPECT_EQ(v, 99L);
      EXPECT_GT(st.msg_id, 0u);  // populated.
    }
  });
}

TEST(P2P, TestPollsUntilComplete) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      p.barrier(kCommWorld);  // make the receiver poll first.
      const int v = 5;
      p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld);
    } else {
      int v = 0;
      Request r = p.irecv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
      EXPECT_FALSE(p.test(r));  // nothing sent yet.
      p.barrier(kCommWorld);
      Status st;
      while (!p.test(r, &st)) {}
      EXPECT_EQ(v, 5);
    }
  });
}

TEST(P2P, ProbeSeesMessageWithoutConsuming) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 77;
      p.send(&v, 1, Datatype::kInt, 1, 9, kCommWorld);
    } else {
      Status st;
      p.probe(0, 9, kCommWorld, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_EQ(st.count, 1);
      int v = 0;
      p.recv(&v, st.count, Datatype::kInt, st.source, st.tag, kCommWorld);
      EXPECT_EQ(v, 77);
    }
  });
}

TEST(P2P, IprobeNonBlocking) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 1) {
      Status st;
      EXPECT_FALSE(p.iprobe(0, 4, kCommWorld, &st));
      p.barrier(kCommWorld);
      p.barrier(kCommWorld);
      EXPECT_TRUE(p.iprobe(0, 4, kCommWorld, &st));
      int v;
      p.recv(&v, 1, Datatype::kInt, 0, 4, kCommWorld);
    } else {
      p.barrier(kCommWorld);
      const int v = 1;
      p.send(&v, 1, Datatype::kInt, 1, 4, kCommWorld);
      p.barrier(kCommWorld);
    }
  });
}

TEST(P2P, RecvTimesOutWhenNoSender) {
  Universe uni(config(1, /*timeout_ms=*/50));
  auto result = uni.run([&](Process& p) {
    int v;
    p.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag, kCommWorld);
  });
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].find("timed out"), std::string::npos);
}

TEST(P2P, RendezvousSendCompletesWhenMatched) {
  UniverseConfig cfg = config(2);
  cfg.rendezvous_sends = true;
  Universe uni(cfg);
  auto result = uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 1;
      EXPECT_EQ(p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld), Err::kOk);
    } else {
      int v = 0;
      p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
      EXPECT_EQ(v, 1);
    }
  });
  EXPECT_TRUE(result.ok());
}

TEST(P2P, RendezvousSendTimesOutWithoutReceiver) {
  UniverseConfig cfg = config(2, /*timeout_ms=*/50);
  cfg.rendezvous_sends = true;
  Universe uni(cfg);
  auto result = uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 1;
      p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld);
    }
    // rank 1 never receives.
  });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.failed_ranks[0], 0);
}

TEST(P2P, SendrecvExchangesSymmetrically) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    const int mine = p.rank() * 10;
    int theirs = -1;
    const int peer = 1 - p.rank();
    p.sendrecv(&mine, 1, Datatype::kInt, peer, 0, &theirs, 1, Datatype::kInt,
               peer, 0, kCommWorld);
    EXPECT_EQ(theirs, peer * 10);
  });
}

TEST(Collectives, BarrierSynchronizes) {
  Universe uni(config(4));
  std::atomic<int> before{0};
  uni.run([&](Process& p) {
    before.fetch_add(1);
    p.barrier(kCommWorld);
    EXPECT_EQ(before.load(), 4);
  });
}

TEST(Collectives, BcastFromNonzeroRoot) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    int v = p.rank() == 2 ? 1234 : 0;
    p.bcast(&v, 1, Datatype::kInt, 2, kCommWorld);
    EXPECT_EQ(v, 1234);
  });
}

TEST(Collectives, ReduceSumAtRoot) {
  Universe uni(config(4));
  uni.run([&](Process& p) {
    const int mine = p.rank() + 1;
    int sum = -1;
    p.reduce(&mine, &sum, 1, Datatype::kInt, ReduceOp::kSum, 0, kCommWorld);
    if (p.rank() == 0) {
      EXPECT_EQ(sum, 1 + 2 + 3 + 4);
    }
  });
}

TEST(Collectives, AllreduceMinMaxEverywhere) {
  Universe uni(config(4));
  uni.run([&](Process& p) {
    const double mine = static_cast<double>(p.rank());
    double lo = -1, hi = -1;
    p.allreduce(&mine, &lo, 1, Datatype::kDouble, ReduceOp::kMin, kCommWorld);
    p.allreduce(&mine, &hi, 1, Datatype::kDouble, ReduceOp::kMax, kCommWorld);
    EXPECT_DOUBLE_EQ(lo, 0.0);
    EXPECT_DOUBLE_EQ(hi, 3.0);
  });
}

TEST(Collectives, GatherAndAllgather) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    const int mine = p.rank() * 2;
    std::vector<int> all(3, -1);
    p.gather(&mine, 1, Datatype::kInt, all.data(), 0, kCommWorld);
    if (p.rank() == 0) {
      EXPECT_EQ(all, (std::vector<int>{0, 2, 4}));
    }
    std::vector<int> all2(3, -1);
    p.allgather(&mine, 1, Datatype::kInt, all2.data(), kCommWorld);
    EXPECT_EQ(all2, (std::vector<int>{0, 2, 4}));
  });
}

TEST(Collectives, ScatterSlices) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    std::vector<int> src{10, 20, 30};
    int mine = -1;
    p.scatter(p.rank() == 0 ? src.data() : nullptr, 1, Datatype::kInt, &mine, 0,
              kCommWorld);
    EXPECT_EQ(mine, (p.rank() + 1) * 10);
  });
}

TEST(Collectives, AlltoallTransposes) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    std::vector<int> send{p.rank() * 100 + 0, p.rank() * 100 + 1, p.rank() * 100 + 2};
    std::vector<int> recv(3, -1);
    p.alltoall(send.data(), 1, Datatype::kInt, recv.data(), kCommWorld);
    for (int r = 0; r < 3; ++r) EXPECT_EQ(recv[static_cast<std::size_t>(r)], r * 100 + p.rank());
  });
}

TEST(Collectives, MismatchedCollectiveThrows) {
  Universe uni(config(2, /*timeout_ms=*/500));
  auto result = uni.run([&](Process& p) {
    if (p.rank() == 0) {
      p.barrier(kCommWorld);
    } else {
      int v = 0;
      p.bcast(&v, 1, Datatype::kInt, 0, kCommWorld);
    }
  });
  EXPECT_FALSE(result.ok());
}

TEST(Comms, DupCreatesIndependentChannel) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    Comm dup = p.comm_dup(kCommWorld);
    EXPECT_NE(dup.id, kCommWorld.id);
    // A message on the duplicate does not match a receive on world.
    if (p.rank() == 0) {
      const int v = 1;
      p.send(&v, 1, Datatype::kInt, 1, 0, dup);
      const int w = 2;
      p.send(&w, 1, Datatype::kInt, 1, 0, kCommWorld);
    } else {
      int w = 0;
      p.recv(&w, 1, Datatype::kInt, 0, 0, kCommWorld);
      EXPECT_EQ(w, 2);
      int v = 0;
      p.recv(&v, 1, Datatype::kInt, 0, 0, dup);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Comms, SplitByParity) {
  Universe uni(config(4));
  uni.run([&](Process& p) {
    Comm sub = p.comm_split(kCommWorld, p.rank() % 2, p.rank());
    EXPECT_EQ(p.comm_size(sub), 2);
    // Members of one color see contiguous comm ranks ordered by key.
    EXPECT_EQ(p.comm_rank(sub), p.rank() / 2);
    // Collective restricted to the subgroup.
    int sum = 0;
    const int mine = p.rank();
    p.allreduce(&mine, &sum, 1, Datatype::kInt, ReduceOp::kSum, sub);
    EXPECT_EQ(sum, p.rank() % 2 == 0 ? 0 + 2 : 1 + 3);
  });
}

TEST(Comms, RanksTranslateBetweenWorldAndSub) {
  Universe uni(config(4));
  uni.run([&](Process& p) {
    // Put ranks in reverse order via the key argument.
    Comm sub = p.comm_split(kCommWorld, 0, -p.rank());
    EXPECT_EQ(p.comm_rank(sub), 3 - p.rank());
  });
}

TEST(Comms, InvalidCommThrows) {
  Universe uni(config(1));
  auto result = uni.run([&](Process& p) {
    int v = 0;
    p.send(&v, 1, Datatype::kInt, 0, 0, Comm{999});
  });
  EXPECT_FALSE(result.ok());
}

TEST(Hooks, BeginAndEndFireWithCallDesc) {
  struct Recorder : MpiHooks {
    std::atomic<int> begins{0};
    std::atomic<int> ends{0};
    std::atomic<int> last_tag{-1};
    void on_call_begin(const CallDesc& desc) override {
      begins.fetch_add(1);
      if (desc.type == MpiCallType::kSend) last_tag.store(desc.tag);
    }
    void on_call_end(const CallDesc&) override { ends.fetch_add(1); }
  } recorder;

  Universe uni(config(2));
  uni.hooks().add(&recorder);
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 0;
      p.send(&v, 1, Datatype::kInt, 1, 42, kCommWorld);
    } else {
      int v;
      p.recv(&v, 1, Datatype::kInt, 0, 42, kCommWorld);
    }
  });
  EXPECT_EQ(recorder.begins.load(), recorder.ends.load());
  EXPECT_GE(recorder.begins.load(), 2);
  EXPECT_EQ(recorder.last_tag.load(), 42);
}

TEST(Hooks, CallsiteLabelPropagates) {
  struct Recorder : MpiHooks {
    std::string last;
    void on_call_begin(const CallDesc& desc) override {
      if (desc.callsite) last = desc.callsite;
    }
  } recorder;
  Universe uni(config(2));
  uni.hooks().add(&recorder);
  uni.run([&](Process& p) {
    CallOpts opts;
    opts.callsite = "test.site";
    if (p.rank() == 0) {
      const int v = 0;
      p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld, opts);
    } else {
      int v;
      p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
    }
  });
  EXPECT_EQ(recorder.last, "test.site");
}

TEST(P2P, SsendCompletesOnlyWhenMatched) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 3;
      EXPECT_EQ(p.ssend(&v, 1, Datatype::kInt, 1, 0, kCommWorld), Err::kOk);
    } else {
      int v = 0;
      p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
      EXPECT_EQ(v, 3);
    }
  });
}

TEST(P2P, SsendTimesOutWithoutReceiver) {
  Universe uni(config(2, /*timeout_ms=*/50));
  auto result = uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 3;
      p.ssend(&v, 1, Datatype::kInt, 1, 0, kCommWorld);
    }
  });
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].find("Ssend"), std::string::npos);
}

TEST(MultiRequest, WaitallCompletesEverything) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        const int v = i * 10;
        p.send(&v, 1, Datatype::kInt, 1, i, kCommWorld);
      }
    } else {
      int values[4] = {-1, -1, -1, -1};
      std::vector<Request> requests;
      for (int i = 0; i < 4; ++i) {
        requests.push_back(p.irecv(&values[i], 1, Datatype::kInt, 0, i, kCommWorld));
      }
      std::vector<Status> statuses(4);
      EXPECT_EQ(p.waitall(requests, statuses.data()), Err::kOk);
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(values[i], i * 10);
        EXPECT_EQ(statuses[static_cast<std::size_t>(i)].tag, i);
      }
    }
  });
}

TEST(MultiRequest, WaitanyReturnsACompletedIndex) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      const int v = 5;
      p.send(&v, 1, Datatype::kInt, 1, 1, kCommWorld);  // only tag 1 is sent.
    } else {
      int a = -1, b = -1;
      std::vector<Request> requests{
          p.irecv(&a, 1, Datatype::kInt, 0, 0, kCommWorld),
          p.irecv(&b, 1, Datatype::kInt, 0, 1, kCommWorld),
      };
      Status st;
      EXPECT_EQ(p.waitany(requests, &st), 1);
      EXPECT_EQ(b, 5);
      EXPECT_EQ(st.tag, 1);
    }
  });
}

TEST(MultiRequest, TestallReflectsPartialCompletion) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      p.barrier(kCommWorld);
      const int v = 1;
      p.send(&v, 1, Datatype::kInt, 1, 0, kCommWorld);
      p.send(&v, 1, Datatype::kInt, 1, 1, kCommWorld);
      p.barrier(kCommWorld);
    } else {
      int a, b;
      std::vector<Request> requests{
          p.irecv(&a, 1, Datatype::kInt, 0, 0, kCommWorld),
          p.irecv(&b, 1, Datatype::kInt, 0, 1, kCommWorld),
      };
      EXPECT_FALSE(p.testall(requests));  // nothing sent yet.
      p.barrier(kCommWorld);
      p.barrier(kCommWorld);
      while (!p.testall(requests)) {}
    }
  });
}

TEST(Persistent, RecvInitStartCycle) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        p.send(&i, 1, Datatype::kInt, 1, 0, kCommWorld);
        p.barrier(kCommWorld);
      }
    } else {
      int v = -1;
      Request persistent = p.recv_init(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
      for (int i = 0; i < 3; ++i) {
        p.start(persistent);
        EXPECT_EQ(p.wait(persistent), Err::kOk);
        EXPECT_EQ(v, i);
        p.barrier(kCommWorld);
      }
    }
  });
}

TEST(Persistent, SendInitStartCycle) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    int payload = 0;
    if (p.rank() == 0) {
      Request persistent = p.send_init(&payload, 1, Datatype::kInt, 1, 0,
                                       kCommWorld);
      for (int i = 0; i < 3; ++i) {
        payload = 100 + i;
        p.start(persistent);
        p.wait(persistent);
        p.barrier(kCommWorld);
      }
    } else {
      for (int i = 0; i < 3; ++i) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
        EXPECT_EQ(v, 100 + i);
        p.barrier(kCommWorld);
      }
    }
  });
}

TEST(Persistent, StartOnNonPersistentThrows) {
  Universe uni(config(2));
  auto result = uni.run([&](Process& p) {
    if (p.rank() != 0) return;
    int v;
    Request plain = p.irecv(&v, 1, Datatype::kInt, 1, 0, kCommWorld);
    p.start(plain);
  });
  EXPECT_FALSE(result.ok());
}

TEST(Collectives, ScanInclusivePrefix) {
  Universe uni(config(4));
  uni.run([&](Process& p) {
    const int mine = p.rank() + 1;
    int prefix = -1;
    p.scan(&mine, &prefix, 1, Datatype::kInt, ReduceOp::kSum, kCommWorld);
    // rank r gets 1 + 2 + ... + (r+1).
    EXPECT_EQ(prefix, (p.rank() + 1) * (p.rank() + 2) / 2);
  });
}

TEST(Collectives, ReduceScatterBlock) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    // Every rank contributes the vector [1, 2, 3]; the sum [3, 6, 9] is
    // scattered one element per rank.
    const int contribution[3] = {1, 2, 3};
    int mine = -1;
    p.reduce_scatter_block(contribution, &mine, 1, Datatype::kInt,
                           ReduceOp::kSum, kCommWorld);
    EXPECT_EQ(mine, (p.rank() + 1) * 3);
  });
}

TEST(Collectives, ScanSingleRank) {
  Universe uni(config(1));
  uni.run([&](Process& p) {
    const double x = 2.5;
    double y = 0;
    p.scan(&x, &y, 1, Datatype::kDouble, ReduceOp::kSum, kCommWorld);
    EXPECT_DOUBLE_EQ(y, 2.5);
  });
}

TEST(Universe, RunIsSingleShot) {
  Universe uni(config(2));
  uni.run([](Process&) {});
  EXPECT_THROW(uni.run([](Process&) {}), UsageError);
}

TEST(Types, DatatypeSizes) {
  EXPECT_EQ(datatype_size(Datatype::kInt), sizeof(int));
  EXPECT_EQ(datatype_size(Datatype::kDouble), sizeof(double));
  EXPECT_EQ(datatype_size(Datatype::kByte), 1u);
}

TEST(Types, Names) {
  EXPECT_STREQ(thread_level_name(ThreadLevel::kFunneled), "MPI_THREAD_FUNNELED");
  EXPECT_STREQ(reduce_op_name(ReduceOp::kSum), "MPI_SUM");
  EXPECT_STREQ(datatype_name(Datatype::kDouble), "MPI_DOUBLE");
}


// --- one user call, as the hooks see it ---------------------------------------

/// Records the (type, callsite) of every hook begin on rank 0 while armed.
struct HookTap : MpiHooks {
  std::atomic<bool> armed{false};
  std::mutex mu;
  std::vector<std::pair<MpiCallType, std::string>> seen;

  void on_call_begin(const CallDesc& desc) override {
    if (desc.rank != 0 || !armed.load()) return;
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(desc.type, desc.callsite ? desc.callsite : "<none>");
  }
  /// Runs `fn` with the tap armed when `p` is rank 0.
  template <typename Fn>
  auto during(const Process& p, Fn&& fn) {
    if (p.rank() == 0) armed.store(true);
    auto result = fn();
    if (p.rank() == 0) armed.store(false);
    return result;
  }
};

/// A Process entry point called once by rank 0 with callsite "tap.site",
/// and the table rows of the routine calls the hooks must see for it.
struct EntryPoint {
  const char* name;
  std::vector<const char*> reported;
  std::function<void(Process&, HookTap&)> run;
};

std::vector<EntryPoint> entry_points() {
  const CallOpts site{"tap.site"};
  const Datatype dt = Datatype::kInt;
  const Comm world = kCommWorld;
  // The partner (rank 1) of a point-to-point entry point.
  const auto recv_one = [](Process& p, int tag) {
    int v = 0;
    p.recv(&v, 1, Datatype::kInt, 0, tag, kCommWorld);
  };
  const auto send_one = [](Process& p, int tag) {
    const int v = 7;
    p.send(&v, 1, Datatype::kInt, 0, tag, kCommWorld);
  };
  return {
      {"MPI_Init", {"MPI_Init"},
       [=](Process& p, HookTap& tap) {
         tap.during(p, [&] { p.init(site); return 0; });
       }},
      {"MPI_Init_thread", {"MPI_Init_thread"},
       [=](Process& p, HookTap& tap) {
         tap.during(p, [&] { return p.init_thread(ThreadLevel::kMultiple, site); });
       }},
      {"MPI_Finalize", {"MPI_Finalize"},
       [=](Process& p, HookTap& tap) {
         tap.during(p, [&] { p.finalize(site); return 0; });
       }},
      {"MPI_Send", {"MPI_Send"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return recv_one(p, 1);
         const int v = 1;
         tap.during(p, [&] { return p.send(&v, 1, dt, 1, 1, world, site); });
       }},
      {"MPI_Ssend", {"MPI_Ssend"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return recv_one(p, 1);
         const int v = 1;
         tap.during(p, [&] { return p.ssend(&v, 1, dt, 1, 1, world, site); });
       }},
      {"MPI_Recv", {"MPI_Recv"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1);
         int v = 0;
         tap.during(p, [&] { return p.recv(&v, 1, dt, 1, 1, world, nullptr, site); });
       }},
      {"MPI_Isend", {"MPI_Isend"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return recv_one(p, 1);
         const int v = 1;
         Request r = tap.during(
             p, [&] { return p.isend(&v, 1, dt, 1, 1, world, site); });
         p.wait(r);
       }},
      {"MPI_Irecv", {"MPI_Irecv"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1);
         int v = 0;
         Request r = tap.during(
             p, [&] { return p.irecv(&v, 1, dt, 1, 1, world, site); });
         p.wait(r);
       }},
      {"MPI_Wait", {"MPI_Wait"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1);
         int v = 0;
         Request r = p.irecv(&v, 1, dt, 1, 1, world);
         tap.during(p, [&] { return p.wait(r, nullptr, site); });
       }},
      {"MPI_Test", {"MPI_Test"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return recv_one(p, 1);
         const int v = 1;
         Request r = p.isend(&v, 1, dt, 1, 1, world);
         tap.during(p, [&] { return p.test(r, nullptr, site); });
       }},
      {"MPI_Probe", {"MPI_Probe"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1);
         Status st;
         int v = 0;
         tap.during(p, [&] { p.probe(1, 1, world, &st, site); return 0; });
         p.recv(&v, 1, dt, 1, 1, world);
       }},
      {"MPI_Iprobe", {"MPI_Iprobe"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return;
         Status st;
         tap.during(p, [&] { return p.iprobe(1, 1, world, &st, site); });
       }},
      {"MPI_Sendrecv", {"MPI_Irecv", "MPI_Send", "MPI_Wait"},
       [=](Process& p, HookTap& tap) {
         const int mine = p.rank();
         int theirs = -1;
         const int peer = 1 - p.rank();
         tap.during(p, [&] {
           return p.sendrecv(&mine, 1, dt, peer, 3, &theirs, 1, dt, peer, 3,
                             world, nullptr, site);
         });
       }},
      {"MPI_Waitall", {"MPI_Waitall", "MPI_Waitall"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1), send_one(p, 2);
         int a = 0, b = 0;
         std::vector<Request> rs{p.irecv(&a, 1, dt, 1, 1, world),
                                 p.irecv(&b, 1, dt, 1, 2, world)};
         tap.during(p, [&] { return p.waitall(rs, nullptr, site); });
       }},
      {"MPI_Waitany", {"MPI_Waitany", "MPI_Waitany"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1), send_one(p, 2);
         int a = 0, b = 0;
         std::vector<Request> rs{p.irecv(&a, 1, dt, 1, 1, world),
                                 p.irecv(&b, 1, dt, 1, 2, world)};
         const int done = tap.during(p, [&] { return p.waitany(rs, nullptr, site); });
         p.wait(rs[static_cast<std::size_t>(1 - done)]);
       }},
      {"MPI_Testall", {"MPI_Testall", "MPI_Testall"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return recv_one(p, 1), recv_one(p, 2);
         const int v = 1;
         std::vector<Request> rs{p.isend(&v, 1, dt, 1, 1, world),
                                 p.isend(&v, 1, dt, 1, 2, world)};
         tap.during(p, [&] { return p.testall(rs, site); });
       }},
      // Persistent requests are logged as the nonblocking call they stand
      // for, at creation and at every MPI_Start.
      {"MPI_Send_init", {"MPI_Isend"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return recv_one(p, 1);
         const int v = 1;
         Request r = tap.during(
             p, [&] { return p.send_init(&v, 1, dt, 1, 1, world, site); });
         p.start(r);
         p.wait(r);
       }},
      {"MPI_Recv_init", {"MPI_Irecv"},
       [=](Process& p, HookTap& tap) {
         if (p.rank() == 1) return send_one(p, 1);
         int v = 0;
         Request r = tap.during(
             p, [&] { return p.recv_init(&v, 1, dt, 1, 1, world, site); });
         p.start(r);
         p.wait(r);
       }},
      {"MPI_Start", {"MPI_Isend", "MPI_Irecv"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int got = 0;
         if (p.rank() == 1) return recv_one(p, 1), send_one(p, 2);
         Request s = p.send_init(&v, 1, dt, 1, 1, world);
         Request r = p.recv_init(&got, 1, dt, 1, 2, world);
         tap.during(p, [&] { p.start(s, site); p.start(r, site); return 0; });
         p.wait(s);
         p.wait(r);
       }},
      {"MPI_Barrier", {"MPI_Barrier"},
       [=](Process& p, HookTap& tap) {
         tap.during(p, [&] { p.barrier(world, site); return 0; });
       }},
      {"MPI_Bcast", {"MPI_Bcast"},
       [=](Process& p, HookTap& tap) {
         int v = p.rank();
         tap.during(p, [&] { p.bcast(&v, 1, dt, 0, world, site); return 0; });
       }},
      {"MPI_Reduce", {"MPI_Reduce"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int out = 0;
         tap.during(p, [&] {
           p.reduce(&v, &out, 1, dt, ReduceOp::kSum, 0, world, site);
           return 0;
         });
       }},
      {"MPI_Allreduce", {"MPI_Allreduce"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int out = 0;
         tap.during(p, [&] {
           p.allreduce(&v, &out, 1, dt, ReduceOp::kSum, world, site);
           return 0;
         });
       }},
      {"MPI_Gather", {"MPI_Gather"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int out[2] = {0, 0};
         tap.during(p, [&] { p.gather(&v, 1, dt, out, 0, world, site); return 0; });
       }},
      {"MPI_Allgather", {"MPI_Allgather"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int out[2] = {0, 0};
         tap.during(p, [&] { p.allgather(&v, 1, dt, out, world, site); return 0; });
       }},
      {"MPI_Gatherv", {"MPI_Gatherv"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int out[2] = {0, 0};
         const int counts[2] = {1, 1};
         const int displs[2] = {0, 1};
         tap.during(p, [&] {
           p.gatherv(&v, 1, dt, out, counts, displs, 0, world, site);
           return 0;
         });
       }},
      {"MPI_Scatter", {"MPI_Scatter"},
       [=](Process& p, HookTap& tap) {
         const int in[2] = {1, 2};
         int v = 0;
         tap.during(p, [&] { p.scatter(in, 1, dt, &v, 0, world, site); return 0; });
       }},
      {"MPI_Scatterv", {"MPI_Scatterv"},
       [=](Process& p, HookTap& tap) {
         const int in[2] = {1, 2};
         const int counts[2] = {1, 1};
         const int displs[2] = {0, 1};
         int v = 0;
         tap.during(p, [&] {
           p.scatterv(in, counts, displs, dt, &v, 1, 0, world, site);
           return 0;
         });
       }},
      {"MPI_Alltoall", {"MPI_Alltoall"},
       [=](Process& p, HookTap& tap) {
         const int in[2] = {1, 2};
         int out[2] = {0, 0};
         tap.during(p, [&] { p.alltoall(in, 1, dt, out, world, site); return 0; });
       }},
      {"MPI_Scan", {"MPI_Scan"},
       [=](Process& p, HookTap& tap) {
         const int v = 1;
         int out = 0;
         tap.during(p, [&] {
           p.scan(&v, &out, 1, dt, ReduceOp::kSum, world, site);
           return 0;
         });
       }},
      {"MPI_Reduce_scatter_block", {"MPI_Reduce_scatter_block"},
       [=](Process& p, HookTap& tap) {
         const int in[2] = {1, 2};
         int out = 0;
         tap.during(p, [&] {
           p.reduce_scatter_block(in, &out, 1, dt, ReduceOp::kSum, world, site);
           return 0;
         });
       }},
      {"MPI_Comm_dup", {"MPI_Comm_dup"},
       [=](Process& p, HookTap& tap) {
         tap.during(p, [&] { return p.comm_dup(world, site); });
       }},
      {"MPI_Comm_split", {"MPI_Comm_split"},
       [=](Process& p, HookTap& tap) {
         tap.during(p, [&] { return p.comm_split(world, 0, p.rank(), site); });
       }},
  };
}

TEST(Hooks, EveryEntryPointReportsItsTableRows) {
  for (const EntryPoint& entry : entry_points()) {
    SCOPED_TRACE(entry.name);
    std::vector<std::pair<MpiCallType, std::string>> expected;
    for (const char* routine : entry.reported) {
      const trace::MpiRoutine* row = trace::find_routine(routine);
      ASSERT_NE(row, nullptr) << routine;
      expected.emplace_back(row->type, "tap.site");
    }
    HookTap tap;
    Universe uni(config(2));
    uni.hooks().add(&tap);
    const RunResult result =
        uni.run([&](Process& p) { entry.run(p, tap); });
    ASSERT_TRUE(result.ok()) << result.errors.front();
    EXPECT_EQ(tap.seen, expected);
  }
}

TEST(Hooks, CommDupAndSplitAreCollectivesOverTheParent) {
  for (MpiCallType type : {MpiCallType::kCommDup, MpiCallType::kCommSplit}) {
    const trace::MpiRoutine& row = trace::routine_of(type);
    EXPECT_TRUE(row.collective()) << row.name;
    EXPECT_EQ(explore_kind_for(row), explore::HookKind::kCollectiveArrive);
  }
}

}  // namespace
}  // namespace home::simmpi
