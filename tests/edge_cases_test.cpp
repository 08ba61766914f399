// Second-round edge cases across the substrates: matching precedence,
// reduction operators, communicator corner cases, worksharing corner cases,
// parser additions (do-while/switch), and the semantic-preservation
// property that instrumentation must not perturb the computation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "src/apps/app.hpp"
#include "src/apps/toolrun.hpp"
#include "src/baselines/itc.hpp"
#include "src/baselines/marmot.hpp"
#include "src/home/session.hpp"
#include "src/homp/runtime.hpp"
#include "src/homp/worksharing.hpp"
#include "src/sast/analysis.hpp"
#include "src/simmpi/universe.hpp"
#include "src/util/rng.hpp"

namespace home {
namespace {

using namespace simmpi;

UniverseConfig config(int nranks, int timeout_ms = 5000) {
  UniverseConfig cfg;
  cfg.nranks = nranks;
  cfg.block_timeout_ms = timeout_ms;
  return cfg;
}

// ------------------------------------------------------- matching precedence

TEST(Matching, FirstPostedReceiveWins) {
  // Two posted receives both match an incoming message; MPI requires the
  // first-posted one to receive it.
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 0) {
      int a = -1, b = -1;
      Request first = p.irecv(&a, 1, Datatype::kInt, 1, 5, kCommWorld);
      Request second = p.irecv(&b, 1, Datatype::kInt, kAnySource, kAnyTag,
                               kCommWorld);
      p.barrier(kCommWorld);
      p.wait(first);
      EXPECT_EQ(a, 99);
      EXPECT_FALSE(second.state()->done());
      // Drain the second with another message.
      p.barrier(kCommWorld);
      p.wait(second);
      EXPECT_EQ(b, 100);
    } else {
      p.barrier(kCommWorld);
      int v = 99;
      p.send(&v, 1, Datatype::kInt, 0, 5, kCommWorld);
      p.barrier(kCommWorld);
      v = 100;
      p.send(&v, 1, Datatype::kInt, 0, 6, kCommWorld);
    }
  });
}

TEST(Matching, UnexpectedMessagesMatchInArrivalOrder) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    if (p.rank() == 1) {
      for (int i = 0; i < 3; ++i) p.send(&i, 1, Datatype::kInt, 0, 7, kCommWorld);
      p.barrier(kCommWorld);
    } else {
      p.barrier(kCommWorld);  // all three are now unexpected.
      for (int expect = 0; expect < 3; ++expect) {
        int v = -1;
        p.recv(&v, 1, Datatype::kInt, kAnySource, 7, kCommWorld);
        EXPECT_EQ(v, expect);
      }
    }
  });
}

TEST(Matching, SelfSendCompletes) {
  Universe uni(config(1));
  auto result = uni.run([&](Process& p) {
    int out = 0;
    Request r = p.irecv(&out, 1, Datatype::kInt, 0, 0, kCommWorld);
    const int v = 41;
    p.send(&v, 1, Datatype::kInt, 0, 0, kCommWorld);
    p.wait(r);
    EXPECT_EQ(out, 41);
  });
  EXPECT_TRUE(result.ok());
}

// ------------------------------------------------------------ reduction ops

TEST(Reduce, ProdAndMinOperators) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    const long mine = p.rank() + 2;  // 2, 3, 4.
    long prod = 0;
    p.allreduce(&mine, &prod, 1, Datatype::kLong, ReduceOp::kProd, kCommWorld);
    EXPECT_EQ(prod, 24);
    const float fmine = static_cast<float>(10 - p.rank());
    float fmin = 0;
    p.allreduce(&fmine, &fmin, 1, Datatype::kFloat, ReduceOp::kMin, kCommWorld);
    EXPECT_FLOAT_EQ(fmin, 8.0f);
  });
}

TEST(Reduce, VectorReduction) {
  Universe uni(config(2));
  uni.run([&](Process& p) {
    const int mine[3] = {p.rank(), 10 * p.rank(), 1};
    int sum[3] = {0, 0, 0};
    p.allreduce(mine, sum, 3, Datatype::kInt, ReduceOp::kSum, kCommWorld);
    EXPECT_EQ(sum[0], 1);
    EXPECT_EQ(sum[1], 10);
    EXPECT_EQ(sum[2], 2);
  });
}

TEST(Reduce, UntypedDataRejected) {
  Universe uni(config(2));
  auto result = uni.run([&](Process& p) {
    char c = 'x', out = 0;
    p.allreduce(&c, &out, 1, Datatype::kChar, ReduceOp::kSum, kCommWorld);
  });
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------ communicator corners

TEST(Comms, SplitSingletonColors) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    // Every rank its own color: three singleton communicators.
    Comm mine = p.comm_split(kCommWorld, p.rank(), 0);
    EXPECT_EQ(p.comm_size(mine), 1);
    EXPECT_EQ(p.comm_rank(mine), 0);
    int v = p.rank(), sum = -1;
    p.allreduce(&v, &sum, 1, Datatype::kInt, ReduceOp::kSum, mine);
    EXPECT_EQ(sum, p.rank());
  });
}

TEST(Comms, NestedSplitOfSplit) {
  Universe uni(config(4));
  uni.run([&](Process& p) {
    Comm half = p.comm_split(kCommWorld, p.rank() / 2, p.rank());
    ASSERT_EQ(p.comm_size(half), 2);
    Comm solo = p.comm_split(half, p.comm_rank(half), 0);
    EXPECT_EQ(p.comm_size(solo), 1);
  });
}

// -------------------------------------------------------- worksharing corners

TEST(ForRange, DynamicChunkLargerThanRange) {
  std::atomic<int> count{0};
  homp::ForOpts opts;
  opts.schedule = homp::Schedule::kDynamic;
  opts.chunk = 100;
  homp::parallel(3, [&] {
    homp::for_range(0, 5, [&](int) { count.fetch_add(1); }, opts);
  });
  EXPECT_EQ(count.load(), 5);
}

TEST(ForRange, NowaitSkipsBarrier) {
  // With nowait, a fast thread may pass the construct while others still
  // iterate; the explicit barrier afterwards re-syncs. Just assert full
  // coverage and termination.
  std::atomic<int> count{0};
  homp::ForOpts opts;
  opts.nowait = true;
  homp::parallel(4, [&] {
    homp::for_range(0, 64, [&](int) { count.fetch_add(1); }, opts);
    homp::barrier();
    EXPECT_EQ(count.load(), 64);
  });
}

TEST(Sections, NowaitVariant) {
  std::atomic<int> ran{0};
  homp::parallel(2, [&] {
    homp::sections({[&] { ran.fetch_add(1); }, [&] { ran.fetch_add(1); }},
                   /*nowait=*/true);
    homp::barrier();
  });
  EXPECT_EQ(ran.load(), 2);
}

// ----------------------------------------------------------------- reductions

TEST(Reduction, ForRangeSumMatchesSerial) {
  double expected = 0;
  for (int i = 0; i < 100; ++i) expected += i * 0.5;
  homp::parallel(4, [&] {
    const double sum =
        homp::for_range_sum(0, 100, [](int i) { return i * 0.5; });
    EXPECT_DOUBLE_EQ(sum, expected);  // integer-valued halves: exact.
  });
}

TEST(Reduction, EveryThreadSeesTheCombinedValue) {
  std::atomic<int> agree{0};
  homp::parallel(3, [&] {
    const double sum = homp::for_range_sum(0, 10, [](int) { return 1.0; });
    if (sum == 10.0) agree.fetch_add(1);
  });
  EXPECT_EQ(agree.load(), 3);
}

TEST(Reduction, MaxViaCustomCombine) {
  homp::parallel(4, [&] {
    const double maxval = homp::for_range_reduce(
        0, 50, -1e300,
        [](int i, double acc) { return std::max(acc, static_cast<double>(i % 13)); },
        [](double a, double b) { return std::max(a, b); });
    EXPECT_DOUBLE_EQ(maxval, 12.0);
  });
}

TEST(Reduction, SerialOutsideParallel) {
  const double sum = homp::for_range_sum(0, 5, [](int i) { return i; });
  EXPECT_DOUBLE_EQ(sum, 10.0);
}

TEST(Reduction, RepeatedConstructsIndependent) {
  homp::parallel(2, [&] {
    for (int round = 0; round < 3; ++round) {
      const double sum = homp::for_range_sum(0, 4, [](int) { return 1.0; });
      EXPECT_DOUBLE_EQ(sum, 4.0);
    }
  });
}

// ----------------------------------------------------------- gatherv/scatterv

TEST(Collectives, GathervVariableCounts) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    // Rank r contributes r+1 values: [r, r, ...].
    std::vector<int> mine(static_cast<std::size_t>(p.rank() + 1), p.rank());
    std::vector<int> out(6, -1);
    const int counts[3] = {1, 2, 3};
    const int displs[3] = {0, 1, 3};
    p.gatherv(mine.data(), p.rank() + 1, Datatype::kInt, out.data(), counts,
              displs, 0, kCommWorld);
    if (p.rank() == 0) {
      EXPECT_EQ(out, (std::vector<int>{0, 1, 1, 2, 2, 2}));
    }
  });
}

TEST(Collectives, ScattervVariableCounts) {
  Universe uni(config(3));
  uni.run([&](Process& p) {
    std::vector<int> src{10, 20, 21, 30, 31, 32};
    const int counts[3] = {1, 2, 3};
    const int displs[3] = {0, 1, 3};
    std::vector<int> mine(3, -1);
    p.scatterv(p.rank() == 0 ? src.data() : nullptr,
               p.rank() == 0 ? counts : nullptr,
               p.rank() == 0 ? displs : nullptr, Datatype::kInt, mine.data(), 3,
               0, kCommWorld);
    for (int i = 0; i <= p.rank(); ++i) {
      EXPECT_EQ(mine[static_cast<std::size_t>(i)], (p.rank() + 1) * 10 + i);
    }
  });
}

TEST(Collectives, ScattervRejectsSmallBuffer) {
  Universe uni(config(2));
  auto result = uni.run([&](Process& p) {
    const int src[2] = {1, 2};
    const int counts[2] = {1, 1};
    const int displs[2] = {0, 1};
    int mine = 0;
    p.scatterv(p.rank() == 0 ? src : nullptr, p.rank() == 0 ? counts : nullptr,
               p.rank() == 0 ? displs : nullptr, Datatype::kInt, &mine,
               /*recvcount=*/0, 0, kCommWorld);
  });
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------------------- parser

TEST(Parser, DoWhileBodyIsAnalyzed) {
  const auto analysis = sast::analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    do {
      MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
    } while (a < 10);
  }
}
)");
  ASSERT_EQ(analysis.calls.size(), 1u);
  EXPECT_TRUE(analysis.calls[0].in_parallel);
}

TEST(Parser, SwitchCasesAreAnalyzed) {
  const auto analysis = sast::analyze_source(R"(
void f() {
  switch (mode) {
    case 0:
      MPI_Barrier(MPI_COMM_WORLD);
      break;
    default:
      MPI_Bcast(&a, 1, MPI_INT, 0, MPI_COMM_WORLD);
      break;
  }
}
)");
  EXPECT_EQ(analysis.calls.size(), 2u);
  EXPECT_FALSE(analysis.calls[0].in_parallel);
}

TEST(ParserFuzz, GarbageNeverCrashes) {
  util::Rng rng(0xF00D);
  const char charset[] =
      "abcdefg MPI_Send(){};#pragma omp parallel for<>&|*/+-\"'0123456789\n\t";
  for (int trial = 0; trial < 50; ++trial) {
    std::string source;
    const int len = 20 + static_cast<int>(rng.next_below(400));
    for (int i = 0; i < len; ++i) {
      source.push_back(charset[rng.next_below(sizeof(charset) - 1)]);
    }
    // Must not crash or hang — errors are fine.
    const auto analysis = sast::analyze_source(source);
    (void)analysis;
  }
}

// --------------------------------------------- instrumentation is transparent

TEST(SemanticPreservation, ResidualIdenticalUnderEveryTool) {
  // The same app config must compute the *same* residual under Base, HOME,
  // Marmot and ITC — checkers observe, they must not perturb.
  apps::AppConfig cfg = apps::clean_config(apps::AppKind::kLU, 2);
  cfg.iterations = 3;

  auto run_and_get_residual = [&](apps::Tool tool) {
    std::atomic<double> residual{0.0};
    simmpi::UniverseConfig ucfg;
    ucfg.nranks = cfg.nranks;

    Session home_session;
    baselines::MarmotSession marmot_session;
    baselines::ItcSession itc_session;
    if (tool == apps::Tool::kHome) home_session.configure(ucfg);
    if (tool == apps::Tool::kMarmot) marmot_session.configure(ucfg);
    if (tool == apps::Tool::kItc) itc_session.configure(ucfg);

    Universe uni(ucfg);
    if (tool == apps::Tool::kHome) home_session.attach(uni);
    if (tool == apps::Tool::kMarmot) marmot_session.attach(uni);
    if (tool == apps::Tool::kItc) itc_session.attach(uni);

    homp::set_default_threads(cfg.nthreads);
    auto run = uni.run([&](Process& p) {
      residual.store(apps::run_app_rank(cfg, p));
    });
    EXPECT_TRUE(run.ok());

    if (tool == apps::Tool::kHome) home_session.detach(uni);
    if (tool == apps::Tool::kMarmot) marmot_session.detach(uni);
    if (tool == apps::Tool::kItc) itc_session.detach(uni);
    return residual.load();
  };

  const double expected = run_and_get_residual(apps::Tool::kBase);
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(run_and_get_residual(apps::Tool::kHome), expected);
  EXPECT_DOUBLE_EQ(run_and_get_residual(apps::Tool::kMarmot), expected);
  EXPECT_DOUBLE_EQ(run_and_get_residual(apps::Tool::kItc), expected);
}

TEST(SemanticPreservation, ResidualIdenticalAcrossRepeatedRuns) {
  apps::AppConfig cfg = apps::clean_config(apps::AppKind::kSP, 2);
  cfg.iterations = 2;
  double first = NAN;
  for (int i = 0; i < 3; ++i) {
    std::atomic<double> residual{0.0};
    simmpi::UniverseConfig ucfg;
    ucfg.nranks = cfg.nranks;
    Universe uni(ucfg);
    homp::set_default_threads(cfg.nthreads);
    uni.run([&](Process& p) { residual.store(apps::run_app_rank(cfg, p)); });
    if (std::isnan(first)) {
      first = residual.load();
    } else {
      EXPECT_DOUBLE_EQ(residual.load(), first);
    }
  }
}

}  // namespace
}  // namespace home
