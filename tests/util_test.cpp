#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/util/flags.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/strings.hpp"
#include "src/util/thread_pool.hpp"

namespace home::util {
namespace {

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--nranks=8", "--name=lu"};
  Flags f = Flags::parse(3, argv);
  EXPECT_EQ(f.get_int("nranks", 0), 8);
  EXPECT_EQ(f.get("name", ""), "lu");
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--nranks", "16", "pos"};
  Flags f = Flags::parse(4, argv);
  EXPECT_EQ(f.get_int("nranks", 0), 16);
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
}

TEST(Flags, BooleanForms) {
  const char* argv[] = {"prog", "--verbose", "--no-color"};
  Flags f = Flags::parse(3, argv);
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("color", true));
}

TEST(Flags, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Flags f = Flags::parse(1, argv);
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(f.has("n"));
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.next_int(3, 9);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 9);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Strings, SplitJoinRoundTrip) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(to_lower("MPI_Send"), "mpi_send");
}

TEST(Strings, PrefixSuffixContains) {
  EXPECT_TRUE(starts_with("MPI_Recv", "MPI_"));
  EXPECT_TRUE(ends_with("halo.send", ".send"));
  EXPECT_TRUE(contains("omp parallel for", "parallel"));
  EXPECT_FALSE(starts_with("x", "xyz"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("MPI_Recv(MPI_Recv)", "MPI_Recv", "HMPI_Recv"),
            "HMPI_Recv(HMPI_Recv)");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Log, ParseLogLevelNamesDigitsAndRejects) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("Trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("4"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("bogus"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("9"), std::nullopt);
}

TEST(Log, FormatLineCarriesTimestampLevelAndThreadName) {
  set_current_thread_name("util-test");
  const std::string line = format_log_line(LogLevel::kWarn, "queue full");
  EXPECT_NE(line.find("[WARN]"), std::string::npos);
  EXPECT_NE(line.find("[util-test]"), std::string::npos);
  EXPECT_NE(line.find("queue full"), std::string::npos);
  // Uptime timestamp: the line starts with "[  <seconds>.xxx]".
  EXPECT_EQ(line.front(), '[');
  EXPECT_NE(line.find('.'), std::string::npos);
}

TEST(Log, ThreadNameVersionBumpsOnRename) {
  const std::uint64_t before = current_thread_name_version();
  set_current_thread_name("renamed");
  EXPECT_GT(current_thread_name_version(), before);
  EXPECT_EQ(current_thread_name(), "renamed");
}

// ------------------------------------------------------------ thread pool

constexpr auto kPoolWait = std::chrono::seconds(10);

TEST(ThreadPool, AJobBlockedOnTheNextJobDoesNotHoldItUp) {
  // The pool starts a thread rather than queue: a job that waits for the
  // job started after it must see that job run.
  std::promise<void> released;
  std::future<void> release = released.get_future();
  bool freed = false;
  PooledThread waiter(
      [&] { freed = release.wait_for(kPoolWait) == std::future_status::ready; });
  PooledThread releaser([&] { released.set_value(); });
  releaser.join();
  waiter.join();
  EXPECT_TRUE(freed);
}

TEST(ThreadPool, JoinWaitsForARunningJobAndReturnsForAFinishedOne) {
  // Join before the job finished: join() returns only after it did.
  std::promise<void> go;
  std::shared_future<void> started = go.get_future().share();
  std::atomic<bool> finished{false};
  PooledThread running([&] {
    started.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished = true;
  });
  EXPECT_TRUE(running.joinable());
  go.set_value();
  running.join();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(running.joinable());

  // Join after the job finished: join() returns, and the job's captures are
  // gone by then, as they are once a std::thread is joined.
  auto token = std::make_shared<int>(7);
  std::promise<void> ran;
  std::future<void> done = ran.get_future();
  PooledThread quick([token, &ran] { ran.set_value(); });
  ASSERT_EQ(done.wait_for(kPoolWait), std::future_status::ready);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  quick.join();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ThreadPool, NeverGrowsBeyondThePeakOfJobsInFlight) {
  constexpr int kInFlight = 5;
  const std::size_t before = pooled_thread_count();
  auto round = [] {
    // Every job waits until all are running, so kInFlight run at once.
    std::latch all_running(kInFlight);
    std::vector<PooledThread> jobs;
    for (int i = 0; i < kInFlight; ++i) {
      jobs.emplace_back([&] { all_running.arrive_and_wait(); });
    }
    for (PooledThread& job : jobs) job.join();
  };
  round();
  const std::size_t peak = pooled_thread_count();
  EXPECT_GE(peak, static_cast<std::size_t>(kInFlight));
  EXPECT_LE(peak, before + kInFlight);
  for (int r = 0; r < 20; ++r) round();
  for (int r = 0; r < 50; ++r) {
    PooledThread one([] {});
    one.join();
  }
  EXPECT_EQ(pooled_thread_count(), peak);
}

TEST(ThreadPool, AJobStartsAndJoinsNestedJobs) {
  std::atomic<int> leaves{0};
  std::mutex mu;
  std::set<std::thread::id> threads;
  auto note = [&] {
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  };
  PooledThread outer([&] {
    note();
    std::latch children_running(3);
    std::vector<PooledThread> inner;
    for (int i = 0; i < 3; ++i) {
      inner.emplace_back([&] {
        note();
        children_running.arrive_and_wait();
        PooledThread leaf([&] { ++leaves; });
        leaf.join();
      });
    }
    for (PooledThread& t : inner) t.join();
  });
  outer.join();
  EXPECT_EQ(leaves.load(), 3);
  // The outer job and its three children ran at once, on four threads.
  EXPECT_EQ(threads.size(), 4u);
}

TEST(ThreadPool, EachJobStartsWithItsOwnIdAndNoThreadName) {
  EXPECT_EQ(current_job_id(), 0u);  // this thread is not pooled.
  struct Seen {
    std::thread::id thread;
    std::uint64_t job = 0;
    std::string name;
  };
  auto observe = [](Seen* seen) {
    return PooledThread([seen] {
      seen->thread = std::this_thread::get_id();
      seen->job = current_job_id();
      seen->name = current_thread_name();
      set_current_thread_name("rank1.main");
    });
  };
  Seen first, second;
  PooledThread a = observe(&first);
  a.join();
  PooledThread b = observe(&second);
  b.join();
  // Back to back, the second job reuses the first one's parked thread.
  EXPECT_EQ(second.thread, first.thread);
  EXPECT_NE(first.job, 0u);
  EXPECT_NE(second.job, first.job);
  EXPECT_EQ(second.name, "");
}

TEST(ThreadPool, RunJobsRethrowsAPooledJobsExceptionOnTheCaller) {
  constexpr std::size_t kJobs = 4;
  struct Round {
    std::vector<std::thread::id> threads = std::vector<std::thread::id>(kJobs);
    std::vector<int> finished = std::vector<int>(kJobs, 0);
  };
  // Every job waits until all four run; then the ones in `throwers` throw
  // and the others finish a little later.
  const auto round = [](Round* r, std::set<std::size_t> throwers) {
    std::latch all_running(kJobs);
    run_jobs(kJobs, [&](std::size_t k) {
      r->threads[k] = std::this_thread::get_id();
      all_running.arrive_and_wait();
      if (throwers.count(k) != 0) {
        throw std::runtime_error("job " + std::to_string(k));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      r->finished[k] = 1;
    });
  };

  Round first;
  try {
    round(&first, {2});
    ADD_FAILURE() << "the exception of job 2 was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 2");
  }
  // Job 0 ran on the caller, and every other job ran to its end.
  EXPECT_EQ(first.threads[0], std::this_thread::get_id());
  EXPECT_EQ(first.finished, (std::vector<int>{1, 1, 0, 1}));

  // The pool runs new jobs on the same threads, and of two failures the
  // lower-numbered job's exception reaches the caller.
  const std::size_t threads = pooled_thread_count();
  Round second;
  try {
    round(&second, {3, 1});
    ADD_FAILURE() << "the exceptions of jobs 1 and 3 were lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 1");
  }
  EXPECT_EQ(second.finished, (std::vector<int>{1, 0, 1, 0}));
  EXPECT_EQ(std::set<std::thread::id>(second.threads.begin() + 1,
                                      second.threads.end()),
            std::set<std::thread::id>(first.threads.begin() + 1,
                                      first.threads.end()));
  Round third;
  round(&third, {});
  EXPECT_EQ(third.finished, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(pooled_thread_count(), threads);

  // A throw on the calling thread is rethrown after the pooled jobs end.
  Round fourth;
  EXPECT_THROW(round(&fourth, {0}), std::runtime_error);
  EXPECT_EQ(fourth.finished, (std::vector<int>{0, 1, 1, 1}));
}

}  // namespace
}  // namespace home::util
