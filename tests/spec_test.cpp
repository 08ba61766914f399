// Unit tests of the thread-safety specification layer: monitored-variable
// encoding, the wrapper write-sets, and the matcher evaluated on synthetic
// wrapper-shaped traces (no universe involved) through both of its drivers.
#include <gtest/gtest.h>

#include "src/detect/race_detector.hpp"
#include "src/simmpi/types.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/trace_log.hpp"
#include "tests/oracle/fixtures.hpp"
#include "tests/oracle/reference_matcher.hpp"

namespace home::spec {
namespace {

using trace::MpiCallType;

using oracle::TraceBuilder;

// Every scenario runs through both matcher drivers: Matcher::match must
// report the reference scan's records, and the streaming driver over the
// same events must find the same keys.
std::vector<Violation> match(const TraceBuilder& tb) {
  const std::vector<trace::Event> events = tb.events();
  const detect::RaceDetectorConfig cfg;
  const detect::ConcurrencyReport report =
      detect::RaceDetector(cfg).analyze(events);
  std::vector<Violation> found = Matcher(&tb.strings()).match(report);
  EXPECT_EQ(oracle::records_by_key(found),
            oracle::records_by_key(
                oracle::reference_match(report, &tb.strings())));
  EXPECT_EQ(oracle::key_set(found),
            oracle::streamed_keys(events, tb.strings(), cfg, 1));
  return found;
}

bool has_type(const std::vector<Violation>& violations, ViolationType type) {
  for (const auto& v : violations) {
    if (v.type == type) return true;
  }
  return false;
}

// ------------------------------------------------------ monitored variables

TEST(Monitored, IdEncodingRoundTrips) {
  for (int rank : {0, 1, 7, 63}) {
    for (int k = 0; k < kMonitoredVarCount; ++k) {
      const auto var = static_cast<MonitoredVar>(k);
      const trace::ObjId id = monitored_var_id(rank, var);
      EXPECT_TRUE(is_monitored_var(id));
      EXPECT_EQ(monitored_var_rank(id), rank);
      EXPECT_EQ(monitored_var_kind(id), var);
    }
  }
}

TEST(Monitored, NonMonitoredIdsRejected) {
  EXPECT_FALSE(is_monitored_var(0));
  EXPECT_FALSE(is_monitored_var(0x1000));  // lock id range.
}

TEST(Monitored, WriteSetsMatchWrapperListings) {
  using V = MonitoredVar;
  const auto vars_of = [](MpiCallType type) {
    const auto vars = monitored_vars_for(type);
    return std::vector<V>(vars.begin(), vars.end());
  };
  EXPECT_EQ(vars_of(MpiCallType::kRecv),
            (std::vector<V>{V::kSrcTmp, V::kTagTmp, V::kCommTmp}));
  EXPECT_EQ(vars_of(MpiCallType::kWait), (std::vector<V>{V::kRequestTmp}));
  EXPECT_EQ(vars_of(MpiCallType::kBarrier),
            (std::vector<V>{V::kCollectiveTmp, V::kCommTmp}));
  EXPECT_EQ(vars_of(MpiCallType::kFinalize), (std::vector<V>{V::kFinalizeTmp}));
  EXPECT_TRUE(monitored_vars_for(MpiCallType::kInit).empty());
}

TEST(Monitored, Names) {
  EXPECT_STREQ(monitored_var_name(MonitoredVar::kSrcTmp), "srctmp");
  EXPECT_STREQ(monitored_var_name(MonitoredVar::kFinalizeTmp), "finalizetmp");
}

// -------------------------------------------------------------- violations

TEST(Violations, NamesAndKeys) {
  EXPECT_STREQ(violation_type_name(ViolationType::kProbe), "ProbeViolation");
  Violation a;
  a.type = ViolationType::kConcurrentRecv;
  a.rank = 1;
  a.callsite1 = "x";
  a.callsite2 = "y";
  Violation b = a;
  std::swap(b.callsite1, b.callsite2);
  EXPECT_EQ(violation_key(a), violation_key(b));  // order-normalized.
}

TEST(Violations, ArgsOverlapWildcardAware) {
  EXPECT_TRUE(args_overlap(3, 3));
  EXPECT_FALSE(args_overlap(3, 4));
  EXPECT_TRUE(args_overlap(simmpi::kAnySource, 4));
  EXPECT_TRUE(args_overlap(3, simmpi::kAnyTag));
}

// ------------------------------------------------------------------ matcher

TEST(Matcher, ConcurrentRecvSameArgs) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5,
           .site = "r1"});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5,
           .site = "r2"});
  const auto violations = match(tb);
  ASSERT_TRUE(has_type(violations, ViolationType::kConcurrentRecv));
  EXPECT_EQ(violations[0].rank, 0);
}

TEST(Matcher, ConcurrentRecvDifferentTagsClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 6});
  EXPECT_FALSE(has_type(match(tb), ViolationType::kConcurrentRecv));
}

TEST(Matcher, ConcurrentRecvWildcardOverlaps) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1,
           .peer = simmpi::kAnySource, .tag = 5});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 3, .tag = 5});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kConcurrentRecv));
}

TEST(Matcher, RecvsInDifferentRanksClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5});
  tb.call({.type = MpiCallType::kRecv, .rank = 1, .tid = 2, .peer = 2, .tag = 5});
  EXPECT_TRUE(match(tb).empty());
}

TEST(Matcher, RecvsOrderedByBarrierClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5});
  tb.barrier({1, 2}, 99);
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5});
  EXPECT_FALSE(has_type(match(tb), ViolationType::kConcurrentRecv));
}

TEST(Matcher, RecvsGuardedByCommonLockClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5,
           .locks = {0x1000}});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5,
           .locks = {0x1000}});
  EXPECT_FALSE(has_type(match(tb), ViolationType::kConcurrentRecv));
}

TEST(Matcher, ConcurrentRequestSameRequest) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kWait, .rank = 0, .tid = 1, .request = 77});
  tb.call({.type = MpiCallType::kTest, .rank = 0, .tid = 2, .request = 77});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kConcurrentRequest));
}

TEST(Matcher, ConcurrentRequestDifferentRequestsClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kWait, .rank = 0, .tid = 1, .request = 77});
  tb.call({.type = MpiCallType::kWait, .rank = 0, .tid = 2, .request = 78});
  EXPECT_FALSE(has_type(match(tb), ViolationType::kConcurrentRequest));
}

TEST(Matcher, ProbeAgainstRecv) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kProbe, .rank = 0, .tid = 1, .peer = 2, .tag = 5});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kProbe));
}

TEST(Matcher, ProbeAgainstProbe) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kIprobe, .rank = 0, .tid = 1, .peer = 2, .tag = 5});
  tb.call({.type = MpiCallType::kProbe, .rank = 0, .tid = 2, .peer = 2, .tag = 5});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kProbe));
}

TEST(Matcher, CollectivesOnSameComm) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kBarrier, .rank = 0, .tid = 1, .comm = 9});
  tb.call({.type = MpiCallType::kAllreduce, .rank = 0, .tid = 2, .comm = 9});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kCollectiveCall));
}

TEST(Matcher, CollectivesOnDifferentCommsClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kBarrier, .rank = 0, .tid = 1, .comm = 9});
  tb.call({.type = MpiCallType::kBarrier, .rank = 0, .tid = 2, .comm = 10});
  EXPECT_FALSE(has_type(match(tb), ViolationType::kCollectiveCall));
}

TEST(Matcher, InitializationSingleWithParallelRegion) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kInit, .rank = 0, .tid = 1, .on_main = true,
           .provided = 0});
  tb.region_begin(0, 1);
  EXPECT_TRUE(has_type(match(tb), ViolationType::kInitialization));
}

TEST(Matcher, InitializationSingleWithoutParallelClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kInit, .rank = 0, .tid = 1, .on_main = true,
           .provided = 0});
  EXPECT_TRUE(match(tb).empty());
}

TEST(Matcher, InitializationFunneledOffMain) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kInitThread, .rank = 0, .tid = 1,
           .on_main = true, .provided = 1});
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 2, .peer = 1, .tag = 0,
           .on_main = false, .provided = 1});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kInitialization));
}

TEST(Matcher, InitializationSerializedWithConcurrentSends) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kInitThread, .rank = 0, .tid = 1,
           .on_main = true, .provided = 2});
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 1, .peer = 1, .tag = 1,
           .provided = 2});
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 2, .peer = 1, .tag = 2,
           .provided = 2});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kInitialization));
}

TEST(Matcher, FinalizeOffMainThread) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kFinalize, .rank = 0, .tid = 2, .on_main = false});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kFinalization));
}

TEST(Matcher, FinalizeConcurrentWithSend) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kFinalize, .rank = 0, .tid = 1, .on_main = true});
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 2, .peer = 1, .tag = 0});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kFinalization));
}

TEST(Matcher, CallAfterFinalizeSameThread) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kFinalize, .rank = 0, .tid = 1, .on_main = true});
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 1, .peer = 1, .tag = 0,
           .on_main = true});
  EXPECT_TRUE(has_type(match(tb), ViolationType::kFinalization));
}

TEST(Matcher, FinalizeAfterBarrierOrderedClean) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kSend, .rank = 0, .tid = 2, .peer = 1, .tag = 0});
  tb.barrier({1, 2}, 55);
  tb.call({.type = MpiCallType::kFinalize, .rank = 0, .tid = 1, .on_main = true});
  EXPECT_FALSE(has_type(match(tb), ViolationType::kFinalization));
}

TEST(Matcher, DeduplicatesRepeatedPairs) {
  TraceBuilder tb;
  for (int i = 0; i < 5; ++i) {
    tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5,
             .site = "loop.recv.a"});
    tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5,
             .site = "loop.recv.b"});
  }
  const auto violations = match(tb);
  int count = 0;
  for (const auto& v : violations) {
    if (v.type == ViolationType::kConcurrentRecv) ++count;
  }
  EXPECT_EQ(count, 1);  // one report per (type, callsite pair).
}

TEST(Matcher, StatsPopulated) {
  TraceBuilder tb;
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 1, .peer = 2, .tag = 5});
  tb.call({.type = MpiCallType::kRecv, .rank = 0, .tid = 2, .peer = 2, .tag = 5});
  detect::RaceDetector detector;
  auto report = detector.analyze(tb.events());
  Matcher matcher(&tb.strings());
  matcher.match(report);
  EXPECT_GT(matcher.stats().concurrent_pairs, 0u);
  EXPECT_GT(matcher.stats().call_pairs, 0u);
  EXPECT_EQ(matcher.stats().violations, 1u);
}

}  // namespace
}  // namespace home::spec
