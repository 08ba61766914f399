// The violation matcher against the reference scan (tests/oracle/
// reference_matcher): on seeded random MPI traces, in every DetectorMode,
// Matcher::match reports the reference's record for every key, field for
// field, and the streaming driver (an OnlineAnalyzer over the same events)
// finds the same keys.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <map>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/spec/matcher.hpp"
#include "tests/oracle/fixtures.hpp"
#include "tests/oracle/reference_matcher.hpp"

namespace home::oracle {
namespace {

using detect::DetectorMode;

constexpr int kShards = 20;
constexpr int kSeedsPerShard = 10;  // 200 seeds in all.
constexpr std::array<DetectorMode, 3> kModes = {
    DetectorMode::kHybrid, DetectorMode::kLocksetOnly, DetectorMode::kHbOnly};
constexpr std::array<std::size_t, 4> kRetireCadences = {0, 1, 7, 64};

class MatcherOracle : public ::testing::TestWithParam<int> {};

TEST_P(MatcherOracle, RecordsMatchReferenceAndStreamedKeysMatch) {
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const auto seed = static_cast<std::uint64_t>(GetParam() * kSeedsPerShard + i);
    TraceBuilder tb;
    random_mpi_trace(seed, &tb);
    const std::vector<trace::Event> events = tb.events();
    for (const DetectorMode mode : kModes) {
      detect::RaceDetectorConfig cfg;
      cfg.mode = mode;
      const detect::ConcurrencyReport report =
          detect::RaceDetector(cfg).analyze(events);
      spec::Matcher matcher(&tb.strings());
      const std::vector<spec::Violation> found = matcher.match(report);
      const std::map<std::string, std::string> records = records_by_key(found);
      EXPECT_EQ(records.size(), found.size()) << "a key reported twice";
      EXPECT_EQ(matcher.stats().violations, found.size());
      EXPECT_EQ(records,
                records_by_key(reference_match(report, &tb.strings())))
          << "seed=" << seed << " mode=" << detect::detector_mode_name(mode);
      const std::size_t retire = kRetireCadences[seed % kRetireCadences.size()];
      EXPECT_EQ(key_set(found), streamed_keys(events, tb.strings(), cfg, retire))
          << "seed=" << seed << " mode=" << detect::detector_mode_name(mode)
          << " retire=" << retire;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracle, ::testing::Range(0, kShards));

TEST(MatcherOracleCoverage, RandomTracesReachEveryViolationClass) {
  // The comparison above means little unless the traces complete every
  // premise: each class must be reported on a good share of the seeds.
  std::array<int, spec::kViolationTypeCount> seeds_with{};
  for (int s = 0; s < kShards * kSeedsPerShard; ++s) {
    TraceBuilder tb;
    random_mpi_trace(static_cast<std::uint64_t>(s), &tb);
    const detect::ConcurrencyReport report =
        detect::RaceDetector().analyze(tb.events());
    std::array<bool, spec::kViolationTypeCount> seen{};
    for (const spec::Violation& v : spec::Matcher(&tb.strings()).match(report)) {
      seen[static_cast<std::size_t>(v.type)] = true;
    }
    for (std::size_t t = 0; t < seen.size(); ++t) seeds_with[t] += seen[t];
  }
  for (std::size_t t = 0; t < seeds_with.size(); ++t) {
    EXPECT_GE(seeds_with[t], 10)
        << spec::violation_type_name(static_cast<spec::ViolationType>(t));
  }
}

}  // namespace
}  // namespace home::oracle
