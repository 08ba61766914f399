// Shared plumbing of the pipeline benchmark: options, metric rows, the
// per-run outcome (attempted / failed checks), and small statistics and
// clock helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: alternate traced and untraced ops and report the per-layer
  /// metrics instead of the end-to-end ones.
  bool trace = false;
  /// Directory for generated inputs (trace files) and the span dump.
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered so the printed result is stable.
using Metrics = std::map<std::string, Metric>;

/// What one benchmark run reports: every checked op counts as attempted,
/// every failed check as failed (error_rate = failed / attempted).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// "key value" lines printed (and saved) beside the result: sample
  /// counts, trace hashes, the planted key set.
  std::vector<std::string> notes;
  /// The first few failure descriptions (stderr).
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    notes.push_back(key + " " + value);
  }
};

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

/// Median / linear-interpolated percentile (p in [0, 100]); 0 when empty.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

inline double size_d(std::size_t n) { return static_cast<double>(n); }

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// splitmix64 step: derive independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over a byte range, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
