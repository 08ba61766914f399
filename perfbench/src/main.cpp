// perfbench: the HOME pipeline benchmark.
//
//   perfbench --workload <npb_mz|trace_posthoc|sweep_hidden>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--source-id <id>]
//
// Prints "key value" notes, a fingerprint line and an error_rate line, and
// as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (telemetry off); with
// --trace 1 they are the per-layer ones, and the benchmark's spans are
// written to <out-dir>/spans-<workload>-seed<n>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/tracer.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/obs/telemetry.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<npb_mz|trace_posthoc|sweep_hidden> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--source-id <id>]\n",
               why);
  return 2;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string fingerprint(const std::string& source_id) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"cxx_flags\": \"%s\", \"optimized\": %s, \"source\": \"%s\"}",
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                optimized_build() ? "true" : "false", source_id.c_str());
  return buf;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 && out.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const std::map<std::string, Outcome (*)(const Options&)> workloads = {
      {"npb_mz", perfbench::run_npb_mz},
      {"trace_posthoc", perfbench::run_trace_posthoc},
      {"sweep_hidden", perfbench::run_sweep_hidden},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage("unknown workload");
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: WARNING: not an optimized build (%s); do not "
                 "compare its numbers with optimized ones\n",
                 PERFBENCH_BUILD_TYPE);
  }

  // End-to-end numbers are taken with tracing off, including the program's
  // own telemetry; the traced run switches it on op by op.
  home::obs::set_enabled(false);
  perfbench::tracer().bind_this_thread();
  Outcome out = it->second(opt);

  for (const auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.value)) {
      out.check(false, "metric " + name + " is not finite");
    }
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (perfbench::tracer().write_chrome(path)) out.note("spans", path);
  }

  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& failure : out.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  std::printf("fingerprint %s\n", fingerprint(source_id).c_str());
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 1.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  print_result(out);
  return 0;
}
