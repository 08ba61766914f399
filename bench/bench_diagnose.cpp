// Provenance-engine bench (ISSUE-9): the cost of explaining a violation.
//
// Workload: a barrier-phased bulk trace (the NPB-like long-clean shape the
// detector benches share) with a small cluster of genuine concurrent-recv
// violations appended — the realistic mix where violations are rare and the
// trace is not.
//
// Experiments (one JSON row each, stdout and --json-out, default
// BENCH_diagnose.json):
//   diagnose_overhead   detect+match seconds with and without certificate
//                       building — acceptance gate: diagnosis adds < 5% to
//                       the analysis phase.
//   diagnose_cert_cost  per-certificate build microseconds and per-
//                       certificate paranoid verification microseconds
//                       (verification replays the full HB analysis, so it
//                       is priced separately and carries no gate).
//
// Modes:
//   bench_diagnose          full workload (1000 phases)
//   bench_diagnose --smoke  fast gate (300 phases); ctest runs this.
//
// Knobs: --phases, --threads, --vars, --clusters, --reps, --json-out.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/fig_common.hpp"
#include "src/detect/race_detector.hpp"
#include "src/diagnose/provenance.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/trace/trace_log.hpp"
#include "src/util/flags.hpp"
#include "src/util/stats.hpp"

namespace {

using namespace home;

/// Bulk + cluster workload in wrapper shape: `phases` barrier-separated
/// rotating writes over `vars` variables by `threads` worker tids, then
/// `clusters` pairs of same-(source,tag,comm) receives from two tids with a
/// distinct callsite pair per cluster (each pair is one V3 finding).
void build_workload(trace::TraceLog& log, int phases, int threads, int vars,
                    int clusters) {
  for (int phase = 0; phase < phases; ++phase) {
    for (int v = 0; v < vars; ++v) {
      trace::Event e;
      e.tid = static_cast<trace::Tid>(1 + (phase + v) % threads);
      e.kind = trace::EventKind::kMemWrite;
      e.obj = 100 + static_cast<trace::ObjId>(v);
      log.emit(std::move(e));
    }
    for (int t = 0; t < threads; ++t) {
      trace::Event e;
      e.tid = static_cast<trace::Tid>(1 + t);
      e.kind = trace::EventKind::kBarrier;
      e.obj = 9000 + static_cast<trace::ObjId>(phase);
      e.aux = static_cast<std::uint64_t>(threads);
      log.emit(std::move(e));
    }
  }
  for (int c = 0; c < clusters; ++c) {
    for (trace::Tid tid : {trace::Tid{1}, trace::Tid{2}}) {
      trace::MpiCallInfo info;
      info.type = trace::MpiCallType::kRecv;
      info.peer = 3;
      info.tag = 40 + c;  // per-cluster tag: one distinct violation each.
      info.comm = 1;
      info.provided = 3;
      info.callsite = log.strings().intern(
          "bench.cluster" + std::to_string(c) + ".t" + std::to_string(tid));
      trace::Event call;
      call.tid = tid;
      call.kind = trace::EventKind::kMpiCall;
      call.mpi = info;
      const trace::Seq seq = log.emit(std::move(call));
      for (spec::MonitoredVar var :
           spec::monitored_vars_for(trace::MpiCallType::kRecv)) {
        trace::Event write;
        write.tid = tid;
        write.kind = trace::EventKind::kMemWrite;
        write.obj = spec::monitored_var_id(0, var);
        write.aux = seq;
        log.emit(std::move(write));
      }
    }
  }
}

struct Output {
  std::FILE* json = nullptr;
  void emit(const bench::JsonRow& row) {
    row.print(stdout);
    if (json != nullptr) row.print(json);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  // The NPB-style apps this models keep dozens of shared arrays live per
  // phase, so the representative shape is var-dense; a var-sparse trace
  // understates the analysis phase the overhead is measured against.
  const int phases = flags.get_int("phases", smoke ? 300 : 1000);
  const int threads = flags.get_int("threads", 4);
  const int vars = flags.get_int("vars", 64);
  const int clusters = flags.get_int("clusters", 6);
  const int reps = flags.get_int("reps", smoke ? 5 : 7);

  const std::string json_path = flags.get("json-out", "BENCH_diagnose.json");
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "bench_diagnose: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  Output out;
  out.json = json;
  bool ok = true;

  trace::TraceLog log;
  build_workload(log, phases, threads, vars, clusters);
  const std::vector<trace::Event> events = log.sorted_events();

  const detect::HappensBeforeConfig hb_cfg =
      detect::happens_before_config(detect::DetectorMode::kHybrid);
  diagnose::Options dopts;
  dopts.enabled = true;
  dopts.emit_flows = false;  // price the engine, not the telemetry ring.

  // ---------------------------------------------------- analysis baseline
  // Best-of-reps detect+match, then the same with certificate building: the
  // diagnosis phase runs off the finished HB index, so its cost is additive.
  double analyze_seconds = 1e9;
  double diagnose_seconds = 1e9;
  std::size_t violations_found = 0;
  std::size_t certificates = 0;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    detect::RaceDetector detector;
    const detect::ConcurrencyReport report = detector.analyze(events);
    spec::Matcher matcher(&log.strings());
    const std::vector<spec::Violation> violations = matcher.match(report);
    const double base = timer.elapsed_seconds();
    analyze_seconds = std::min(analyze_seconds, base);
    violations_found = violations.size();

    util::Stopwatch dtimer;
    const diagnose::ProvenanceReport provenance = diagnose::diagnose_violations(
        report.hb(), violations, &log.strings(), hb_cfg, dopts);
    diagnose_seconds = std::min(diagnose_seconds, dtimer.elapsed_seconds());
    certificates = provenance.certificates.size();
  }
  const double overhead_pct =
      analyze_seconds > 0.0 ? diagnose_seconds / analyze_seconds * 100.0 : 0.0;

  out.emit(bench::JsonRow("diagnose_overhead")
               .field("events", events.size())
               .field("violations", violations_found)
               .field("certificates", certificates)
               .field("analyze_seconds", analyze_seconds)
               .field("diagnose_seconds", diagnose_seconds)
               .field("overhead_pct", overhead_pct));
  if (certificates == 0 ||
      certificates != static_cast<std::size_t>(clusters)) {
    std::fprintf(stderr, "FAIL: expected %d certificates, built %zu\n",
                 clusters, certificates);
    ok = false;
  }
  if (overhead_pct >= 5.0) {
    std::fprintf(stderr,
                 "FAIL: diagnosis overhead %.2f%% >= 5%% gate "
                 "(%.4fs on a %.4fs analysis)\n",
                 overhead_pct, diagnose_seconds, analyze_seconds);
    ok = false;
  }

  // ------------------------------------------------- per-certificate cost
  // Build once more for the per-unit numbers and the paranoid verify price.
  {
    detect::RaceDetector detector;
    const detect::ConcurrencyReport report = detector.analyze(events);
    spec::Matcher matcher(&log.strings());
    const std::vector<spec::Violation> violations = matcher.match(report);

    util::Stopwatch build_timer;
    const diagnose::ProvenanceReport provenance = diagnose::diagnose_violations(
        report.hb(), violations, &log.strings(), hb_cfg, dopts);
    const double build_seconds = build_timer.elapsed_seconds();

    util::Stopwatch verify_timer;
    std::size_t verified = 0;
    for (const diagnose::Certificate& cert : provenance.certificates) {
      std::string why;
      if (diagnose::verify_certificate(cert, events, &log.strings(), hb_cfg,
                                       &why)) {
        ++verified;
      } else {
        std::fprintf(stderr, "FAIL: certificate %s did not verify: %s\n",
                     cert.key.c_str(), why.c_str());
        ok = false;
      }
    }
    const double verify_seconds = verify_timer.elapsed_seconds();
    const double n = provenance.certificates.empty()
                         ? 1.0
                         : static_cast<double>(provenance.certificates.size());
    out.emit(bench::JsonRow("diagnose_cert_cost")
                 .field("certificates", provenance.certificates.size())
                 .field("verified", verified)
                 .field("build_us_per_cert", build_seconds * 1e6 / n)
                 .field("verify_us_per_cert", verify_seconds * 1e6 / n));
  }

  std::fclose(json);
  std::printf("%s (json: %s)\n", ok ? "OK" : "FAILED", json_path.c_str());
  return ok ? 0 : 1;
}
