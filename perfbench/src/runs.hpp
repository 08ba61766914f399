// The user-facing calls the workloads and probes share: an uninstrumented
// (Base) run, a HOME checked run, trace snapshots and trace files.  The runs
// mirror apps::run_with_tool, which returns neither the ranks' values (the
// residual check needs them) nor the session (the traced run inspects it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/home/report.hpp"
#include "src/home/session.hpp"
#include "src/online/online_analyzer.hpp"
#include "src/simmpi/universe.hpp"
#include "src/trace/trace_io.hpp"

namespace perfbench {

/// A hybrid program: `rank_main` runs on every rank and returns a value the
/// workload checks (NPB: the final global residual).
struct Program {
  std::string name;
  int nranks = 2;
  int nthreads = 2;
  std::function<double(home::simmpi::Process&)> rank_main;
};

struct BaseRun {
  double exec_s = 0.0;  ///< Universe::run wall time.
  std::vector<double> values;  ///< rank_main's return value per rank.
  home::simmpi::RunResult run;
};

/// The program without any checker: the paper's "Base".
BaseRun run_base(const Program& prog);

struct HomeRun {
  double total_s = 0.0;    ///< Session construction to finished report.
  double exec_s = 0.0;     ///< Universe::run under HOME instrumentation.
  double analyze_s = 0.0;  ///< Session::analyze.
  std::vector<double> values;
  home::simmpi::RunResult run;
  home::Report report;
};

/// A HOME post-mortem checked run with default SessionConfig.  `inspect`
/// (may be empty) sees the session after analyze(), outside the timing.
HomeRun run_home(const Program& prog,
                 const std::function<void(home::Session&)>& inspect = {});

/// The streaming analyzer's configuration: kBlock backpressure, retirement
/// every 1024 events, no reconciliation, and a queue that holds a whole
/// benchmark trace, so the producer (a loop far faster than the analysis)
/// never waits on it and a stream measures the analysis engine.
home::online::OnlineConfig stream_config();

/// The session log as a LoadedTrace (seq-sorted events + string table).
home::trace::LoadedTrace snapshot_trace(const home::trace::TraceLog& log);

/// Write `trace` as a CRC-framed WAL file / as a `#home-trace v1` text file
/// (seqs preserved).  False on an I/O error.
bool write_wal(const home::trace::LoadedTrace& trace, const std::string& path);
bool write_text(const home::trace::LoadedTrace& trace, const std::string& path);

/// FNV-1a of a file's bytes (0 if unreadable); `bytes` gets its size.
std::uint64_t file_hash(const std::string& path, std::uint64_t* bytes = nullptr);

/// Violation keys of a violation list.
std::vector<std::string> keys_of(const std::vector<home::spec::Violation>& vs);

/// One plain pass over the events that reads every field, computing a
/// checksum: the benchmark's own "do nothing but read the trace" baseline
/// that the trace workloads' overhead_ratio divides by.
std::uint64_t reference_pass(const std::vector<home::trace::Event>& events);

/// The detect layer's counts for one report.
struct DetectCounts {
  double vars = 0.0;
  double pairs_checked = 0.0;
  double concurrent_pairs = 0.0;
};
DetectCounts count_verdicts(const home::detect::ConcurrencyReport& report);

/// Sum of the durations (ms) of the program's obs spans named `name`
/// recorded since the last obs::reset_spans().
double program_span_ms(const std::string& name);

}  // namespace perfbench
