// One-call convenience API: run a hybrid MPI/OpenMP program under HOME and
// return the violation report.  This is the entry point the examples and the
// integration tests use.
#pragma once

#include <functional>

#include "src/home/report.hpp"
#include "src/home/session.hpp"
#include "src/simmpi/universe.hpp"
#include "src/trace/trace_io.hpp"
#include "src/trace/wal.hpp"

namespace home {

struct CheckConfig {
  int nranks = 2;
  /// Default OpenMP team size handed to homp (apps may override per region).
  int nthreads = 2;
  SessionConfig session;
  /// Forwarded to simmpi::UniverseConfig.
  int block_timeout_ms = 10000;
};

struct CheckResult {
  Report report;
  simmpi::RunResult run;
  /// Streaming-engine statistics (meaningful only in AnalysisMode::kOnline).
  online::OnlineStats online_stats;
  /// Explanation certificates (empty unless session.diagnose.enabled).
  diagnose::ProvenanceReport provenance;
};

/// Run `rank_main` on nranks rank-threads under full HOME checking.
CheckResult check_program(const CheckConfig& cfg,
                          const std::function<void(simmpi::Process&)>& rank_main);

/// Offline mode: run the detection + matching pipeline over a previously
/// saved execution log (Session::save_trace / trace::load_trace_file).
/// Takes the trace by value: its events move into the analysis.
Report analyze_trace(trace::LoadedTrace loaded, const SessionConfig& cfg = {});

/// Convenience: load the trace file and analyze it.
Report analyze_trace_file(const std::string& path,
                          const SessionConfig& cfg = {});

/// Degraded-mode analysis over a trace recovered by the WAL salvage loader:
/// runs the normal pipeline over whatever survived, then tags the report
/// Verdict::kDegraded (with exact damage accounting in the reasons) unless
/// the salvage was clean.
Report analyze_salvaged_trace(trace::LoadedTrace loaded,
                              const trace::WalSalvage& salvage,
                              const SessionConfig& cfg = {});

/// Convenience: salvage a (possibly torn) WAL file and analyze the longest
/// valid prefix.  `salvage_out` (may be null) receives the damage report.
Report analyze_wal_file(const std::string& path, const SessionConfig& cfg = {},
                        trace::WalSalvage* salvage_out = nullptr);

}  // namespace home
