// The three workloads.  Each is a closed loop with one client: the next op
// starts when the previous one has returned its checked result.
//
//   npb_mz         LU/BT/SP-MZ clean configs, 2 ranks x 2 threads; each op is
//                  a Base run paired with a HOME post-mortem checked run of
//                  the same config, in seeded alternating order.
//   trace_posthoc  a seeded synthetic 256-thread trace saved as a WAL in
//                  set-up; each op is load -> RaceDetector::analyze ->
//                  spec::Matcher -> Report.
//   sweep_hidden   explore::Sweeper over the hidden-race program with the
//                  pick-only kWildcardReorder strategy, baseline on.
//
// With Options::trace off a workload reports its end-to-end metrics; with
// it on, odd ops are traced and it reports the per-layer metrics.
#pragma once

#include <string>

#include "perfbench/src/bench.hpp"

namespace perfbench {

Outcome run_npb_mz(const Options& opt);
Outcome run_trace_posthoc(const Options& opt);
Outcome run_sweep_hidden(const Options& opt);

}  // namespace perfbench
