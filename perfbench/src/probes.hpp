// Per-layer probes for the traced run.  A workload's traced ops measure the
// layers it exercises; for every other layer it calls that layer's probe,
// which measures the layer on the workload's subject (its program and its
// trace) by calling the layer's public functions directly.  Each layer
// metric thus has one producer per workload, and every traced run reports
// every per-layer metric.
#pragma once

#include <string>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/runs.hpp"
#include "src/trace/thread_registry.hpp"
#include "src/trace/trace_io.hpp"

namespace perfbench {

/// simmpi.universe_fixed_us, home.session_fixed_us: per-run fixed costs on
/// an empty three-rank program (the hidden-race shape).
void probe_fixed_costs(Outcome& out);

/// Paired Base and HOME runs of `prog`: simmpi.base_run_ms, home.*, trace
/// emit / sorted_events.  Returns the last HOME run's trace.
home::trace::LoadedTrace probe_execution(const Program& prog, Outcome& out);

/// Saves `trace` under `dir` and loads it back: trace.wal_load_ms,
/// trace.load_ns_per_event and trace.file_bytes (WAL) / trace.text_load_ms.
void probe_wal_load(const home::trace::LoadedTrace& trace,
                    const std::string& dir, Outcome& out);
void probe_text_load(const home::trace::LoadedTrace& trace,
                     const std::string& dir, Outcome& out);

/// Post-mortem detection + matching of `trace`: detect.*, spec.*.
void probe_detect(const home::trace::LoadedTrace& trace, Outcome& out);

/// Streams `trace` through an OnlineAnalyzer: online.*.  `registry` may be
/// null (threads then enter through the trace's fork edges).
void probe_online(const home::trace::LoadedTrace& trace,
                  const home::trace::ThreadRegistry* registry, Outcome& out);

/// A short pick-only sweep of `prog`: explore.*.
void probe_explore(const Program& prog, Outcome& out);

/// The hidden-race corpus program (3 ranks x 2 threads).
Program hidden_race_program();

}  // namespace perfbench
