// Telemetry exporters (ISSUE-4): the four surfaces a run's self-observation
// leaves behind —
//   * Chrome trace-event JSON (chrome://tracing / Perfetto) of every span
//     ring on one timeline, violations as instant events;
//   * a machine-readable JSON snapshot (`--telemetry-json`);
//   * Prometheus-style text exposition;
//   * a human end-of-run summary table (live_monitor prints it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace home::obs {

/// Chrome trace-event JSON of all recorded spans and instants:
/// {"displayTimeUnit":"ms","traceEvents":[...]} with one "M" thread_name
/// metadata row per thread, "X" complete events for spans, "i" instant
/// events, and "s"/"f" flow pairs (obs::flow_start/flow_finish — the
/// provenance engine's causal arrows).  Loadable in chrome://tracing and
/// ui.perfetto.dev.
std::string chrome_trace_json();
void write_chrome_trace(const std::string& path);

/// JSON string escaping per RFC 8259 (shared by every exporter here and by
/// diagnose::provenance_json).
std::string json_escape(const std::string& s);

/// Write `json` (plus a trailing newline) to `path`; throws on I/O failure.
/// The common trunk of the write_* helpers, public so other subsystems'
/// JSON exports (provenance.json) go through the same path.
void write_json_file(const std::string& path, const std::string& json);

/// Machine-readable snapshot: {"telemetry":{"enabled":...,
/// "spans_dropped":N,"counters":{...},"gauges":{...},"histograms":{...},
/// "spans":{...}}}.
std::string telemetry_json();
void write_telemetry_json(const std::string& path);

/// Prometheus text exposition (home_ prefix, metric names with dots mapped
/// to underscores; gauges additionally export a _high_water series).  Every
/// family carries `# HELP` and `# TYPE` comment lines, with HELP text
/// escaped per the exposition format (backslash and newline).
std::string prometheus_text();

/// Built-in exposition-format validator (the CI fallback when promtool is
/// not installed): checks metric-name syntax, HELP escaping, TYPE values,
/// sample-line shape, that every sample belongs to a family with a
/// preceding TYPE, and that no family declares TYPE twice.  On failure
/// returns false and stores a message in `error` (may be null).
bool check_prometheus_text(const std::string& text, std::string* error);

/// Per-name span aggregate for the summary surfaces (durations folded
/// through util::Accumulator).
struct SpanAggregate {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};
std::vector<SpanAggregate> aggregate_spans();

/// Human-readable end-of-run table: non-zero registry metrics followed by
/// the span aggregates.
std::string summary_table();

}  // namespace home::obs
