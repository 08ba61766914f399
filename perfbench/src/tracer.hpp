// The traced run's span log.  The benchmark wraps its calls into HOME's
// public functions in home::obs::Span (never adding spans inside src/); obs
// records them, and the program's own phase spans (detect.hb, detect.sweep,
// spec.match, ...), only while telemetry is on, which the benchmark turns on
// for traced ops alone.  After each traced op drain() moves the benchmark
// thread's spans out of obs's rings into an op-tagged list and files each
// under the innermost span that encloses it, so the spans form one tree per
// op.  The list stays in memory and is written as a Chrome trace-event file
// when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t op = 0;
  std::int64_t parent = -1;  ///< index into the log; -1 = top level of its op.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  /// Make the calling thread the benchmark thread: drain() keeps its spans
  /// and drops those of rank, OpenMP and analyzer threads.
  void bind_this_thread();

  /// Move the spans obs recorded on the benchmark thread into op `op`, and
  /// clear obs's rings.
  void drain(std::uint64_t op);

  /// One value per traced op that recorded `name`: the summed duration of
  /// those spans (restricted to spans below one named `ancestor` if given).
  std::vector<double> per_op_ms(const std::string& name,
                                const std::string& ancestor = {}) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<SpanRecord> records_;
  int display_tid_ = -1;
};

/// The process-wide log the workloads share.
Tracer& tracer();

}  // namespace perfbench
