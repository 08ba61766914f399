// Trace (de)serialization: lets the dynamic phase persist its execution log
// and the analysis run offline later (the paper's offline-analysis mode).
//
// Text format, line-oriented:
//   #home-trace v1
//   S <id> <label>                          (string-table entries)
//   E <seq> <tid> <rank> <kind> <obj> <aux> <nlocks> <lock>... [M <type>
//     <peer> <tag> <comm> <request> <main> <provided> <callsite>]
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/trace/trace_log.hpp"

namespace home::trace {

struct LoadedTrace {
  std::vector<Event> events;          ///< sorted by seq.
  std::vector<std::string> strings;   ///< index = interned id.

  const std::string& label(std::uint32_t id) const {
    static const std::string kEmpty;
    return id < strings.size() ? strings[id] : kEmpty;
  }
};

/// Write the log (events + string table) to a stream.
void write_trace(std::ostream& out, const TraceLog& log);

/// Parse a trace written by write_trace.  Throws std::runtime_error naming
/// the first malformed record (short or truncated lines, unknown kinds or
/// MPI types, absurd counts, thread ids outside [0, kMaxTid)).  A damaged
/// run recovers through its WAL instead (trace::salvage_wal).
LoadedTrace read_trace(std::istream& in);

/// Convenience file wrappers.
void save_trace_file(const std::string& path, const TraceLog& log);
LoadedTrace load_trace_file(const std::string& path);

}  // namespace home::trace
