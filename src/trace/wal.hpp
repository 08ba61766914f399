// Crash-safe write-ahead journal for the trace log (ISSUE-10 trace
// durability layer).
//
// The text format in trace_io is written once, after a run completes — a
// crashed or wedged run leaves nothing.  The WAL instead journals every
// event at emit time as a CRC32-framed binary record, flushed per frame, so
// the longest valid prefix of the file survives any point of death:
//
//   file   := magic "HOMEWAL1" frame*
//   frame  := type:u8 len:u32le payload[len] crc:u32le
//   crc    := CRC-32 (IEEE) over type+len+payload
//   type 'S': payload = id:u32le label-bytes          (string-table entry)
//   type 'E': payload = binary Event (see wal.cpp)
//
// WalWriter is an EventSink: installed on a TraceLog it receives the stream
// in seq order (the log serializes sink delivery), emits any string-table
// entries the event references before the event frame, and flushes.  The
// salvage loader recovers every complete frame of a torn file — truncation
// or corruption anywhere yields the longest valid prefix plus exact
// accounting of what was lost, never undefined behavior.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>

#include "src/trace/trace_io.hpp"
#include "src/trace/trace_log.hpp"

namespace home::trace {

/// CRC-32 (IEEE 802.3, reflected poly 0xEDB88320).  `seed` chains calls.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// What the salvage loader found in a (possibly torn) WAL file.
struct WalSalvage {
  std::size_t frames = 0;           ///< valid frames recovered.
  std::size_t events = 0;
  std::size_t strings = 0;
  std::size_t corrupt_frames = 0;   ///< frames rejected (bad CRC / short).
  std::uint64_t bytes_recovered = 0;
  std::uint64_t bytes_discarded = 0;  ///< from the first bad byte to EOF.
  bool torn = false;            ///< file did not end on a frame boundary.
  bool missing_header = false;  ///< magic absent — nothing recoverable.

  /// Clean iff the whole file was valid frames under a valid header.
  bool clean() const { return !torn && !missing_header && corrupt_frames == 0; }
};

/// Journal sink: install via TraceLog::set_sink (or a tee) so every emitted
/// event hits disk before the run proceeds.  Not internally thread-safe
/// beyond what the log's publish serialization provides, except close(),
/// which may race with nothing (call after emitters quiesce).
class WalWriter : public EventSink {
 public:
  /// Opens (truncates) `path` and writes the header.  `strings` is the
  /// emitting log's table; entries are journaled lazily, before the first
  /// event frame that could reference them.
  WalWriter(const std::string& path, const StringTable* strings);
  ~WalWriter() override;

  /// False if the file could not be opened or a write failed; subsequent
  /// frames are dropped (the run must not die because the journal did).
  bool ok() const { return ok_; }

  void on_event(const Event& e) override;

  /// Flush and close the file; idempotent.
  void close();

  std::uint64_t frames_written() const { return frames_; }
  const std::string& path() const { return path_; }

 private:
  void start_frame(char type);  ///< frame_ = type, length placeholder.
  void write_frame();  ///< Patch frame_'s length, append its CRC, write it.
  void sync_strings();

  std::string path_;
  std::ofstream out_;
  std::string frame_;  ///< the frame being encoded, reused across frames.
  const StringTable* strings_;
  std::uint32_t next_string_id_ = 0;
  std::uint64_t frames_ = 0;
  bool ok_ = false;
  std::mutex mu_;
};

/// Recover the longest valid prefix of a WAL stream.  Never throws on
/// corrupt input: a torn tail, a flipped byte, or a truncated frame ends
/// recovery at the last complete frame, with the damage accounted in
/// `stats` and counted on `trace.corrupt_records`.  Events come back
/// seq-sorted, strings indexed by id — the same LoadedTrace shape
/// read_trace produces, so salvaged traces feed straight into
/// home::analyze_trace.
///
/// Frames are checked and decoded in byte-balanced chunks of whole frames on
/// one worker per hardware thread (util::run_jobs); a file too small to hold
/// util::kParallelAnalysisThreshold events is one chunk on the calling
/// thread.  The result does not depend on the chunking.
LoadedTrace salvage_wal(std::istream& in, WalSalvage* stats = nullptr);
LoadedTrace salvage_wal_file(const std::string& path,
                             WalSalvage* stats = nullptr);

/// salvage_wal() on `workers` workers whatever the file's size (1 = one
/// chunk on the calling thread), so tests can cut small files into chunks.
LoadedTrace salvage_wal_on_workers(std::istream& in, std::size_t workers,
                                   WalSalvage* stats = nullptr);

}  // namespace home::trace
