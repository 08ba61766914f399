// Trace durability tests: CRC32 against a bitwise reference,
// CRC32-framed WAL round trips, the salvage loader's longest-valid-prefix
// discipline over torn/corrupt files and hand-built damaged frames,
// degraded-mode analysis of salvaged traces, and the strict text-trace
// loader over the committed corrupted corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/obs/telemetry.hpp"
#include "src/trace/trace_io.hpp"
#include "src/trace/wal.hpp"

#ifndef HOME_CORPUS_DIR
#define HOME_CORPUS_DIR "tests/corrupt_corpus"
#endif

namespace home {
namespace {

using namespace simmpi;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

trace::Event make_event(trace::Seq seq, trace::Tid tid, trace::EventKind kind,
                        trace::ObjId obj) {
  trace::Event e;
  e.seq = seq;
  e.tid = tid;
  e.kind = kind;
  e.obj = obj;
  return e;
}

/// A small WAL file with string frames and MPI-annotated events; returns its
/// path and the number of events written.
std::string write_sample_wal(std::size_t* events_out) {
  const std::string path = testing::TempDir() + "/home_wal_sample.bin";
  trace::TraceLog log;
  trace::WalWriter wal(path, &log.strings());
  EXPECT_TRUE(wal.ok());
  log.set_sink(&wal);

  trace::Event call = make_event(0, 3, trace::EventKind::kMpiCall, 0);
  call.rank = 1;
  trace::MpiCallInfo info;
  info.type = trace::MpiCallType::kRecv;
  info.peer = 0;
  info.tag = 5;
  info.comm = 1;
  info.callsite = log.strings().intern("wal.recv site");
  call.mpi = info;
  log.emit(std::move(call));
  log.emit(make_event(0, 1, trace::EventKind::kMemWrite, 42));
  auto locked = make_event(0, 2, trace::EventKind::kLockAcquire, 7);
  locked.locks_held = {7, 9};
  log.emit(std::move(locked));

  log.set_sink(nullptr);
  wal.close();
  if (events_out != nullptr) *events_out = 3;
  return path;
}

/// Field-by-field equality of two events (Event has no operator==).
bool same_event(const trace::Event& a, const trace::Event& b) {
  const auto fields = [](const trace::Event& e) {
    return std::tie(e.seq, e.tid, e.rank, e.kind, e.obj, e.aux, e.locks_held);
  };
  if (fields(a) != fields(b) || a.mpi.has_value() != b.mpi.has_value()) {
    return false;
  }
  if (!a.mpi) return true;
  const auto mpi = [](const trace::MpiCallInfo& m) {
    return std::tie(m.type, m.peer, m.tag, m.comm, m.request, m.on_main_thread,
                    m.provided, m.callsite);
  };
  return mpi(*a.mpi) == mpi(*b.mpi);
}

bool same_salvage(const trace::WalSalvage& a, const trace::WalSalvage& b) {
  const auto fields = [](const trace::WalSalvage& s) {
    return std::tie(s.frames, s.events, s.strings, s.corrupt_frames,
                    s.bytes_recovered, s.bytes_discarded, s.torn,
                    s.missing_header);
  };
  return fields(a) == fields(b);
}

void put_le(std::string* out, std::uint64_t x, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
  }
}

/// One WAL frame as the format defines it: type, length, payload, CRC.
std::string make_frame(char type, const std::string& payload) {
  std::string frame(1, type);
  put_le(&frame, payload.size(), 4);
  frame += payload;
  put_le(&frame, trace::crc32(frame.data(), frame.size()), 4);
  return frame;
}

/// An 'E' payload with no MPI detail whose lock-count field says `nlocks`
/// but which carries `locks_present` lock ids.
std::string event_payload(std::uint32_t nlocks, std::uint32_t locks_present) {
  std::string p;
  put_le(&p, 99, 8);  // seq
  put_le(&p, 1, 4);   // tid
  put_le(&p, 0, 4);   // rank
  put_le(&p, static_cast<std::uint8_t>(trace::EventKind::kMemWrite), 1);
  put_le(&p, 42, 8);  // obj
  put_le(&p, 0, 8);   // aux
  put_le(&p, nlocks, 4);
  for (std::uint32_t i = 0; i < locks_present; ++i) put_le(&p, 7 + i, 8);
  put_le(&p, 0, 1);  // no MPI detail
  return p;
}

/// A lock-free 'E' payload of event kind `kind`, carrying an MPI record of
/// type `mpi_type` when that is not negative.
std::string typed_event_payload(int kind, int mpi_type) {
  std::string p;
  put_le(&p, 99, 8);  // seq
  put_le(&p, 1, 4);   // tid
  put_le(&p, 0, 4);   // rank
  put_le(&p, static_cast<std::uint64_t>(kind), 1);
  put_le(&p, 42, 8);  // obj
  put_le(&p, 0, 8);   // aux
  put_le(&p, 0, 4);   // no locks
  put_le(&p, mpi_type < 0 ? 0 : 1, 1);
  if (mpi_type >= 0) {
    put_le(&p, static_cast<std::uint64_t>(mpi_type), 1);
    put_le(&p, 0, 4);   // peer
    put_le(&p, 5, 4);   // tag
    put_le(&p, 1, 8);   // comm
    put_le(&p, 0, 8);   // request
    put_le(&p, 1, 1);   // on the main thread
    put_le(&p, 3, 1);   // provided
    put_le(&p, 0, 4);   // callsite
  }
  return p;
}

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320, with no
/// table: it shares nothing with trace::crc32 but the definition.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  std::uint32_t x = 2463534242u;
  for (unsigned char& b : bytes) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<unsigned char>(x);
  }
  return bytes;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check vector.
  EXPECT_EQ(trace::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(trace::crc32("", 0), 0u);
}

TEST(Crc32, MatchesABitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-64 cover an empty input, tails alone and every tail after one
  // or more 8-byte slices; 4 099 a long run with a 3-byte tail.  The
  // offsets put the first byte at every address mod 8.
  const std::vector<unsigned char> bytes = pseudo_random_bytes(4099 + 8);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4099);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t n : lengths) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(trace::crc32(p, n), reference_crc32(p, n))
          << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Crc32, ChainedCallsEqualOneCallOverTheConcatenation) {
  const std::vector<unsigned char> bytes = pseudo_random_bytes(4099);
  const std::uint32_t whole = trace::crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = trace::crc32(bytes.data(), split);
    ASSERT_EQ(trace::crc32(bytes.data() + split, bytes.size() - split, head),
              whole)
        << "split at " << split;
  }
  // A seed chains the same way in the reference.
  const std::uint32_t head = reference_crc32(bytes.data(), 13);
  EXPECT_EQ(trace::crc32(bytes.data() + 13, 40, head),
            reference_crc32(bytes.data() + 13, 40, head));
}

TEST(Wal, CleanFileRoundTrips) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);

  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal_file(path, &salvage);
  EXPECT_TRUE(salvage.clean());
  EXPECT_EQ(salvage.events, written);
  EXPECT_EQ(salvage.corrupt_frames, 0u);
  EXPECT_EQ(salvage.bytes_discarded, 0u);
  ASSERT_EQ(loaded.events.size(), written);
  // Events come back seq-sorted with payloads intact.
  EXPECT_LE(loaded.events[0].seq, loaded.events[1].seq);
  bool found_mpi = false;
  for (const trace::Event& e : loaded.events) {
    if (e.mpi.has_value()) {
      found_mpi = true;
      EXPECT_EQ(e.mpi->tag, 5);
      EXPECT_EQ(loaded.label(e.mpi->callsite), "wal.recv site");
    }
  }
  EXPECT_TRUE(found_mpi);
  std::remove(path.c_str());
}

TEST(Wal, FramesWrittenOutOfSeqOrderComeBackSorted) {
  const std::string path = testing::TempDir() + "/home_wal_unordered.bin";
  const std::vector<trace::Seq> order = {5, 2, 9, 1, 7, 3, 8, 4, 6};
  {
    trace::StringTable strings;
    trace::WalWriter wal(path, &strings);
    ASSERT_TRUE(wal.ok());
    for (const trace::Seq seq : order) {
      wal.on_event(make_event(seq, static_cast<trace::Tid>(seq % 3),
                              trace::EventKind::kMemWrite, 100 + seq));
    }
    wal.close();
  }
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal_file(path, &salvage);
  EXPECT_TRUE(salvage.clean());
  ASSERT_EQ(loaded.events.size(), order.size());
  for (std::size_t i = 0; i < loaded.events.size(); ++i) {
    const trace::Event& e = loaded.events[i];
    EXPECT_EQ(e.seq, i + 1);  // fully sorted, none lost or repeated.
    EXPECT_EQ(e.obj, 100 + e.seq);  // each payload stays with its seq.
    EXPECT_EQ(e.tid, static_cast<trace::Tid>(e.seq % 3));
  }
  std::remove(path.c_str());
}

TEST(Wal, TruncationAtEveryByteNeverThrowsAndRecoversAPrefix) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 16u);

  std::size_t prev_events = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    trace::WalSalvage salvage;
    trace::LoadedTrace loaded;
    ASSERT_NO_THROW(loaded = trace::salvage_wal(in, &salvage))
        << "cut at byte " << cut;
    EXPECT_LE(loaded.events.size(), written);
    // Longer prefixes never recover less.
    EXPECT_GE(loaded.events.size(), prev_events) << "cut at byte " << cut;
    prev_events = loaded.events.size();
    // A cut landing exactly on a frame boundary is indistinguishable from a
    // clean EOF (by design); everywhere else the torn tail must be reported.
    if (salvage.clean()) {
      EXPECT_EQ(salvage.bytes_discarded, 0u) << "cut at byte " << cut;
      EXPECT_EQ(salvage.bytes_recovered, cut) << "cut at byte " << cut;
    } else {
      EXPECT_LT(cut, bytes.size());
      // Either a torn tail was discarded or the header itself is gone (an
      // empty/short file has no bytes to discard).
      EXPECT_TRUE(salvage.bytes_discarded > 0 || salvage.missing_header)
          << "cut at byte " << cut;
    }
    if (cut == bytes.size()) {
      EXPECT_TRUE(salvage.clean());
      EXPECT_EQ(loaded.events.size(), written);
    }
  }
}

TEST(Wal, FlippedByteEndsRecoveryAtTheDamagedFrame) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  std::string bytes = slurp(path);
  std::remove(path.c_str());

  // Flip one byte in the *last* frame's payload region: the prefix before
  // it must survive, the damaged frame must be rejected by CRC.
  bytes[bytes.size() - 6] ^= 0x5A;
  std::istringstream in(bytes);
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal(in, &salvage);
  EXPECT_FALSE(salvage.clean());
  EXPECT_GE(salvage.corrupt_frames, 1u);
  EXPECT_LT(loaded.events.size(), written);
  EXPECT_GT(salvage.bytes_recovered, 0u);
  EXPECT_GT(salvage.bytes_discarded, 0u);
}

TEST(Wal, EveryFlippedByteKeepsTheSalvageContract) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string clean_bytes = slurp(path);
  trace::WalSalvage clean_salvage;
  const trace::LoadedTrace clean = trace::salvage_wal_file(path, &clean_salvage);
  std::remove(path.c_str());
  ASSERT_TRUE(clean_salvage.clean());
  ASSERT_EQ(clean.events.size(), written);

  const std::string flipped_path = testing::TempDir() + "/home_wal_flip.bin";
  for (std::size_t at = 0; at < clean_bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0xFF}) {
      std::string bytes = clean_bytes;
      bytes[at] = static_cast<char>(bytes[at] ^ mask);
      {
        std::ofstream out(flipped_path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      trace::WalSalvage from_file, from_stream;
      trace::LoadedTrace by_file, by_stream;
      ASSERT_NO_THROW(by_file = trace::salvage_wal_file(flipped_path, &from_file))
          << "byte " << at;
      std::istringstream in(bytes);
      ASSERT_NO_THROW(by_stream = trace::salvage_wal(in, &from_stream))
          << "byte " << at;

      // The damage is seen and every byte is accounted for.
      EXPECT_FALSE(from_file.clean()) << "byte " << at;
      if (at < 8) {
        EXPECT_TRUE(from_file.missing_header) << "byte " << at;
      } else {
        EXPECT_EQ(from_file.corrupt_frames, 1u) << "byte " << at;
        EXPECT_GT(from_file.bytes_discarded, 0u) << "byte " << at;
      }
      EXPECT_EQ(from_file.bytes_recovered + from_file.bytes_discarded,
                bytes.size())
          << "byte " << at;
      // What survives is exactly the clean load's prefix.
      ASSERT_LT(by_file.events.size(), clean.events.size()) << "byte " << at;
      for (std::size_t i = 0; i < by_file.events.size(); ++i) {
        EXPECT_TRUE(same_event(by_file.events[i], clean.events[i]))
            << "byte " << at << ", event " << i;
      }
      // The stream and the file loader agree on the same bytes.
      EXPECT_TRUE(same_salvage(from_file, from_stream)) << "byte " << at;
      ASSERT_EQ(by_stream.events.size(), by_file.events.size());
      for (std::size_t i = 0; i < by_file.events.size(); ++i) {
        EXPECT_TRUE(same_event(by_stream.events[i], by_file.events[i]));
      }
      EXPECT_EQ(by_stream.strings, by_file.strings) << "byte " << at;
    }
  }
  std::remove(flipped_path.c_str());
}

TEST(Wal, UnknownFrameTypeWithAValidCrcIsSkipped) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string clean_bytes = slurp(path);
  std::remove(path.c_str());
  trace::WalSalvage clean_salvage;
  {
    std::istringstream in(clean_bytes);
    trace::salvage_wal(in, &clean_salvage);
  }

  // A future-version frame right after the header: the frames behind it
  // still load and the file is still clean.
  const std::string future = make_frame('X', "a frame from a newer writer");
  std::istringstream in(clean_bytes.substr(0, 8) + future +
                        clean_bytes.substr(8));
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal(in, &salvage);
  EXPECT_TRUE(salvage.clean());
  EXPECT_EQ(loaded.events.size(), written);
  EXPECT_EQ(salvage.events, written);
  EXPECT_EQ(salvage.frames, clean_salvage.frames + 1);
  EXPECT_EQ(salvage.bytes_recovered, clean_bytes.size() + future.size());
}

TEST(Wal, LengthAboveTheFrameCapEndsRecoveryAtThatFrame) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string clean_bytes = slurp(path);
  std::remove(path.c_str());

  // A length field one past 16 MiB, followed by whole valid frames: the
  // loader refuses the length before it reads or allocates anything, and
  // nothing after it is trusted.
  std::string oversized(1, 'E');
  put_le(&oversized, (std::uint64_t{1} << 24) + 1, 4);
  const std::string bytes = clean_bytes + oversized + clean_bytes.substr(8);
  std::istringstream in(bytes);
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal(in, &salvage);
  EXPECT_EQ(salvage.corrupt_frames, 1u);
  EXPECT_TRUE(salvage.torn);
  EXPECT_EQ(loaded.events.size(), written);
  EXPECT_EQ(salvage.bytes_recovered, clean_bytes.size());
  EXPECT_EQ(salvage.bytes_discarded, bytes.size() - clean_bytes.size());
}

TEST(Wal, CrcValidFramesThatDoNotDecodeCountAsOneCorruptFrame) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string clean_bytes = slurp(path);
  std::remove(path.c_str());
  trace::WalSalvage clean_salvage;
  trace::LoadedTrace clean;
  {
    std::istringstream in(clean_bytes);
    clean = trace::salvage_wal(in, &clean_salvage);
  }
  ASSERT_TRUE(clean_salvage.clean());

  // String frames whose id is not the next one (the writer numbers them
  // 0, 1, 2, ...): none may size the string table.
  const auto string_frame = [](std::uint64_t id) {
    std::string payload;
    put_le(&payload, id, 4);
    payload += "label";
    return make_frame('S', payload);
  };
  const std::uint64_t next_id = clean.strings.size();
  constexpr int kMpiCallKind = static_cast<int>(trace::EventKind::kMpiCall);
  const std::string kBadFrames[] = {
      make_frame('E', event_payload(1000, 0)),        // count far too big
      make_frame('E', event_payload(0xFFFFFFFFu, 1)),  // count near 2^32
      make_frame('E', event_payload(2, 1)),            // one lock short
      string_frame(std::uint64_t{1} << 24),            // id >= 2^24
      string_frame(std::uint64_t{1} << 20),            // id far ahead
      string_frame(next_id + 1),                       // one id skipped
      // Kinds and MPI types past their enums (the type indexes the MPI
      // routine table).
      make_frame('E', typed_event_payload(trace::kEventKindCount, -1)),
      make_frame('E', typed_event_payload(255, -1)),
      make_frame('E', typed_event_payload(kMpiCallKind,
                                          trace::kMpiCallTypeCount)),
      make_frame('E', typed_event_payload(kMpiCallKind, 255)),
  };
  obs::Counter& corrupt =
      obs::Registry::global().counter("trace.corrupt_records");
  for (const std::string& bad : kBadFrames) {
    // The bad frame, then the clean frames again: recovery ends at it.
    const std::string bytes = clean_bytes + bad + clean_bytes.substr(8);
    std::istringstream in(bytes);
    trace::WalSalvage salvage;
    const std::uint64_t corrupt_before = corrupt.value();
    trace::LoadedTrace loaded;
    ASSERT_NO_THROW(loaded = trace::salvage_wal(in, &salvage));
    EXPECT_EQ(salvage.corrupt_frames, 1u);
    EXPECT_EQ(corrupt.value() - corrupt_before, 1u);
    EXPECT_TRUE(salvage.torn);
    EXPECT_EQ(salvage.frames, clean_salvage.frames);
    EXPECT_EQ(salvage.events, written);
    EXPECT_EQ(salvage.strings, clean_salvage.strings);
    EXPECT_EQ(loaded.strings, clean.strings);
    ASSERT_EQ(loaded.events.size(), written);
    for (std::size_t i = 0; i < written; ++i) {
      EXPECT_TRUE(same_event(loaded.events[i], clean.events[i]));
    }
    EXPECT_EQ(salvage.bytes_recovered, clean_bytes.size());
    EXPECT_EQ(salvage.bytes_discarded, bytes.size() - clean_bytes.size());
  }
}

TEST(Wal, AnOutOfRangeThreadIdIsOneCorruptFrame) {
  // Two CRC-valid event frames; the second names a thread the analyses
  // cannot size state for.  Recovery ends at it, and the analysis of what
  // was recovered runs degraded instead of indexing per-thread state by it.
  const auto make_event_frame = [](const trace::Event& e) {
    std::string payload;
    put_le(&payload, e.seq, 8);
    put_le(&payload, static_cast<std::uint32_t>(e.tid), 4);
    put_le(&payload, 0, 4);  // rank
    put_le(&payload, static_cast<std::uint8_t>(e.kind), 1);
    put_le(&payload, e.obj, 8);
    put_le(&payload, 0, 8);  // aux
    put_le(&payload, 0, 4);  // no locks
    put_le(&payload, 0, 1);  // no MPI detail
    return make_frame('E', payload);
  };
  const std::string head = std::string("HOMEWAL1") +
      make_event_frame(make_event(1, 0, trace::EventKind::kMemWrite, 42));
  const trace::Event kBad[] = {
      make_event(2, -1, trace::EventKind::kMemWrite, 42),
      make_event(2, trace::kMaxTid, trace::EventKind::kMemRead, 42),
      make_event(2, 100'000'000, trace::EventKind::kMemRead, 42),
      make_event(2, 0, trace::EventKind::kThreadFork, 0xFFFFFFFFu),
      make_event(2, 0, trace::EventKind::kThreadJoin,
                 static_cast<trace::ObjId>(trace::kMaxTid)),
  };
  const std::string path = testing::TempDir() + "/home_wal_bad_tid.bin";
  for (const trace::Event& bad : kBad) {
    SCOPED_TRACE(bad.tid);
    const std::string bytes = head + make_event_frame(bad);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    trace::WalSalvage salvage;
    const trace::LoadedTrace loaded = trace::salvage_wal_file(path, &salvage);
    EXPECT_EQ(salvage.events, 1u);
    EXPECT_EQ(salvage.corrupt_frames, 1u);
    EXPECT_TRUE(salvage.torn);
    EXPECT_EQ(salvage.bytes_recovered, head.size());
    EXPECT_EQ(salvage.bytes_discarded, bytes.size() - head.size());
    ASSERT_EQ(loaded.events.size(), 1u);
    EXPECT_EQ(loaded.events[0].tid, 0);

    Report report({}, {});
    ASSERT_NO_THROW(report = analyze_wal_file(path, {}, &salvage));
    EXPECT_EQ(report.verdict(), Verdict::kDegraded);
  }
  std::remove(path.c_str());
}

TEST(Wal, TheLastEventKindAndMpiTypeDecode) {
  const std::string frame = make_frame(
      'E', typed_event_payload(trace::kEventKindCount - 1, -1));
  const std::string call = make_frame(
      'E', typed_event_payload(static_cast<int>(trace::EventKind::kMpiCall),
                               trace::kMpiCallTypeCount - 1));
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string bytes = slurp(path) + frame + call;
  std::remove(path.c_str());
  std::istringstream in(bytes);
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal(in, &salvage);
  EXPECT_TRUE(salvage.clean());
  EXPECT_EQ(salvage.events, written + 2);
  bool found = false;
  for (const trace::Event& e : loaded.events) {
    if (e.mpi && e.mpi->type == trace::MpiCallType::kCommSplit) found = true;
  }
  EXPECT_TRUE(found);
}

/// A read-only stream buffer that cannot seek or report its size, like a
/// pipe's.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(Wal, AStreamThatCannotSeekSalvagesLikeASeekableOne) {
  std::size_t written = 0;
  const std::string path = write_sample_wal(&written);
  const std::string clean_bytes = slurp(path);
  std::remove(path.c_str());

  // Every cut, read through a stream with no size to take: the same salvage
  // as a seekable stream over the same bytes, every byte accounted for.
  for (std::size_t cut = 0; cut <= clean_bytes.size(); ++cut) {
    const std::string bytes = clean_bytes.substr(0, cut);
    UnseekableBuf buf(bytes);
    std::istream pipe(&buf);
    std::istringstream seekable(bytes);
    trace::WalSalvage from_pipe, from_seekable;
    const trace::LoadedTrace by_pipe = trace::salvage_wal(pipe, &from_pipe);
    const trace::LoadedTrace by_seekable =
        trace::salvage_wal(seekable, &from_seekable);
    EXPECT_TRUE(same_salvage(from_pipe, from_seekable)) << "cut at " << cut;
    EXPECT_EQ(from_pipe.bytes_recovered + from_pipe.bytes_discarded, cut)
        << "cut at " << cut;
    ASSERT_EQ(by_pipe.events.size(), by_seekable.events.size());
    for (std::size_t i = 0; i < by_pipe.events.size(); ++i) {
      EXPECT_TRUE(same_event(by_pipe.events[i], by_seekable.events[i]));
    }
  }
}

TEST(Wal, ADirectoryPathIsUnrecoverableButNeverThrows) {
  // Depending on the platform a directory fails to open or opens as a
  // stream that claims a huge size and yields no bytes; either way nothing
  // was read, so nothing is recovered or discarded.
  trace::WalSalvage salvage;
  trace::LoadedTrace loaded;
  ASSERT_NO_THROW(loaded = trace::salvage_wal_file(testing::TempDir(), &salvage));
  EXPECT_TRUE(salvage.missing_header);
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_EQ(salvage.bytes_recovered, 0u);
  EXPECT_EQ(salvage.bytes_discarded, 0u);
}

TEST(Wal, MissingHeaderIsUnrecoverableButAccounted) {
  std::istringstream in("this is not a WAL file at all");
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal(in, &salvage);
  EXPECT_TRUE(salvage.missing_header);
  EXPECT_FALSE(salvage.clean());
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_GT(salvage.bytes_discarded, 0u);
}

TEST(Wal, SessionWalMatchesPostMortemAnalysis) {
  const std::string path = testing::TempDir() + "/home_wal_session.bin";
  SessionConfig scfg;
  scfg.wal_path = path;

  Report live({}, {});
  {
    Session session(scfg);
    UniverseConfig ucfg;
    ucfg.nranks = 2;
    session.configure(ucfg);
    Universe universe(ucfg);
    session.attach(universe);
    homp::set_default_threads(2);
    universe.run([](Process& p) {
      p.init_thread(ThreadLevel::kMultiple);
      homp::parallel(2, [&] {
        int a = 0;
        const int peer = 1 - p.rank();
        if (p.rank() == 0) {
          p.send(&a, 1, Datatype::kInt, peer, 0, kCommWorld, {"wt.send"});
        } else {
          p.recv(&a, 1, Datatype::kInt, peer, 0, kCommWorld, nullptr,
                 {"wt.recv"});
        }
      });
      p.finalize();
    });
    session.detach(universe);
    live = session.analyze();
  }  // session teardown closes the WAL.
  ASSERT_TRUE(live.has(spec::ViolationType::kConcurrentRecv));

  // The WAL alone reproduces the verdict, and a clean WAL is not degraded.
  trace::WalSalvage salvage;
  const Report recovered = analyze_wal_file(path, scfg, &salvage);
  EXPECT_TRUE(salvage.clean());
  EXPECT_EQ(recovered.verdict(), Verdict::kExact);
  EXPECT_TRUE(recovered.has(spec::ViolationType::kConcurrentRecv));
  EXPECT_EQ(recovered.violations().size(), live.violations().size());

  // A torn copy of the same WAL analyzes degraded, with the damage named.
  const std::string torn_path = testing::TempDir() + "/home_wal_torn.bin";
  const std::string bytes = slurp(path);
  {
    std::ofstream out(torn_path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - bytes.size() / 3));
  }
  trace::WalSalvage torn_salvage;
  const Report degraded = analyze_wal_file(torn_path, scfg, &torn_salvage);
  EXPECT_FALSE(torn_salvage.clean());
  EXPECT_EQ(degraded.verdict(), Verdict::kDegraded);
  EXPECT_FALSE(degraded.degraded_reasons().empty());
  std::remove(path.c_str());
  std::remove(torn_path.c_str());
}

// --- chunked salvage: one worker and four give the same result -------------

/// 280 events written in seq order through the writer: every third holds two
/// locks, and every seventh is an MPI call whose callsite string is
/// journaled just ahead of it (41 string frames with the empty label's, 321
/// frames in all).
std::string long_wal_bytes() {
  const std::string path = testing::TempDir() + "/home_wal_long.bin";
  {
    trace::StringTable strings;
    trace::WalWriter wal(path, &strings);
    EXPECT_TRUE(wal.ok());
    for (trace::Seq seq = 1; seq <= 280; ++seq) {
      trace::Event e = make_event(
          seq, static_cast<trace::Tid>(seq % 6),
          seq % 2 == 0 ? trace::EventKind::kMemWrite : trace::EventKind::kMemRead,
          100 + seq % 11);
      if (seq % 3 == 0) e.locks_held = {7, 8 + seq % 4};
      if (seq % 7 == 0) {
        e.kind = trace::EventKind::kMpiCall;
        trace::MpiCallInfo info;
        info.type = trace::MpiCallType::kIsend;
        info.peer = static_cast<int>(seq % 4);
        info.tag = static_cast<int>(seq);
        info.comm = 1;
        info.request = seq;
        info.callsite = strings.intern("long.site" + std::to_string(seq));
        e.mpi = info;
      }
      wal.on_event(e);
    }
    wal.close();
  }
  std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// Where the frames of an undamaged WAL start (the last entry is its end),
/// and how many event and string frames precede each.
struct FrameMap {
  std::vector<std::size_t> start;
  std::vector<std::size_t> events_before;
  std::vector<std::size_t> strings_before;

  std::size_t frames() const { return start.size() - 1; }
  /// The frame holding byte `at` (past the header).
  std::size_t frame_at(std::size_t at) const {
    std::size_t f = 0;
    while (start[f + 1] <= at) ++f;
    return f;
  }
};

FrameMap frame_map(const std::string& bytes) {
  FrameMap m;
  std::size_t pos = 8, events = 0, strings = 0;
  for (;;) {
    m.start.push_back(pos);
    m.events_before.push_back(events);
    m.strings_before.push_back(strings);
    if (pos >= bytes.size()) break;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[pos + 1 + i]))
             << (8 * i);
    }
    events += bytes[pos] == 'E' ? 1 : 0;
    strings += bytes[pos] == 'S' ? 1 : 0;
    pos += 9 + len;
  }
  return m;
}

/// One salvage on an explicit worker count, with the bump it gave
/// trace.corrupt_records.
struct Salvaged {
  trace::LoadedTrace trace;
  trace::WalSalvage stats;
  std::uint64_t corrupt_bump = 0;
};

Salvaged salvage_on(const std::string& bytes, std::size_t workers) {
  obs::Counter& corrupt =
      obs::Registry::global().counter("trace.corrupt_records");
  Salvaged out;
  std::istringstream in(bytes);
  const std::uint64_t before = corrupt.value();
  out.trace = trace::salvage_wal_on_workers(in, workers, &out.stats);
  out.corrupt_bump = corrupt.value() - before;
  return out;
}

/// Salvages `bytes` on one worker (one chunk) and on four (many chunks).
/// Both must give the same trace, accounting and counter bump (one for a
/// damaged file, none for a clean one), and neither may size its events
/// past what the file can hold.  Returns the four-worker salvage.
Salvaged expect_same_on_one_and_four_workers(const std::string& bytes,
                                             const std::string& what) {
  const Salvaged one = salvage_on(bytes, 1);
  Salvaged four = salvage_on(bytes, 4);
  EXPECT_TRUE(same_salvage(one.stats, four.stats)) << what;
  EXPECT_EQ(one.corrupt_bump, one.stats.clean() ? 0u : 1u) << what;
  EXPECT_EQ(four.corrupt_bump, one.corrupt_bump) << what;
  EXPECT_EQ(four.trace.strings, one.trace.strings) << what;
  EXPECT_EQ(four.trace.events.size(), one.trace.events.size()) << what;
  for (std::size_t i = 0;
       i < std::min(one.trace.events.size(), four.trace.events.size()); ++i) {
    EXPECT_TRUE(same_event(four.trace.events[i], one.trace.events[i]))
        << what << ", event " << i;
  }
  const std::size_t bound = bytes.size() < 8 ? 0 : (bytes.size() - 8) / 47;
  EXPECT_LE(one.trace.events.capacity(), bound) << what;
  EXPECT_LE(four.trace.events.capacity(), bound) << what;
  return four;
}

/// `got` kept exactly the first `kept` frames of the undamaged WAL that
/// `clean` and `map` describe, out of a file of `size` bytes.
void expect_kept_frames(const Salvaged& got, const trace::LoadedTrace& clean,
                        const FrameMap& map, std::size_t kept, std::size_t size,
                        const std::string& what) {
  EXPECT_EQ(got.stats.frames, kept) << what;
  EXPECT_EQ(got.stats.bytes_recovered, map.start[kept]) << what;
  EXPECT_EQ(got.stats.bytes_recovered + got.stats.bytes_discarded, size)
      << what;
  EXPECT_EQ(got.stats.clean(), map.start[kept] == size) << what;
  EXPECT_EQ(got.stats.corrupt_frames, map.start[kept] == size ? 0u : 1u)
      << what;
  ASSERT_EQ(got.trace.events.size(), map.events_before[kept]) << what;
  EXPECT_EQ(got.stats.events, map.events_before[kept]) << what;
  for (std::size_t i = 0; i < got.trace.events.size(); ++i) {
    EXPECT_TRUE(same_event(got.trace.events[i], clean.events[i]))
        << what << ", event " << i;
  }
  EXPECT_EQ(got.stats.strings, map.strings_before[kept]) << what;
  EXPECT_EQ(got.trace.strings,
            std::vector<std::string>(
                clean.strings.begin(),
                clean.strings.begin() +
                    static_cast<std::ptrdiff_t>(map.strings_before[kept])))
      << what;
}

TEST(WalChunks, TheLongWalLoadsWholeAndCleanOnAnyWorkerCount) {
  const std::string bytes = long_wal_bytes();
  const FrameMap map = frame_map(bytes);
  ASSERT_GE(map.frames(), 300u);
  ASSERT_EQ(map.start.back(), bytes.size());
  const Salvaged four = expect_same_on_one_and_four_workers(bytes, "clean");
  ASSERT_TRUE(four.stats.clean());
  ASSERT_EQ(four.trace.events.size(), 280u);
  ASSERT_EQ(four.trace.strings.size(), 41u);
  for (std::size_t workers : {2u, 3u, 7u, 64u}) {
    const Salvaged got = salvage_on(bytes, workers);
    expect_kept_frames(got, four.trace, map, map.frames(), bytes.size(),
                       std::to_string(workers) + " workers");
  }
  // The MPI detail, the locks and the callsite labels survive the chunking.
  const trace::Event& call = four.trace.events[7 * 6 - 1];
  ASSERT_TRUE(call.mpi.has_value());
  EXPECT_EQ(call.locks_held, (std::vector<trace::ObjId>{7, 8 + 42 % 4}));
  EXPECT_EQ(four.trace.label(call.mpi->callsite), "long.site42");
}

TEST(WalChunks, EveryTruncationSalvagesTheSameOnOneAndFourWorkers) {
  const std::string bytes = long_wal_bytes();
  const FrameMap map = frame_map(bytes);
  const trace::LoadedTrace clean = salvage_on(bytes, 1).trace;
  std::size_t kept = 0;  // whole frames below the cut.
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    while (kept < map.frames() && map.start[kept + 1] <= cut) ++kept;
    const std::string what = "cut at byte " + std::to_string(cut);
    const std::string torn = bytes.substr(0, cut);
    const Salvaged got = expect_same_on_one_and_four_workers(torn, what);
    if (cut < 8) {
      EXPECT_TRUE(got.stats.missing_header) << what;
      continue;
    }
    expect_kept_frames(got, clean, map, kept, cut, what);
  }
}

TEST(WalChunks, EveryFlippedByteSalvagesTheSameOnOneAndFourWorkers) {
  const std::string clean_bytes = long_wal_bytes();
  const FrameMap map = frame_map(clean_bytes);
  const trace::LoadedTrace clean = salvage_on(clean_bytes, 1).trace;
  for (std::size_t at = 0; at < clean_bytes.size(); ++at) {
    const std::string what = "byte " + std::to_string(at);
    std::string bytes = clean_bytes;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
    const Salvaged got = expect_same_on_one_and_four_workers(bytes, what);
    if (at < 8) {
      EXPECT_TRUE(got.stats.missing_header) << what;
      continue;
    }
    // Recovery ends at the frame the flip landed in.
    expect_kept_frames(got, clean, map, map.frame_at(at), bytes.size(), what);
  }
}

TEST(WalChunks, ACrcValidBadFrameAtEveryBoundaryEndsRecoveryThere) {
  const std::string clean_bytes = long_wal_bytes();
  const FrameMap map = frame_map(clean_bytes);
  const trace::LoadedTrace clean = salvage_on(clean_bytes, 1).trace;
  const auto string_frame = [](std::uint64_t id) {
    std::string payload;
    put_le(&payload, id, 4);
    payload += "label";
    return make_frame('S', payload);
  };
  for (std::size_t f = 0; f <= map.frames(); ++f) {
    const std::string head = clean_bytes.substr(0, map.start[f]);
    const std::string tail = clean_bytes.substr(map.start[f]);
    const std::string kBad[] = {
        string_frame(map.strings_before[f] + 1),  // the wrong string id
        make_frame('S', "ab"),                     // shorter than an id
        make_frame('E', ""),                       // shorter than an event
        make_frame('E', event_payload(2, 1)),      // one lock short
    };
    for (const std::string& bad : kBad) {
      const std::string bytes = head + bad + tail;
      const std::string what = "bad frame of " + std::to_string(bad.size()) +
                               " bytes before frame " + std::to_string(f);
      const Salvaged got = expect_same_on_one_and_four_workers(bytes, what);
      expect_kept_frames(got, clean, map, f, bytes.size(), what);
    }
    // A frame of a type this version does not know is skipped.
    const std::string future = make_frame('X', "a frame from a newer writer");
    const std::string what = "unknown frame before frame " + std::to_string(f);
    const Salvaged got =
        expect_same_on_one_and_four_workers(head + future + tail, what);
    EXPECT_TRUE(got.stats.clean()) << what;
    EXPECT_EQ(got.stats.frames, map.frames() + 1) << what;
    EXPECT_EQ(got.trace.strings, clean.strings) << what;
    ASSERT_EQ(got.trace.events.size(), clean.events.size()) << what;
  }
}

TEST(WalChunks, OutOfOrderSeqsOnEitherSideOfEverySeamComeBackSorted) {
  // Forty frames of one size, cut into chunks of two frames on four
  // workers.  Swapping every adjacent pair in turn puts an out-of-order seq
  // inside each chunk and across each seam.
  constexpr trace::Seq kEvents = 40;
  const std::string path = testing::TempDir() + "/home_wal_swapped.bin";
  for (trace::Seq swap = 1; swap < kEvents; ++swap) {
    std::vector<trace::Seq> order;
    for (trace::Seq seq = 1; seq <= kEvents; ++seq) order.push_back(seq);
    std::swap(order[swap - 1], order[swap]);
    {
      trace::StringTable strings;
      trace::WalWriter wal(path, &strings);
      ASSERT_TRUE(wal.ok());
      for (const trace::Seq seq : order) {
        wal.on_event(make_event(seq, static_cast<trace::Tid>(seq % 3),
                                trace::EventKind::kMemWrite, 100 + seq));
      }
      wal.close();
    }
    const std::string bytes = slurp(path);
    const std::string what = "frames " + std::to_string(swap - 1) + " and " +
                             std::to_string(swap) + " swapped";
    const Salvaged got = expect_same_on_one_and_four_workers(bytes, what);
    EXPECT_TRUE(got.stats.clean()) << what;
    ASSERT_EQ(got.trace.events.size(), kEvents) << what;
    for (std::size_t i = 0; i < got.trace.events.size(); ++i) {
      const trace::Event& e = got.trace.events[i];
      EXPECT_EQ(e.seq, i + 1) << what;
      EXPECT_EQ(e.obj, 100 + e.seq) << what;  // each payload keeps its seq.
    }
  }
  std::remove(path.c_str());
}

TEST(WalChunks, NineByteEventFramesSizeNoEvents) {
  // An 'E' frame with an empty payload is framed and CRC-valid, but holds
  // no event: the walk stops at it instead of sizing the event vector by
  // the count of such headers.
  const std::string empty_event = make_frame('E', "");
  ASSERT_EQ(empty_event.size(), 9u);
  std::string only_empty = "HOMEWAL1";
  for (int i = 0; i < 500; ++i) only_empty += empty_event;
  const Salvaged none =
      expect_same_on_one_and_four_workers(only_empty, "nine-byte frames only");
  EXPECT_TRUE(none.trace.events.empty());
  EXPECT_EQ(none.stats.corrupt_frames, 1u);
  EXPECT_EQ(none.stats.bytes_recovered, 8u);
  EXPECT_EQ(none.stats.bytes_discarded, 500u * 9u);

  // The same behind a whole WAL: its events load, the empty frames do not.
  const std::string bytes = long_wal_bytes();
  std::string padded = bytes;
  for (int i = 0; i < 3000; ++i) padded += empty_event;
  const Salvaged got =
      expect_same_on_one_and_four_workers(padded, "nine-byte frames behind");
  EXPECT_EQ(got.trace.events.size(), 280u);
  EXPECT_EQ(got.stats.bytes_recovered, bytes.size());
  EXPECT_EQ(got.stats.corrupt_frames, 1u);
}

// --- strict text loader over the committed corrupted corpus ----------------

/// One corpus file and the error the strict loader refuses it with (null:
/// the file loads).
struct CorpusCase {
  const char* file;
  const char* error;
};

TEST(CorruptCorpus, StrictLoaderRejectsEveryDamagedCase) {
  // Every damaged file is refused with the first malformed record's reason,
  // never loaded with zero-filled events; a header alone is an empty trace.
  const CorpusCase kCases[] = {
      {"case01_short_event.trace", "malformed event line"},
      {"case02_bad_tag.trace", "bad record 'X'"},
      {"case03_truncated_lockset.trace", "truncated lockset"},
      {"case04_absurd_lock_count.trace", "malformed event line"},
      {"case05_negative_kind.trace", "malformed event line"},
      {"case06_huge_kind.trace", "malformed event line"},
      {"case07_absurd_string_id.trace", "malformed string record"},
      {"case08_short_string.trace", "malformed string record"},
      {"case09_truncated_mpi.trace", "truncated MPI record"},
      {"case10_bad_marker.trace", "bad marker"},
      {"case11_missing_header.trace", "missing header"},
      {"case12_wrong_version.trace", "missing header"},
      {"case13_garbage_line.trace", "bad record '@@##binary?garbage**'"},
      {"case14_nonnumeric_seq.trace", "malformed event line"},
      {"case15_torn_tail.trace", "malformed event line"},
      {"case16_empty.trace", "missing header"},
      {"case17_header_only.trace", nullptr},
      {"case18_lone_tag.trace", "malformed event line"},
      {"case19_nonnumeric_string_id.trace", "malformed string record"},
      {"case20_multi_damage.trace", "malformed event line"},
      {"case21_out_of_range_tid.trace", "thread id out of range"},
  };
  static_assert(sizeof(kCases) / sizeof(kCases[0]) == 21,
                "the corpus is specified as twenty-one cases");

  for (const CorpusCase& c : kCases) {
    SCOPED_TRACE(c.file);
    const std::string path = std::string(HOME_CORPUS_DIR) + "/" + c.file;
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << "missing corpus file " << path;
    if (c.error == nullptr) {
      trace::LoadedTrace loaded;
      ASSERT_NO_THROW(loaded = trace::read_trace(in));
      EXPECT_TRUE(loaded.events.empty());
      EXPECT_TRUE(loaded.strings.empty());
      continue;
    }
    try {
      trace::read_trace(in);
      ADD_FAILURE() << "a damaged trace loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), std::string("trace_io: ") + c.error);
    }
  }
}

TEST(CorruptCorpus, AnOutOfRangeThreadIdIsOneMalformedLine) {
  // Case 21: an event of thread -1 among four good ones.  The strict loader
  // refuses the file for that line alone: without it, the rest loads.
  const std::string path =
      std::string(HOME_CORPUS_DIR) + "/case21_out_of_range_tid.trace";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing corpus file " << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::istringstream damaged(text);
  EXPECT_THROW(trace::read_trace(damaged), std::runtime_error);

  const std::string bad_line = "E 5 -1 0 0 42 0 0\n";
  const std::size_t at = text.find(bad_line);
  ASSERT_NE(at, std::string::npos);
  std::istringstream repaired(text.erase(at, bad_line.size()));
  const trace::LoadedTrace loaded = trace::read_trace(repaired);
  EXPECT_EQ(loaded.events.size(), 4u);
  for (const trace::Event& e : loaded.events) EXPECT_GE(e.tid, 0);
}

}  // namespace
}  // namespace home
