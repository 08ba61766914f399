// Trace durability tests (ISSUE-10): CRC32-framed WAL round trips, the
// salvage loader's longest-valid-prefix discipline over torn/corrupt files,
// degraded-mode analysis of salvaged traces, and the hardened (lenient)
// text-trace loader over the committed 20-case corrupted corpus.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
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

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The standard CRC-32 check vector.
  EXPECT_EQ(trace::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(trace::crc32("", 0), 0u);
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

// --- hardened text loader over the committed corrupted corpus ---------------

struct CorpusCase {
  const char* file;
  std::size_t events;    ///< events the lenient loader must still recover.
  std::size_t corrupt;   ///< corrupt records it must count.
};

TEST(CorruptCorpus, LenientLoaderSurvivesAllTwentyCases) {
  const CorpusCase kCases[] = {
      {"case01_short_event.trace", 4, 1},
      {"case02_bad_tag.trace", 4, 1},
      {"case03_truncated_lockset.trace", 4, 1},
      {"case04_absurd_lock_count.trace", 4, 1},
      {"case05_negative_kind.trace", 4, 1},
      {"case06_huge_kind.trace", 4, 1},
      {"case07_absurd_string_id.trace", 4, 1},
      {"case08_short_string.trace", 4, 1},
      {"case09_truncated_mpi.trace", 4, 1},
      {"case10_bad_marker.trace", 4, 1},
      {"case11_missing_header.trace", 4, 1},
      {"case12_wrong_version.trace", 4, 1},
      {"case13_garbage_line.trace", 4, 1},
      {"case14_nonnumeric_seq.trace", 4, 1},
      {"case15_torn_tail.trace", 4, 1},
      {"case16_empty.trace", 0, 0},
      {"case17_header_only.trace", 0, 0},
      {"case18_lone_tag.trace", 1, 1},
      {"case19_nonnumeric_string_id.trace", 4, 1},
      {"case20_multi_damage.trace", 3, 4},
  };
  static_assert(sizeof(kCases) / sizeof(kCases[0]) == 20,
                "the corpus is specified as twenty cases");

  for (const CorpusCase& c : kCases) {
    const std::string path = std::string(HOME_CORPUS_DIR) + "/" + c.file;
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << "missing corpus file " << path;
    trace::ReadStats stats;
    trace::LoadedTrace loaded;
    ASSERT_NO_THROW(loaded = trace::read_trace_lenient(in, &stats)) << c.file;
    EXPECT_EQ(loaded.events.size(), c.events) << c.file;
    EXPECT_EQ(stats.corrupt_records, c.corrupt) << c.file;
  }
}

TEST(CorruptCorpus, StrictLoaderRejectsWhatLenientSkips) {
  // The strict loader must refuse the same damage the lenient one skips —
  // silent zero-filled events are the failure mode both guard against.
  const char* kThrowing[] = {
      "case01_short_event.trace",  "case03_truncated_lockset.trace",
      "case09_truncated_mpi.trace", "case11_missing_header.trace",
      "case15_torn_tail.trace",
  };
  for (const char* file : kThrowing) {
    std::ifstream in(std::string(HOME_CORPUS_DIR) + "/" + file);
    ASSERT_TRUE(in.is_open()) << file;
    EXPECT_THROW(trace::read_trace(in), std::runtime_error) << file;
  }
}

}  // namespace
}  // namespace home
