#include "src/trace/wal.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <istream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/obs/telemetry.hpp"
#include "src/util/thread_pool.hpp"

namespace home::trace {

namespace {

constexpr char kMagic[8] = {'H', 'O', 'M', 'E', 'W', 'A', 'L', '1'};
/// Sanity ceiling on one frame's payload: an Event with thousands of held
/// locks is still far below this, so anything larger is corruption, not
/// data — refusing it keeps a flipped length byte from driving a huge
/// allocation in the salvage loader.
constexpr std::uint32_t kMaxFrameLen = 1u << 24;
/// type:u8 + len:u32le ahead of the payload, crc:u32le after it.
constexpr std::size_t kFrameHead = 5;
constexpr std::size_t kFrameOverhead = kFrameHead + 4;
/// The smallest 'E' payload (seq..aux, lock count and MPI flag) and 'S'
/// payload (the id).
constexpr std::size_t kMinEventPayload = 38;
constexpr std::size_t kMinStringPayload = 4;
/// The smallest 'E' frame: bounds how many events a file of a given size
/// can hold.
constexpr std::size_t kMinEventFrame = kFrameOverhead + kMinEventPayload;
/// Files too small to hold this many events salvage on the calling thread.
constexpr std::size_t kParallelSalvageBytes =
    util::kParallelAnalysisThreshold * kMinEventFrame;
/// Chunks per salvage worker.  Workers take chunks from a shared counter, so
/// a worker whose parked thread wakes late (tens to hundreds of
/// microseconds on a virtual machine) takes fewer, and the calling thread,
/// which starts at once, takes more.
constexpr std::size_t kChunksPerWorker = 8;
constexpr std::size_t kNoDamage = static_cast<std::size_t>(-1);

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table, and
/// table[k][i] advances table[k-1][i] over one more zero byte, so eight
/// lookups consume eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

// --- little-endian encoding -------------------------------------------------
// Byte at a time in both directions, so neither the files nor the CRC depend
// on the host's byte order (compilers fuse the loads where it is LE).

template <typename T>
void put(std::string* out, T x) {
  const auto u = static_cast<std::make_unsigned_t<T>>(x);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
  }
}

template <typename U>
U load(const void* data) {
  const auto* p = static_cast<const unsigned char*>(data);
  U x = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    x |= static_cast<U>(p[i]) << (8 * i);
  }
  return x;
}

/// Bounds-checked little-endian reads over a payload view; false = short
/// payload (corrupt).
struct Reader {
  std::string_view buf;
  std::size_t pos = 0;

  template <typename T>
  bool get(T* x) {
    using U = std::make_unsigned_t<T>;
    if (buf.size() - pos < sizeof(T)) return false;
    *x = static_cast<T>(load<U>(buf.data() + pos));
    pos += sizeof(T);
    return true;
  }
  bool done() const { return pos == buf.size(); }
};

// The format's i32 fields (rank, peer, tag) are stored from plain ints.
static_assert(sizeof(int) == 4, "the WAL format stores ints as i32");

void encode_event(const Event& e, std::string* out) {
  put(out, e.seq);
  put(out, e.tid);
  put(out, e.rank);
  put(out, static_cast<std::uint8_t>(e.kind));
  put(out, e.obj);
  put(out, e.aux);
  put(out, static_cast<std::uint32_t>(e.locks_held.size()));
  for (ObjId lock : e.locks_held) put(out, lock);
  put(out, static_cast<std::uint8_t>(e.mpi.has_value() ? 1 : 0));
  if (e.mpi) {
    put(out, static_cast<std::uint8_t>(e.mpi->type));
    put(out, e.mpi->peer);
    put(out, e.mpi->tag);
    put(out, e.mpi->comm);
    put(out, e.mpi->request);
    put(out, static_cast<std::uint8_t>(e.mpi->on_main_thread ? 1 : 0));
    put(out, e.mpi->provided);
    put(out, e.mpi->callsite);
  }
}

/// Decodes into `*e`, which must be default-constructed; on false its
/// contents are unspecified.
bool decode_event(std::string_view payload, Event* e) {
  Reader r{payload};
  std::uint8_t kind = 0, has_mpi = 0;
  std::uint32_t nlocks = 0;
  if (!r.get(&e->seq) || !r.get(&e->tid) || !r.get(&e->rank) ||
      !r.get(&kind) || !r.get(&e->obj) || !r.get(&e->aux) ||
      !r.get(&nlocks)) {
    return false;
  }
  // An event kind or MPI type outside its enum is corrupt: the type indexes
  // the MPI routine table.
  if (kind >= kEventKindCount) return false;
  e->kind = static_cast<EventKind>(kind);
  // The analyses size per-thread state by tid.
  if (!tids_in_range(*e)) return false;
  // A lock count the payload cannot hold is corrupt: refuse it before
  // sizing the lockset from it.
  if (nlocks > (payload.size() - r.pos) / 8) return false;
  e->locks_held.resize(nlocks);
  for (ObjId& lock : e->locks_held) {
    if (!r.get(&lock)) return false;
  }
  if (!r.get(&has_mpi)) return false;
  if (has_mpi != 0) {
    MpiCallInfo info;
    std::uint8_t type = 0, main_thread = 0;
    if (!r.get(&type) || !r.get(&info.peer) || !r.get(&info.tag) ||
        !r.get(&info.comm) || !r.get(&info.request) || !r.get(&main_thread) ||
        !r.get(&info.provided) || !r.get(&info.callsite) ||
        type >= kMpiCallTypeCount) {
      return false;
    }
    info.type = static_cast<MpiCallType>(type);
    info.on_main_thread = main_thread != 0;
    e->mpi = info;
  }
  return r.done();  // trailing garbage inside a framed payload is corrupt.
}

/// The whole remaining stream, in one sized read when the stream can report
/// its size and in chunks when it cannot (a pipe).
std::string read_all(std::istream& in) {
  std::string bytes;
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    // Size by the stream only when bytes stand behind it: a directory
    // opens as a stream that reports 2^63 - 1 and reads nothing.
    if (end != std::istream::pos_type(-1) && end > start &&
        in.peek() != std::istream::traits_type::eof()) {
      bytes.resize(static_cast<std::size_t>(end - start));
      in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      bytes.resize(static_cast<std::size_t>(in.gcount()));
    }
  }
  in.clear();
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)), in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

/// A run of whole frames that one job checks and decodes in place.
struct Chunk {
  std::size_t begin = 0;         ///< offset of its first frame.
  std::size_t end = 0;           ///< one past its last frame.
  std::size_t first_event = 0;   ///< slot of its first 'E' frame's event.
  std::size_t first_string = 0;  ///< id its first 'S' frame must carry.
  // What decode_chunk found:
  std::size_t damaged = kNoDamage;  ///< offset of its first damaged frame.
  std::size_t frames = 0;           ///< valid frames before that one.
  std::size_t events = 0;
  std::size_t strings = 0;
  bool sorted = true;  ///< its events are in seq order.
};

/// Where the header walk found the frames.
struct FrameLayout {
  std::vector<Chunk> chunks;
  std::size_t end = 0;  ///< offset of the first frame it could not frame.
  std::size_t events = 0;
  std::size_t strings = 0;
};

/// The header walk reads types and lengths only.  It stops at the first
/// frame it cannot frame, which is the first damaged frame unless a CRC or
/// a decode fails earlier; an 'E' frame too short for an event and an 'S'
/// frame too short for its id are such frames, so no counted event frame
/// is under kMinEventFrame bytes.  Whole frames are cut into at most
/// `max_chunks` runs of about equal bytes.
FrameLayout walk_frames(std::string_view bytes, std::size_t max_chunks) {
  FrameLayout layout;
  std::size_t pos = sizeof(kMagic);
  const std::size_t target =
      (bytes.size() - pos + max_chunks - 1) / max_chunks;
  layout.chunks.emplace_back().begin = pos;
  while (bytes.size() - pos >= kFrameOverhead) {
    const char type = bytes[pos];
    const std::uint32_t len = load<std::uint32_t>(bytes.data() + pos + 1);
    if (len > kMaxFrameLen || len > bytes.size() - pos - kFrameOverhead ||
        (type == 'E' && len < kMinEventPayload) ||
        (type == 'S' && len < kMinStringPayload)) {
      break;
    }
    if (pos - layout.chunks.back().begin >= target &&
        layout.chunks.size() < max_chunks) {
      layout.chunks.back().end = pos;
      Chunk& next = layout.chunks.emplace_back();
      next.begin = pos;
      next.first_event = layout.events;
      next.first_string = layout.strings;
    }
    layout.events += type == 'E' ? 1 : 0;
    layout.strings += type == 'S' ? 1 : 0;
    pos += kFrameOverhead + len;
  }
  layout.chunks.back().end = pos;
  layout.end = pos;
  return layout;
}

/// Checks the CRC of each of `c`'s frames and decodes it into its slot, up
/// to its first damaged frame.  The slots were sized by the walk.
void decode_chunk(std::string_view bytes, Chunk* c, LoadedTrace* out) {
  Seq last_seq = 0;
  for (std::size_t pos = c->begin; pos < c->end;) {
    const char* frame = bytes.data() + pos;
    const std::uint32_t len = load<std::uint32_t>(frame + 1);
    bool bad = crc32(frame, kFrameHead + len) !=
               load<std::uint32_t>(frame + kFrameHead + len);
    if (!bad) {
      // Framed bytes are intact; decode by type.  An unknown type with a
      // valid CRC is a future-version frame — skip it, keep salvaging.
      const std::string_view payload = bytes.substr(pos + kFrameHead, len);
      if (frame[0] == 'S') {
        // The writer emits string ids 0, 1, 2, ... in order, so any other
        // id is damage (and must not size the table).
        Reader r{payload};
        std::uint32_t id = 0;
        bad = !r.get(&id) || id != c->first_string + c->strings;
        if (!bad) {
          out->strings[id] = payload.substr(r.pos);
          ++c->strings;
        }
      } else if (frame[0] == 'E') {
        Event& e = out->events[c->first_event + c->events];
        bad = !decode_event(payload, &e);
        if (!bad) {
          c->sorted = c->sorted && (c->events == 0 || last_seq <= e.seq);
          last_seq = e.seq;
          ++c->events;
        }
      }
    }
    if (bad) {
      c->damaged = pos;
      return;
    }
    ++c->frames;
    pos += kFrameOverhead + len;
  }
}

/// The salvage parser.  The calling thread walks the frame headers and
/// sizes the event and string vectors once; then `workers` jobs check and
/// decode the chunks in place, and the chunks before the first damaged
/// frame are kept.
LoadedTrace salvage_bytes(std::string_view bytes, std::size_t workers,
                          WalSalvage* stats) {
  LoadedTrace result;
  WalSalvage salvage;
  obs::Counter& corrupt_counter =
      obs::Registry::global().counter("trace.corrupt_records");

  if (bytes.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    // Whatever was read is unrecoverable without the header.
    salvage.missing_header = true;
    salvage.torn = true;
    salvage.bytes_discarded = bytes.size();
    corrupt_counter.add();
    if (stats != nullptr) *stats = salvage;
    return result;
  }

  workers = std::max<std::size_t>(1, workers);
  FrameLayout layout =
      walk_frames(bytes, workers == 1 ? 1 : workers * kChunksPerWorker);
  result.events.resize(layout.events);
  result.strings.resize(layout.strings);
  std::vector<Chunk>& chunks = layout.chunks;
  std::atomic<std::size_t> next{0};
  util::run_jobs(std::min(workers, chunks.size()), [&](std::size_t) {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < chunks.size(); k = next.fetch_add(1, std::memory_order_relaxed)) {
      decode_chunk(bytes, &chunks[k], &result);
    }
  });

  // Longest-valid-prefix discipline: the first damaged frame by position
  // ends recovery — after it, frame boundaries can't be trusted.  What the
  // chunks behind it decoded is dropped.
  std::size_t end = layout.end;
  bool sorted = true;
  const Event* last = nullptr;  // the kept chunks' last event so far.
  for (const Chunk& c : chunks) {
    salvage.frames += c.frames;
    salvage.events += c.events;
    salvage.strings += c.strings;
    if (c.events > 0) {
      const Event* first = &result.events[c.first_event];
      sorted = sorted && c.sorted && (last == nullptr || last->seq <= first->seq);
      last = first + (c.events - 1);
    }
    if (c.damaged != kNoDamage) {
      end = c.damaged;
      break;
    }
  }
  result.events.resize(salvage.events);
  result.strings.resize(salvage.strings);
  if (end < bytes.size()) {
    ++salvage.corrupt_frames;
    salvage.torn = true;
    salvage.bytes_discarded = bytes.size() - end;
    corrupt_counter.add();
  }
  salvage.bytes_recovered = end;

  // Frames are journaled in publish order, which is almost always seq
  // order: the chunks' linear checks skip the sort then.
  if (!sorted) {
    std::stable_sort(result.events.begin(), result.events.end(),
                     [](const Event& a, const Event& b) { return a.seq < b.seq; });
  }
  if (stats != nullptr) *stats = salvage;
  return result;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load<std::uint32_t>(p);
    const std::uint32_t hi = load<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

WalWriter::WalWriter(const std::string& path, const StringTable* strings)
    : path_(path), strings_(strings) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return;
  out_.write(kMagic, sizeof(kMagic));
  out_.flush();
  ok_ = static_cast<bool>(out_);
}

WalWriter::~WalWriter() { close(); }

void WalWriter::start_frame(char type) {
  frame_.clear();
  frame_.push_back(type);
  frame_.append(4, '\0');  // the length, known once the payload is in.
}

void WalWriter::write_frame() {
  if (!ok_) return;
  const auto len = static_cast<std::uint32_t>(frame_.size() - kFrameHead);
  for (std::size_t i = 0; i < 4; ++i) {
    frame_[1 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  put(&frame_, crc32(frame_.data(), frame_.size()));
  out_.write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  // Flush per frame: the journal's whole point is that the OS has the bytes
  // before the run advances past the emit.
  out_.flush();
  if (!out_) ok_ = false;
}

void WalWriter::sync_strings() {
  if (strings_ == nullptr) return;
  const auto n = static_cast<std::uint32_t>(strings_->size());
  for (; next_string_id_ < n; ++next_string_id_) {
    start_frame('S');
    put(&frame_, next_string_id_);
    frame_ += strings_->lookup(next_string_id_);
    write_frame();
  }
}

void WalWriter::on_event(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  sync_strings();
  start_frame('E');
  encode_event(e, &frame_);
  write_frame();
}

void WalWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  if (ok_) sync_strings();  // trailing interns with no event after them.
  out_.flush();
  out_.close();
}

LoadedTrace salvage_wal(std::istream& in, WalSalvage* stats) {
  const std::string bytes = read_all(in);
  // One worker per hardware thread once the file can hold
  // util::kParallelAnalysisThreshold events.  hardware_concurrency() reads
  // sysfs on Linux: ask only when it can matter.
  const std::size_t workers =
      bytes.size() < kParallelSalvageBytes
          ? 1
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return salvage_bytes(bytes, workers, stats);
}

LoadedTrace salvage_wal_on_workers(std::istream& in, std::size_t workers,
                                   WalSalvage* stats) {
  return salvage_bytes(read_all(in), workers, stats);
}

LoadedTrace salvage_wal_file(const std::string& path, WalSalvage* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    WalSalvage salvage;
    salvage.missing_header = true;
    salvage.torn = true;
    if (stats != nullptr) *stats = salvage;
    return LoadedTrace{};
  }
  return salvage_wal(in, stats);
}

}  // namespace home::trace
