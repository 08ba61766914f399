#include "src/trace/wal.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <string_view>
#include <type_traits>

#include "src/obs/telemetry.hpp"

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
/// The smallest 'E' frame (seq..aux, lock count and MPI flag: 38 payload
/// bytes): bounds how many events a file of a given size can hold.
constexpr std::size_t kMinEventFrame = kFrameOverhead + 38;

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

/// The salvage parser: frames are validated and decoded in place.
LoadedTrace salvage_bytes(std::string_view bytes, WalSalvage* stats) {
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
  result.events.reserve((bytes.size() - sizeof(kMagic)) / kMinEventFrame);

  std::size_t pos = sizeof(kMagic);
  while (pos < bytes.size()) {
    const char* frame = bytes.data() + pos;
    const std::size_t avail = bytes.size() - pos;
    const std::uint32_t len =
        avail >= kFrameOverhead ? load<std::uint32_t>(frame + 1) : 0;
    bool bad = avail < kFrameOverhead || len > kMaxFrameLen ||
               len > avail - kFrameOverhead ||
               crc32(frame, kFrameHead + len) !=
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
        if (r.get(&id) && id == result.strings.size()) {
          result.strings.emplace_back(payload.substr(r.pos));
          ++salvage.strings;
        } else {
          bad = true;
        }
      } else if (frame[0] == 'E') {
        if (decode_event(payload, &result.events.emplace_back())) {
          ++salvage.events;
        } else {
          result.events.pop_back();
          bad = true;
        }
      }
    }
    if (bad) {
      // Longest-valid-prefix discipline: the first damaged frame ends
      // recovery — after it, frame boundaries can't be trusted.
      ++salvage.corrupt_frames;
      salvage.torn = true;
      salvage.bytes_discarded = bytes.size() - pos;
      corrupt_counter.add();
      break;
    }
    ++salvage.frames;
    pos += kFrameOverhead + len;
  }
  salvage.bytes_recovered = pos;

  // Frames are journaled in publish order, which is almost always seq
  // order: a linear check skips the sort then.
  const auto by_seq = [](const Event& a, const Event& b) {
    return a.seq < b.seq;
  };
  if (!std::is_sorted(result.events.begin(), result.events.end(), by_seq)) {
    std::stable_sort(result.events.begin(), result.events.end(), by_seq);
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
  if (!out_) {
    ok_ = false;
    return;
  }
  ++frames_;
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
  return salvage_bytes(read_all(in), stats);
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
