#include "src/trace/wal.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>

#include "src/obs/telemetry.hpp"

namespace home::trace {

namespace {

constexpr char kMagic[8] = {'H', 'O', 'M', 'E', 'W', 'A', 'L', '1'};
/// Sanity ceiling on one frame's payload: an Event with thousands of held
/// locks is still far below this, so anything larger is corruption, not
/// data — refusing it keeps a flipped length byte from driving a huge
/// allocation in the salvage loader.
constexpr std::uint32_t kMaxFrameLen = 1u << 24;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// --- little-endian payload encoding ---------------------------------------

void put_u8(std::string* out, std::uint8_t x) {
  out->push_back(static_cast<char>(x));
}

void put_u32(std::string* out, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string* out, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
  }
}

void put_i32(std::string* out, std::int32_t x) {
  put_u32(out, static_cast<std::uint32_t>(x));
}

/// Bounds-checked little-endian reads; false = short payload (corrupt).
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;

  bool u8(std::uint8_t* x) {
    if (pos + 1 > buf.size()) return false;
    *x = static_cast<std::uint8_t>(buf[pos++]);
    return true;
  }
  bool u32(std::uint32_t* x) {
    if (pos + 4 > buf.size()) return false;
    *x = 0;
    for (int i = 0; i < 4; ++i) {
      *x |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos++]))
            << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t* x) {
    if (pos + 8 > buf.size()) return false;
    *x = 0;
    for (int i = 0; i < 8; ++i) {
      *x |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos++]))
            << (8 * i);
    }
    return true;
  }
  bool i32(std::int32_t* x) {
    std::uint32_t u = 0;
    if (!u32(&u)) return false;
    *x = static_cast<std::int32_t>(u);
    return true;
  }
  bool done() const { return pos == buf.size(); }
};

std::string encode_event(const Event& e) {
  std::string payload;
  payload.reserve(48 + e.locks_held.size() * 8);
  put_u64(&payload, e.seq);
  put_i32(&payload, e.tid);
  put_i32(&payload, e.rank);
  put_u8(&payload, static_cast<std::uint8_t>(e.kind));
  put_u64(&payload, e.obj);
  put_u64(&payload, e.aux);
  put_u32(&payload, static_cast<std::uint32_t>(e.locks_held.size()));
  for (ObjId lock : e.locks_held) put_u64(&payload, lock);
  put_u8(&payload, e.mpi.has_value() ? 1 : 0);
  if (e.mpi) {
    put_u8(&payload, static_cast<std::uint8_t>(e.mpi->type));
    put_i32(&payload, e.mpi->peer);
    put_i32(&payload, e.mpi->tag);
    put_u64(&payload, e.mpi->comm);
    put_u64(&payload, e.mpi->request);
    put_u8(&payload, e.mpi->on_main_thread ? 1 : 0);
    put_u8(&payload, e.mpi->provided);
    put_u32(&payload, e.mpi->callsite);
  }
  return payload;
}

bool decode_event(const std::string& payload, Event* out) {
  Reader r{payload};
  Event e;
  std::uint8_t kind = 0, has_mpi = 0;
  std::uint32_t nlocks = 0;
  if (!r.u64(&e.seq) || !r.i32(&e.tid) || !r.i32(&e.rank) || !r.u8(&kind) ||
      !r.u64(&e.obj) || !r.u64(&e.aux) || !r.u32(&nlocks)) {
    return false;
  }
  e.kind = static_cast<EventKind>(kind);
  if (nlocks > payload.size() / 8 + 1) return false;  // length lies.
  e.locks_held.resize(nlocks);
  for (std::uint32_t i = 0; i < nlocks; ++i) {
    if (!r.u64(&e.locks_held[i])) return false;
  }
  if (!r.u8(&has_mpi)) return false;
  if (has_mpi != 0) {
    MpiCallInfo info;
    std::uint8_t type = 0, main_thread = 0;
    if (!r.u8(&type) || !r.i32(&info.peer) || !r.i32(&info.tag) ||
        !r.u64(&info.comm) || !r.u64(&info.request) || !r.u8(&main_thread) ||
        !r.u8(&info.provided) || !r.u32(&info.callsite)) {
      return false;
    }
    info.type = static_cast<MpiCallType>(type);
    info.on_main_thread = main_thread != 0;
    e.mpi = info;
  }
  if (!r.done()) return false;  // trailing garbage inside a framed payload.
  *out = std::move(e);
  return true;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
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

void WalWriter::write_frame(char type, const std::string& payload) {
  if (!ok_) return;
  std::string frame;
  frame.reserve(payload.size() + 9);
  frame.push_back(type);
  put_u32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  put_u32(&frame, crc32(frame.data(), frame.size()));
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
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
    std::string payload;
    put_u32(&payload, next_string_id_);
    payload += strings_->lookup(next_string_id_);
    write_frame('S', payload);
  }
}

void WalWriter::on_event(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  sync_strings();
  write_frame('E', encode_event(e));
}

void WalWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  if (ok_) sync_strings();  // trailing interns with no event after them.
  out_.flush();
  out_.close();
}

LoadedTrace salvage_wal(std::istream& in, WalSalvage* stats) {
  LoadedTrace result;
  WalSalvage salvage;
  obs::Counter& corrupt_counter =
      obs::Registry::global().counter("trace.corrupt_records");

  char magic[sizeof(kMagic)] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    salvage.missing_header = true;
    salvage.torn = true;
    corrupt_counter.add();
    // Whatever was read is unrecoverable without the header.
    in.clear();
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    salvage.bytes_discarded = end > 0 ? static_cast<std::uint64_t>(end) : 0;
    if (stats != nullptr) *stats = salvage;
    return result;
  }
  salvage.bytes_recovered = sizeof(kMagic);

  std::string payload;
  for (;;) {
    char type = 0;
    in.read(&type, 1);
    if (in.gcount() == 0) break;  // clean EOF on a frame boundary.

    char lenbuf[4] = {};
    in.read(lenbuf, 4);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(lenbuf[i]))
             << (8 * i);
    }
    bool bad = in.gcount() != 4 || len > kMaxFrameLen;
    if (!bad) {
      payload.resize(len);
      if (len > 0) {
        in.read(payload.data(), static_cast<std::streamsize>(len));
        bad = in.gcount() != static_cast<std::streamsize>(len);
      }
    }
    std::uint32_t stored_crc = 0;
    if (!bad) {
      char crcbuf[4] = {};
      in.read(crcbuf, 4);
      bad = in.gcount() != 4;
      for (int i = 0; i < 4; ++i) {
        stored_crc |=
            static_cast<std::uint32_t>(static_cast<std::uint8_t>(crcbuf[i]))
            << (8 * i);
      }
    }
    if (!bad) {
      std::string head;
      head.push_back(type);
      put_u32(&head, len);
      const std::uint32_t crc =
          crc32(payload.data(), payload.size(),
                crc32(head.data(), head.size()));
      bad = crc != stored_crc;
    }
    if (!bad) {
      // Framed bytes are intact; decode by type.  An unknown type with a
      // valid CRC is a future-version frame — skip it, keep salvaging.
      if (type == 'S') {
        Reader r{payload};
        std::uint32_t id = 0;
        if (r.u32(&id) && id < kMaxFrameLen) {
          if (result.strings.size() <= id) result.strings.resize(id + 1);
          result.strings[id] = payload.substr(r.pos);
          ++salvage.strings;
        } else {
          bad = true;
        }
      } else if (type == 'E') {
        Event e;
        if (decode_event(payload, &e)) {
          result.events.push_back(std::move(e));
          ++salvage.events;
        } else {
          bad = true;
        }
      }
    }

    if (bad) {
      // Longest-valid-prefix discipline: the first damaged frame ends
      // recovery — after it, frame boundaries can't be trusted.
      ++salvage.corrupt_frames;
      salvage.torn = true;
      corrupt_counter.add();
      in.clear();
      const auto here = in.tellg();
      in.seekg(0, std::ios::end);
      const auto end = in.tellg();
      const auto lost =
          static_cast<std::uint64_t>(end) - salvage.bytes_recovered;
      salvage.bytes_discarded = lost;
      (void)here;
      break;
    }
    ++salvage.frames;
    salvage.bytes_recovered += 9 + len;
  }

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
