#include "src/trace/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace home::trace {
namespace {

constexpr const char* kHeader = "#home-trace v1";

// Whitespace-free encoding so labels survive operator>> tokenization:
// '\' -> "\\", ' ' -> "\s", '\n' -> "\n", empty -> "-".
std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case ' ': out += "\\s"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out.empty() ? "-" : out;
}

std::string unescape(const std::string& s) {
  if (s == "-") return "";
  std::string out;
  bool esc = false;
  for (char c : s) {
    if (esc) {
      switch (c) {
        case 's': out.push_back(' '); break;
        case 'n': out.push_back('\n'); break;
        default: out.push_back(c);
      }
      esc = false;
    } else if (c == '\\') {
      esc = true;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void write_trace(std::ostream& out, const TraceLog& log) {
  out << kHeader << "\n";
  for (std::uint32_t i = 0; i < log.strings().size(); ++i) {
    out << "S " << i << " " << escape(log.strings().lookup(i)) << "\n";
  }
  for (const Event& e : log.sorted_events()) {
    out << "E " << e.seq << " " << e.tid << " " << e.rank << " "
        << static_cast<int>(e.kind) << " " << e.obj << " " << e.aux << " "
        << e.locks_held.size();
    for (ObjId lock : e.locks_held) out << " " << lock;
    if (e.mpi) {
      out << " M " << static_cast<int>(e.mpi->type) << " " << e.mpi->peer << " "
          << e.mpi->tag << " " << e.mpi->comm << " " << e.mpi->request << " "
          << (e.mpi->on_main_thread ? 1 : 0) << " "
          << static_cast<int>(e.mpi->provided) << " " << e.mpi->callsite;
    }
    out << "\n";
  }
}

namespace {

/// Caps driven by parsed (untrusted) counts: a corrupt lock count must not
/// turn into a multi-gigabyte resize before the record is rejected.
constexpr std::size_t kMaxLocksPerEvent = 1u << 20;
constexpr std::uint32_t kMaxStringId = 1u << 24;

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("trace_io: " + what);
}

}  // namespace

LoadedTrace read_trace(std::istream& in) {
  LoadedTrace result;
  std::string line;
  if (!std::getline(in, line) || line != kHeader) malformed("missing header");
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "S") {
      std::uint32_t id = 0;
      std::string text;
      is >> id >> text;
      if (is.fail() || id > kMaxStringId) malformed("malformed string record");
      if (result.strings.size() <= id) result.strings.resize(id + 1);
      result.strings[id] = unescape(text);
      continue;
    }
    if (tag != "E") malformed("bad record '" + tag + "'");
    Event e;
    int kind = 0;
    std::size_t nlocks = 0;
    is >> e.seq >> e.tid >> e.rank >> kind >> e.obj >> e.aux >> nlocks;
    // A short E line leaves fail+eof set; iostream extraction "succeeding"
    // with zero-filled fields is exactly the silent corruption this loader
    // must refuse.
    if (is.fail() || kind < 0 || kind >= kEventKindCount ||
        nlocks > kMaxLocksPerEvent) {
      malformed("malformed event line");
    }
    e.kind = static_cast<EventKind>(kind);
    if (!tids_in_range(e)) malformed("thread id out of range");
    e.locks_held.resize(nlocks);
    for (std::size_t i = 0; i < nlocks; ++i) is >> e.locks_held[i];
    if (is.fail()) malformed("truncated lockset");
    std::string marker;
    if (is >> marker) {
      if (marker != "M") malformed("bad marker");
      MpiCallInfo info;
      int type = 0, main_thread = 0, provided = 0;
      is >> type >> info.peer >> info.tag >> info.comm >> info.request >>
          main_thread >> provided >> info.callsite;
      if (is.fail()) malformed("truncated MPI record");
      // The type indexes the MPI routine table.
      if (type < 0 || static_cast<std::size_t>(type) >= kMpiCallTypeCount) {
        malformed("unknown MPI call type");
      }
      info.type = static_cast<MpiCallType>(type);
      info.on_main_thread = main_thread != 0;
      info.provided = static_cast<std::uint8_t>(provided);
      e.mpi = info;
    }
    result.events.push_back(std::move(e));
  }
  return result;
}

void save_trace_file(const std::string& path, const TraceLog& log) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace_io: cannot open " + path);
  write_trace(out, log);
}

LoadedTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace_io: cannot open " + path);
  return read_trace(in);
}

}  // namespace home::trace
