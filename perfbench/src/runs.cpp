#include "perfbench/src/runs.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>

#include "perfbench/src/bench.hpp"
#include "src/homp/runtime.hpp"
#include "src/obs/span.hpp"
#include "src/trace/wal.hpp"

namespace perfbench {

namespace {

home::simmpi::UniverseConfig universe_config(const Program& prog) {
  home::simmpi::UniverseConfig ucfg;
  ucfg.nranks = prog.nranks;
  ucfg.block_timeout_ms = 20000;
  return ucfg;
}

}  // namespace

BaseRun run_base(const Program& prog) {
  BaseRun out;
  out.values.assign(static_cast<std::size_t>(prog.nranks), 0.0);
  home::simmpi::Universe universe(universe_config(prog));
  home::homp::set_default_threads(prog.nthreads);
  home::obs::Span span("Universe::run(base)");
  const double t0 = now_s();
  out.run = universe.run([&](home::simmpi::Process& p) {
    out.values[static_cast<std::size_t>(p.rank())] = prog.rank_main(p);
  });
  out.exec_s = now_s() - t0;
  return out;
}

HomeRun run_home(const Program& prog,
                 const std::function<void(home::Session&)>& inspect) {
  HomeRun out;
  out.values.assign(static_cast<std::size_t>(prog.nranks), 0.0);
  const double t0 = now_s();
  home::Session session{home::SessionConfig{}};
  home::simmpi::UniverseConfig ucfg = universe_config(prog);
  std::optional<home::simmpi::Universe> universe;
  {
    home::obs::Span span("Session::configure+attach");
    session.configure(ucfg);
    universe.emplace(ucfg);
    session.attach(*universe);
    home::homp::set_default_threads(prog.nthreads);
  }
  {
    home::obs::Span span("Universe::run(home)");
    const double t1 = now_s();
    out.run = universe->run([&](home::simmpi::Process& p) {
      out.values[static_cast<std::size_t>(p.rank())] = prog.rank_main(p);
    });
    out.exec_s = now_s() - t1;
  }
  {
    home::obs::Span span("Session::detach");
    session.detach(*universe);
  }
  {
    home::obs::Span span("Session::analyze");
    const double t2 = now_s();
    out.report = session.analyze();
    out.analyze_s = now_s() - t2;
  }
  out.total_s = now_s() - t0;
  if (inspect) inspect(session);
  return out;
}

home::online::OnlineConfig stream_config() {
  home::online::OnlineConfig cfg;
  cfg.detector = home::make_detector_config(home::SessionConfig{});
  cfg.queue_capacity = 1 << 15;
  cfg.backpressure = home::online::BackpressurePolicy::kBlock;
  cfg.retire_interval = 1024;
  return cfg;
}

home::trace::LoadedTrace snapshot_trace(const home::trace::TraceLog& log) {
  home::trace::LoadedTrace out;
  out.events = log.sorted_events();
  const std::size_t n = log.strings().size();
  out.strings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.strings.push_back(log.strings().lookup(static_cast<std::uint32_t>(i)));
  }
  return out;
}

bool write_wal(const home::trace::LoadedTrace& trace, const std::string& path) {
  home::trace::StringTable strings;
  for (const std::string& s : trace.strings) strings.intern(s);
  home::trace::WalWriter wal(path, &strings);
  for (const home::trace::Event& e : trace.events) wal.on_event(e);
  wal.close();
  return wal.ok();
}

bool write_text(const home::trace::LoadedTrace& trace, const std::string& path) {
  home::trace::TraceLog log;
  for (const std::string& s : trace.strings) log.strings().intern(s);
  // TraceLog::emit stamps the next seq; advance over gaps so every event
  // keeps its seq (monitored writes link to their call by seq).
  home::trace::Seq next = 1;
  for (const home::trace::Event& e : trace.events) {
    for (; next < e.seq; ++next) log.next_seq();
    log.emit(e);
    ++next;
  }
  try {
    home::trace::save_trace_file(path, log);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::uint64_t file_hash(const std::string& path, std::uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = fnv1a(nullptr, 0);
  std::uint64_t n = 0;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    const auto got = static_cast<std::size_t>(in.gcount());
    h = fnv1a(buf, got, h);
    n += got;
  }
  if (bytes != nullptr) *bytes = n;
  return h;
}

std::vector<std::string> keys_of(const std::vector<home::spec::Violation>& vs) {
  std::vector<std::string> keys;
  keys.reserve(vs.size());
  for (const home::spec::Violation& v : vs) {
    keys.push_back(home::spec::violation_key(v));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::uint64_t reference_pass(const std::vector<home::trace::Event>& events) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const home::trace::Event& e : events) {
    mix(e.seq);
    mix(static_cast<std::uint64_t>(e.tid));
    mix(static_cast<std::uint64_t>(e.rank));
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.obj);
    mix(e.aux);
    for (home::trace::ObjId lock : e.locks_held) mix(lock);
    if (e.mpi) {
      mix(static_cast<std::uint64_t>(e.mpi->type));
      mix(static_cast<std::uint64_t>(e.mpi->peer));
      mix(static_cast<std::uint64_t>(e.mpi->tag));
      mix(e.mpi->comm);
      mix(e.mpi->request);
      mix(e.mpi->callsite);
    }
  }
  return h;
}

DetectCounts count_verdicts(const home::detect::ConcurrencyReport& report) {
  DetectCounts c;
  c.vars = size_d(report.verdicts().size());
  for (const auto& [var, verdict] : report.verdicts()) {
    c.pairs_checked += size_d(verdict.pairs_checked);
    c.concurrent_pairs += size_d(verdict.pairs.size());
  }
  return c;
}

double program_span_ms(const std::string& name) {
  double ms = 0.0;
  for (const home::obs::FinishedSpan& s : home::obs::collect_spans()) {
    if (!s.is_instant && s.name == name) {
      ms += static_cast<double>(s.dur_ns) / 1e6;
    }
  }
  return ms;
}

}  // namespace perfbench
