#include "src/home/check.hpp"

#include <sstream>

#include "src/homp/runtime.hpp"
#include "src/spec/matcher.hpp"
#include "src/spec/monitored.hpp"
#include "src/trace/trace_io.hpp"

namespace home {

CheckResult check_program(const CheckConfig& cfg,
                          const std::function<void(simmpi::Process&)>& rank_main) {
  Session session(cfg.session);

  simmpi::UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  ucfg.max_thread_level = cfg.max_thread_level;
  ucfg.rendezvous_sends = cfg.rendezvous_sends;
  ucfg.block_timeout_ms = cfg.block_timeout_ms;
  session.configure(ucfg);

  simmpi::Universe universe(ucfg);
  session.attach(universe);
  homp::set_default_threads(cfg.nthreads);

  CheckResult result;
  result.run = universe.run(rank_main);
  session.detach(universe);
  result.report = session.analyze();
  result.provenance = session.provenance();
  if (session.online_analyzer() != nullptr) {
    result.online_stats = session.online_analyzer()->stats();
  }
  return result;
}

Report analyze_trace(const trace::LoadedTrace& loaded, const SessionConfig& cfg) {
  detect::ConcurrencyReport concurrency =
      detect::RaceDetector(make_detector_config(cfg)).analyze(loaded.events);

  // Rebuild the string table so callsite ids resolve like in the live run.
  trace::StringTable strings;
  for (const std::string& s : loaded.strings) strings.intern(s);

  spec::Matcher matcher(&strings);
  std::vector<spec::Violation> violations = matcher.match(concurrency);

  ReportStats stats;
  stats.trace_events = loaded.events.size();
  for (const auto& [var, verdict] : concurrency.verdicts()) {
    if (!spec::is_monitored_var(var)) continue;
    ++stats.monitored_variables;
    if (verdict.concurrent) ++stats.concurrent_variables;
    stats.concurrent_pairs += verdict.pairs.size();
  }
  return Report(std::move(violations), stats);
}

Report analyze_trace_file(const std::string& path, const SessionConfig& cfg) {
  return analyze_trace(trace::load_trace_file(path), cfg);
}

Report analyze_salvaged_trace(const trace::LoadedTrace& loaded,
                              const trace::WalSalvage& salvage,
                              const SessionConfig& cfg) {
  Report report = analyze_trace(loaded, cfg);
  if (!salvage.clean()) {
    std::ostringstream reason;
    reason << "WAL salvage: recovered " << salvage.events << " events ("
           << salvage.frames << " frames, " << salvage.bytes_recovered
           << " bytes); discarded " << salvage.corrupt_frames
           << " corrupt frame(s), " << salvage.bytes_discarded << " bytes";
    if (salvage.missing_header) reason << "; header missing";
    report.mark_degraded(reason.str());
  }
  return report;
}

Report analyze_wal_file(const std::string& path, const SessionConfig& cfg,
                        trace::WalSalvage* salvage_out) {
  trace::WalSalvage salvage;
  const trace::LoadedTrace loaded = trace::salvage_wal_file(path, &salvage);
  if (salvage_out != nullptr) *salvage_out = salvage;
  return analyze_salvaged_trace(loaded, salvage, cfg);
}

}  // namespace home
