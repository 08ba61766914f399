#include "src/apps/toolrun.hpp"

#include <set>

#include "src/baselines/itc.hpp"
#include "src/baselines/marmot.hpp"
#include "src/home/session.hpp"
#include "src/obs/span.hpp"
#include "src/util/stats.hpp"
#include "src/util/strings.hpp"

namespace home::apps {

const char* tool_name(Tool tool) {
  switch (tool) {
    case Tool::kBase: return "Base";
    case Tool::kHome: return "HOME";
    case Tool::kMarmot: return "MARMOT";
    case Tool::kItc: return "ITC";
  }
  return "?";
}

namespace {

simmpi::UniverseConfig universe_config(const AppConfig& cfg) {
  simmpi::UniverseConfig ucfg;
  ucfg.nranks = cfg.nranks;
  ucfg.block_timeout_ms = cfg.block_timeout_ms;
  return ucfg;
}

ToolRunResult run_base(const AppConfig& cfg) {
  ToolRunResult result;
  simmpi::Universe universe(universe_config(cfg));
  universe.run_context().team_size = cfg.nthreads;
  util::Stopwatch timer;
  result.run = universe.run([&](simmpi::Process& p) { run_app_rank(cfg, p); });
  result.run_seconds = timer.elapsed_seconds();
  return result;
}

ToolRunResult run_home(const AppConfig& cfg, const SessionConfig& scfg) {
  ToolRunResult result;
  Session session(scfg);
  simmpi::UniverseConfig ucfg = universe_config(cfg);
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  universe.run_context().team_size = cfg.nthreads;
  util::Stopwatch timer;
  {
    obs::Span span("toolrun.execute");
    result.run =
        universe.run([&](simmpi::Process& p) { run_app_rank(cfg, p); });
  }
  result.run_seconds = timer.elapsed_seconds();
  session.detach(universe);
  util::Stopwatch analysis;
  result.report = session.analyze();
  result.analysis_seconds = analysis.elapsed_seconds();
  result.provenance = session.provenance();
  return result;
}

ToolRunResult run_marmot(const AppConfig& cfg) {
  ToolRunResult result;
  baselines::MarmotSession session;
  simmpi::UniverseConfig ucfg = universe_config(cfg);
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  universe.run_context().team_size = cfg.nthreads;
  util::Stopwatch timer;
  result.run = universe.run([&](simmpi::Process& p) { run_app_rank(cfg, p); });
  result.run_seconds = timer.elapsed_seconds();
  session.detach(universe);
  result.report = session.analyze();
  return result;
}

ToolRunResult run_itc(const AppConfig& cfg) {
  ToolRunResult result;
  baselines::ItcSession session;
  simmpi::UniverseConfig ucfg = universe_config(cfg);
  session.configure(ucfg);
  simmpi::Universe universe(ucfg);
  session.attach(universe);
  universe.run_context().team_size = cfg.nthreads;
  util::Stopwatch timer;
  result.run = universe.run([&](simmpi::Process& p) { run_app_rank(cfg, p); });
  result.run_seconds = timer.elapsed_seconds();
  session.detach(universe);
  util::Stopwatch analysis;
  result.report = session.analyze();
  result.analysis_seconds = analysis.elapsed_seconds();
  return result;
}

}  // namespace

ToolRunResult run_with_tool(Tool tool, const AppConfig& cfg) {
  return run_with_tool(tool, cfg, SessionConfig{});
}

ToolRunResult run_with_tool(Tool tool, const AppConfig& cfg,
                            const SessionConfig& session_cfg) {
  switch (tool) {
    case Tool::kBase: return run_base(cfg);
    case Tool::kHome: return run_home(cfg, session_cfg);
    case Tool::kMarmot: return run_marmot(cfg);
    case Tool::kItc: return run_itc(cfg);
  }
  return {};
}

AccuracyCount count_accuracy(const Report& report) {
  AccuracyCount count;
  std::set<int> classes;
  std::set<std::string> extras;
  for (const spec::Violation& v : report.violations()) {
    // A bait false positive is specifically a CollectiveCall report at the
    // benign critical-guarded callsites. Reports of *other* classes that
    // merely mention a bait callsite (e.g. an initialization violation fired
    // by any off-main-thread call) are genuine detections of their class.
    const bool bait = v.type == spec::ViolationType::kCollectiveCall &&
                      (util::contains(v.callsite1, "bait.") ||
                       util::contains(v.callsite2, "bait."));
    if (bait) {
      // One logical false positive per (class, callsite pair): the same bait
      // pattern firing in every rank is still a single wrong report, which is
      // how the paper tallies ITC's "+1" on BT.
      const std::string lo = std::min(v.callsite1, v.callsite2);
      const std::string hi = std::max(v.callsite1, v.callsite2);
      extras.insert(std::to_string(static_cast<int>(v.type)) + "|" + lo + "|" + hi);
    } else {
      classes.insert(static_cast<int>(v.type));
    }
  }
  count.detected_classes = static_cast<int>(classes.size());
  count.extra_reports = static_cast<int>(extras.size());
  return count;
}

}  // namespace home::apps
