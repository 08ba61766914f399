// Live monitoring demo: run the LU-MZ mini-app with the paper's six injected
// violations in AnalysisMode::kOnline and print each violation the moment
// the streaming engine confirms it — while the program is still running —
// then the final report.
//
// While the program runs, a background ticker prints one telemetry stats
// line per interval (events analyzed, queue depth/drops, watermark lag) —
// the live analogue of the end-of-run summary.
//
//   ./live_monitor [--app=lu|bt|sp] [--nranks=2] [--nthreads=2]
//                  [--queue=4096] [--retire=1024]
//                  [--stats-interval-ms=500] [--trace-out=trace.json]
//                  [--telemetry-json=telemetry.json]
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "src/apps/app.hpp"
#include "src/home/check.hpp"
#include "src/obs/export.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spec/violations.hpp"
#include "src/util/flags.hpp"

namespace {

/// Periodic one-line pipeline pulse, read straight from the global registry.
class StatsTicker {
 public:
  explicit StatsTicker(int interval_ms) : interval_ms_(interval_ms) {
    if (interval_ms_ <= 0) return;
    worker_ = std::thread([this] { run(); });
  }

  ~StatsTicker() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

 private:
  void run() {
    home::obs::Registry& reg = home::obs::Registry::global();
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                         [this] { return stopped_; })) {
      lock.unlock();
      std::printf(
          "[stats] analyzed=%llu queue(depth_hwm=%lld drops=%llu) "
          "lag=%lld retired=%llu\n",
          static_cast<unsigned long long>(
              reg.counter("online.events_analyzed").value()),
          static_cast<long long>(reg.gauge("online.queue.depth").high_water()),
          static_cast<unsigned long long>(
              reg.counter("online.queue.drops.capacity").value() +
              reg.counter("online.queue.drops.shutdown").value()),
          static_cast<long long>(reg.gauge("online.watermark.lag").value()),
          static_cast<unsigned long long>(
              reg.counter("online.records_retired").value()));
      std::fflush(stdout);
      lock.lock();
    }
  }

  const int interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread worker_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace home;
  const auto flags = util::Flags::parse(argc, argv);

  const std::string app = flags.get("app", "lu");
  apps::AppKind kind = apps::AppKind::kLU;
  if (app == "bt") kind = apps::AppKind::kBT;
  if (app == "sp") kind = apps::AppKind::kSP;

  const apps::AppConfig acfg =
      apps::paper_config(kind, flags.get_int("nranks", 2),
                         flags.get_int("nthreads", 2));

  CheckConfig cfg;
  cfg.nranks = acfg.nranks;
  cfg.nthreads = acfg.nthreads;
  cfg.block_timeout_ms = acfg.block_timeout_ms;
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue", 4096));
  cfg.session.online.retire_interval =
      static_cast<std::size_t>(flags.get_int("retire", 1024));

  std::atomic<int> live{0};
  cfg.session.online.on_violation = [&live](const spec::Violation& v) {
    std::printf("[live %02d] %s rank %d: %s\n", live.fetch_add(1) + 1,
                spec::violation_type_name(v.type), v.rank,
                v.detail.c_str());
    std::fflush(stdout);
  };

  std::printf("=== live monitor: %s, %d ranks x %d threads, online mode ===\n",
              apps::app_kind_name(kind), cfg.nranks, cfg.nthreads);

  StatsTicker ticker(flags.get_int("stats-interval-ms", 500));
  const CheckResult result = check_program(
      cfg, [&acfg](simmpi::Process& p) { apps::run_app_rank(acfg, p); });
  ticker.stop();

  std::printf("\n--- program finished (ok=%d) ---\n", result.run.ok() ? 1 : 0);
  std::printf("events streamed: %zu, peak resident state: %zu records, "
              "%zu retirement sweeps reclaimed %zu records\n",
              result.online_stats.events_processed,
              result.online_stats.peak_resident,
              result.online_stats.retire_sweeps,
              result.online_stats.records_retired);
  std::printf("violations: %zu total (%d reported live, %zu duplicates "
              "suppressed)\n",
              result.report.violations().size(), live.load(),
              result.online_stats.duplicate_reports);

  std::printf("\n--- final report ---\n%s\n", result.report.to_string().c_str());

  std::printf("\n--- pipeline telemetry ---\n%s",
              home::obs::summary_table().c_str());
  const std::string trace_out = flags.get("trace-out", "");
  if (!trace_out.empty()) {
    home::obs::write_chrome_trace(trace_out);
    std::printf("wrote Chrome trace to %s (load in ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  const std::string telemetry_out = flags.get("telemetry-json", "");
  if (!telemetry_out.empty()) {
    home::obs::write_telemetry_json(telemetry_out);
    std::printf("wrote telemetry snapshot to %s\n", telemetry_out.c_str());
  }
  return 0;
}
