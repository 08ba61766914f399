#include "src/online/online_analyzer.hpp"

#include <algorithm>
#include <utility>

#include "src/faults/injector.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/spec/monitored.hpp"
#include "src/util/log.hpp"

namespace home::online {

namespace {

// Analyzer-side telemetry (DESIGN.md §9).  `online.watermark.lag` tracks how
// many events have been analyzed since the last retirement checkpoint — it is
// bounded by retire_interval whenever retirement is active, so its high-water
// mark doubles as a liveness assertion for the epoch machinery.
struct AnalyzerMetrics {
  obs::Counter& events =
      obs::Registry::global().counter("online.events_analyzed");
  obs::Counter& epochs =
      obs::Registry::global().counter("online.epochs_retired");
  obs::Counter& records =
      obs::Registry::global().counter("online.records_retired");
  obs::Gauge& lag = obs::Registry::global().gauge("online.watermark.lag");
  obs::Gauge& resident = obs::Registry::global().gauge("online.resident");
  // Clock-engine health (DESIGN.md §10): folded as batched deltas at
  // checkpoints, never per comparison.
  obs::Counter& epoch_hits =
      obs::Registry::global().counter("clock.epoch_hits");
  obs::Gauge& clock_bytes =
      obs::Registry::global().gauge("clock.resident_bytes");
};

AnalyzerMetrics& analyzer_metrics() {
  static AnalyzerMetrics m;
  return m;
}

}  // namespace

OnlineAnalyzer::OnlineAnalyzer(OnlineConfig cfg,
                               const trace::StringTable* strings,
                               const trace::ThreadRegistry* registry)
    : cfg_(std::move(cfg)),
      registry_(registry),
      queue_(cfg_.queue_capacity, cfg_.backpressure),
      stream_(cfg_.stream),
      hb_(detect::happens_before_config(cfg_.detector.mode)),
      frontier_(cfg_.detector),
      matcher_(strings,
               [this](spec::Violation&& v) { stream_.offer(std::move(v)); }) {
  worker_ = std::thread([this] { run(); });
}

OnlineAnalyzer::~OnlineAnalyzer() { finish(); }

void OnlineAnalyzer::on_event(const trace::Event& e) {
  switch (queue_.push_accounted(e)) {
    case PushOutcome::kAccepted:
      shed_open_ = false;
      break;
    case PushOutcome::kShedCapacity: {
      // Overload shedding with exact accounting: extend the open window or
      // start a new one.  Safe without ordering tricks — delivery here is
      // serialized by TraceLog's publish lock in increasing seq order.
      std::lock_guard<std::mutex> lock(shed_mu_);
      if (shed_open_ && !shed_.empty()) {
        shed_.back().last = e.seq;
        ++shed_.back().count;
      } else {
        shed_.push_back(ShedWindow{e.seq, e.seq, 1});
        shed_open_ = true;
      }
      break;
    }
    case PushOutcome::kDroppedShutdown:
      // Emitter outlived the session; not recoverable, counted by the queue.
      break;
  }
}

void OnlineAnalyzer::run() {
  util::set_current_thread_name("analyzer");
  obs::Span span("online.analyze");
  trace::Event e;
  while (queue_.pop(&e)) {
    // Queue-pressure fault: stall the consumer so producers see a full
    // queue — the overload scenario the shedding machinery must survive.
    faults::queue_consume_point("online.consume");
    process(e);
  }
}

void OnlineAnalyzer::process(const trace::Event& e) {
  const detect::StampView stamp = hb_.advance(e);
  analyzer_metrics().events.add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.events_processed;
  }

  switch (e.kind) {
    case trace::EventKind::kMpiCall: {
      auto call = std::make_shared<const trace::Event>(e);
      // This thread's earlier call can no longer be referenced: its
      // monitored writes all precede the next call in program order.
      auto last = last_call_of_tid_.find(e.tid);
      if (last != last_call_of_tid_.end()) calls_pending_.erase(last->second);
      last_call_of_tid_[e.tid] = e.seq;
      calls_pending_[e.seq] = call;
      matcher_.on_call(call, stamp.value,
                       [&stamp](trace::Tid t) { return stamp.get(t); });
      break;
    }
    case trace::EventKind::kRegionBegin:
      matcher_.on_region_begin(e);
      break;
    default:
      break;
  }

  if (e.is_access()) {
    auto rec = std::make_shared<detect::OnlineAccess>();
    rec->seq = e.seq;
    rec->tid = e.tid;
    rec->write = e.is_write();
    rec->locks = e.locks_held;
    if (e.aux != 0) {
      auto it = calls_pending_.find(static_cast<trace::Seq>(e.aux));
      if (it != calls_pending_.end()) rec->call = it->second;
    }
    hits_.clear();
    frontier_.on_access(e.obj, std::move(rec), stamp, &hits_);
    if (!hits_.empty() && spec::is_monitored_var(e.obj)) {
      for (const auto& hit : hits_) {
        matcher_.on_concurrent_pair(e.obj, hit.first->tid,
                                    hit.first->call.get(), hit.second->tid,
                                    hit.second->call.get());
      }
    }
  }

  checkpoint();
}

void OnlineAnalyzer::checkpoint() {
  const std::size_t interval =
      cfg_.retire_interval == 0 ? 1024 : cfg_.retire_interval;
  // Watermark lag = events analyzed since the last retirement opportunity.
  // The gauge resets to 0 at every checkpoint below, so it lives in
  // [0, interval] and its high-water mark proves retirement keeps pace.
  analyzer_metrics().lag.set(
      static_cast<std::int64_t>(events_since_checkpoint_ + 1));
  if (++events_since_checkpoint_ < interval) return;
  events_since_checkpoint_ = 0;
  analyzer_metrics().lag.set(0);

  const std::size_t resident = resident_state();
  const std::size_t clock_bytes = resident_clock_bytes();
  analyzer_metrics().resident.set(static_cast<std::int64_t>(resident));
  analyzer_metrics().clock_bytes.set(static_cast<std::int64_t>(clock_bytes));
  fold_clock_counters();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.peak_resident = std::max(stats_.peak_resident, resident);
    stats_.peak_clock_bytes = std::max(stats_.peak_clock_bytes, clock_bytes);
  }

  if (cfg_.retire_interval == 0) return;
  // A lockset-only race does not care about happens-before, so no HB
  // watermark can justify dropping a frontier record in that mode.
  if (cfg_.detector.mode == detect::DetectorMode::kLocksetOnly) return;

  obs::Span span("online.retire");
  if (registry_ != nullptr) {
    const int n = registry_->thread_count();
    for (int t = 0; t < n; ++t) hb_.declare_thread(static_cast<trace::Tid>(t));
  }
  detect::VectorClock watermark;
  if (!hb_.watermark(&watermark)) return;

  const std::size_t reclaimed = frontier_.retire(watermark);
  hb_.retire(watermark);
  matcher_.retire(watermark);
  analyzer_metrics().epochs.add(1);
  analyzer_metrics().records.add(reclaimed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.retire_sweeps;
    stats_.records_retired += reclaimed;
  }
}

void OnlineAnalyzer::fold_clock_counters() {
  const std::size_t hits = frontier_.epoch_hits();
  if (hits > folded_epoch_hits_) {
    analyzer_metrics().epoch_hits.add(hits - folded_epoch_hits_);
  }
  folded_epoch_hits_ = hits;
}

void OnlineAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  queue_.close();
  if (worker_.joinable()) worker_.join();

  fold_clock_counters();
  const std::size_t resident = resident_state();
  const std::size_t clock_bytes = resident_clock_bytes();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.final_resident = resident;
  stats_.peak_resident = std::max(stats_.peak_resident, resident);
  stats_.final_clock_bytes = clock_bytes;
  stats_.peak_clock_bytes = std::max(stats_.peak_clock_bytes, clock_bytes);
  stats_.epoch_hits = frontier_.epoch_hits();
  frontier_.for_each_var([this](trace::ObjId var, const auto& f) {
    if (!spec::is_monitored_var(var)) return;
    ++stats_.monitored_variables;
    if (f.concurrent()) ++stats_.concurrent_variables;
    stats_.concurrent_pairs += f.pairs();
  });
}

std::vector<spec::Violation> OnlineAnalyzer::violations() {
  return stream_.take();
}

OnlineStats OnlineAnalyzer::stats() const {
  OnlineStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.events_dropped = queue_.dropped();
  out.dropped_capacity = queue_.dropped_capacity();
  out.dropped_shutdown = queue_.dropped_shutdown();
  {
    std::lock_guard<std::mutex> lock(shed_mu_);
    out.shed_windows = shed_.size();
    for (const ShedWindow& w : shed_) out.events_shed += w.count;
  }
  out.blocked_ns = queue_.blocked_ns();
  out.max_queue_depth = queue_.max_depth();
  out.violations = stream_.recorded();
  out.duplicate_reports = stream_.duplicates();
  out.live_reports = stream_.live_reports();
  out.suppressed_reports = stream_.suppressed();
  return out;
}

std::vector<ShedWindow> OnlineAnalyzer::shed_windows() const {
  std::lock_guard<std::mutex> lock(shed_mu_);
  return shed_;
}

std::size_t OnlineAnalyzer::resident_state() const {
  return frontier_.resident_records() + hb_.resident_entries() +
         matcher_.resident_calls() + calls_pending_.size();
}

std::size_t OnlineAnalyzer::resident_clock_bytes() const {
  return hb_.resident_clock_bytes();
}

}  // namespace home::online
