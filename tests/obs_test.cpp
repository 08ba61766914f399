// Tests for the telemetry layer (ISSUE-4): registry exactness under
// concurrency, the enabled() gate, span ring export as Chrome trace-event
// JSON, the telemetry snapshot schema, the EventQueue drop-cause split, and
// the online watermark-lag gauge bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "src/home/check.hpp"
#include "src/homp/runtime.hpp"
#include "src/homp/worksharing.hpp"
#include "src/obs/export.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/online/event_queue.hpp"
#include "src/util/thread_name.hpp"

namespace home::obs {
namespace {

/// Minimal JSON syntax checker: validates structure (objects, arrays,
/// strings with escapes, numbers, literals), not semantics.  Enough to
/// guarantee the exporters emit loadable JSON without a parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& pin) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(pin); at != std::string::npos;
       at = hay.find(pin, at + pin.size())) {
    ++n;
  }
  return n;
}

TEST(Registry, CountersAreExactUnderConcurrency) {
  Registry& reg = Registry::global();
  set_enabled(true);
  Counter& c = reg.counter("test.obs.concurrent_counter");
  c.reset();
  Histogram& h = reg.histogram("test.obs.concurrent_hist");
  h.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        if (i % 100 == 0) h.observe(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.snapshot().count, kThreads * (kPerThread / 100));
}

TEST(Registry, GaugeTracksHighWaterAcrossThreads) {
  Registry& reg = Registry::global();
  set_enabled(true);
  Gauge& g = reg.gauge("test.obs.hwm_gauge");
  g.reset();

  std::vector<std::thread> workers;
  for (int t = 1; t <= 8; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i <= 100; ++i) g.set(t * 100 + i % 3);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(g.high_water(), 802);  // max over all set() calls: 8*100+2.
}

TEST(Registry, DisabledGateFreezesEverything) {
  Registry& reg = Registry::global();
  set_enabled(true);
  Counter& c = reg.counter("test.obs.gated");
  c.reset();
  c.add(5);
  EXPECT_EQ(c.value(), 5u);

  set_enabled(false);
  c.add(100);
  reg.gauge("test.obs.gated_gauge").set(42);
  reg.histogram("test.obs.gated_hist").observe(1.0);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.gauge("test.obs.gated_gauge").value(), 0);
  EXPECT_EQ(reg.histogram("test.obs.gated_hist").snapshot().count, 0u);
  set_enabled(true);
}

TEST(Registry, ReferencesSurviveReset) {
  Registry& reg = Registry::global();
  set_enabled(true);
  Counter& before = reg.counter("test.obs.stable_ref");
  before.add(7);
  reg.reset();
  EXPECT_EQ(before.value(), 0u);  // zeroed in place...
  before.add(3);
  EXPECT_EQ(&reg.counter("test.obs.stable_ref"), &before);  // ...same object.
  EXPECT_EQ(before.value(), 3u);
}

TEST(Registry, HistogramSnapshotStatistics) {
  Registry& reg = Registry::global();
  set_enabled(true);
  Histogram& h = reg.histogram("test.obs.hist_stats");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_DOUBLE_EQ(snap.mean, 50.5);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_GT(snap.p95, snap.p50);  // bucketed quantiles are approximate but
  EXPECT_GE(snap.p99, snap.p95);  // must be ordered.
}

TEST(Spans, NestedSpansExportAsChromeTraceJson) {
  set_enabled(true);
  reset_spans();
  util::set_current_thread_name("obs-test");
  {
    Span outer("test.outer");
    {
      Span inner("test.inner");
    }
    instant("test.pin", "detail text");
  }

  const std::vector<FinishedSpan> spans = collect_spans();
  ASSERT_EQ(spans.size(), 3u);  // inner finishes first, then pin, then outer.
  const FinishedSpan* outer = nullptr;
  const FinishedSpan* inner = nullptr;
  const FinishedSpan* pin = nullptr;
  for (const FinishedSpan& s : spans) {
    if (s.name == "test.outer") outer = &s;
    if (s.name == "test.inner") inner = &s;
    if (s.name == "test.pin") pin = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(outer->thread, "obs-test");
  EXPECT_FALSE(outer->is_instant);
  EXPECT_TRUE(pin->is_instant);
  // Nesting: inner starts at/after outer and ends at/before outer ends.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);

  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  // The instant uses Chrome's "i" phase with thread scope.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Thread metadata row names the emitting thread.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("obs-test"), std::string::npos);
  // Exactly one complete event per span.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
}

TEST(Spans, DisabledSpansRecordNothing) {
  reset_spans();
  set_enabled(false);
  {
    Span span("test.should_not_exist");
    instant("test.no_pin");
  }
  set_enabled(true);
  for (const FinishedSpan& s : collect_spans()) {
    EXPECT_NE(s.name, "test.should_not_exist");
    EXPECT_NE(s.name, "test.no_pin");
  }
}

TEST(Exporters, TelemetryJsonHasRequiredKeysAndParses) {
  set_enabled(true);
  Registry::global().counter("test.obs.export_counter").add(2);
  const std::string json = telemetry_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  for (const char* key :
       {"\"telemetry\"", "\"enabled\"", "\"counters\"", "\"gauges\"",
        "\"histograms\"", "\"spans\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"test.obs.export_counter\":"), std::string::npos);
}

TEST(Exporters, PrometheusTextExposition) {
  set_enabled(true);
  Registry::global().counter("test.obs.prom_counter").reset();
  Registry::global().counter("test.obs.prom_counter").add(9);
  const std::string text = prometheus_text();
  EXPECT_NE(text.find("home_test_obs_prom_counter 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE home_test_obs_prom_counter counter"),
            std::string::npos);
  // Every family leads with a HELP line naming the dotted source metric.
  EXPECT_NE(text.find("# HELP home_test_obs_prom_counter home metric "
                      "test.obs.prom_counter"),
            std::string::npos);
}

TEST(Exporters, PrometheusTextPassesItsOwnValidator) {
  set_enabled(true);
  Registry::global().counter("test.obs.prom_valid").add(1);
  Registry::global().gauge("test.obs.prom_gauge").set(4);
  Registry::global().histogram("test.obs.prom_hist").observe(2.5);
  const std::string text = prometheus_text();
  std::string error;
  EXPECT_TRUE(check_prometheus_text(text, &error)) << error;

  // The validator is not a rubber stamp: corruptions are rejected.
  EXPECT_FALSE(check_prometheus_text(
      "home_orphan_sample 3\n", &error));       // sample without TYPE.
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(check_prometheus_text(
      "# TYPE home_x counter\n# TYPE home_x counter\nhome_x 1\n",
      &error));                                 // duplicate TYPE.
  EXPECT_FALSE(check_prometheus_text(
      "# TYPE home_y bogus_kind\nhome_y 1\n", &error));
  EXPECT_FALSE(check_prometheus_text(
      "# TYPE home_z counter\nhome_z not_a_number\n", &error));
}

TEST(Exporters, SpanDropsAreSurfacedEverywhere) {
  set_enabled(true);
  reset_spans();
  // Overflow one thread's ring so the overwrite counter trips.
  for (std::size_t i = 0; i < kRingCapacity + 10; ++i) {
    instant("test.obs.drop_filler");
  }
  EXPECT_GT(spans_dropped(), 0u);

  const std::string json = telemetry_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"spans_dropped\":"), std::string::npos);
  // The JSON value reflects the live counter, not a hardcoded zero.
  const std::size_t at = json.find("\"spans_dropped\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json[at + std::string("\"spans_dropped\":").size()], '0');

  EXPECT_NE(summary_table().find("spans dropped (ring overwrite)"),
            std::string::npos);
  reset_spans();
  // After a reset the drop row disappears from the summary.
  EXPECT_EQ(summary_table().find("spans dropped (ring overwrite)"),
            std::string::npos);
}

TEST(Exporters, FlowEventsExportAsChromeFlowPair) {
  set_enabled(true);
  reset_spans();
  flow_start("test.flow", 42, "from endpoint A");
  flow_finish("test.flow", 42, "to endpoint B");
  const std::vector<FinishedSpan> spans = collect_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].flow_phase, 's');
  EXPECT_EQ(spans[1].flow_phase, 'f');
  EXPECT_EQ(spans[0].flow_id, 42u);

  const std::string json = chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  // Binding point "enclosing slice" on the finish side keeps Perfetto happy.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  reset_spans();
}

TEST(EventQueue, SplitsDropsByCause) {
  online::EventQueue q(2, online::BackpressurePolicy::kDropNewest);
  trace::Event e;
  e.kind = trace::EventKind::kMemWrite;
  EXPECT_TRUE(q.push(e));
  EXPECT_TRUE(q.push(e));
  EXPECT_FALSE(q.push(e));  // full: capacity drop.
  EXPECT_EQ(q.dropped_capacity(), 1u);
  EXPECT_EQ(q.dropped_shutdown(), 0u);

  q.close();
  EXPECT_FALSE(q.push(e));  // closed: shutdown drop.
  EXPECT_EQ(q.dropped_capacity(), 1u);
  EXPECT_EQ(q.dropped_shutdown(), 1u);
  EXPECT_EQ(q.dropped(), 2u);

  // The two pre-close events stay poppable.
  trace::Event out;
  EXPECT_TRUE(q.pop(&out));
  EXPECT_TRUE(q.pop(&out));
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.max_depth(), 2u);
}

TEST(EventQueue, BlockPolicyAccountsBlockedTime) {
  online::EventQueue q(1, online::BackpressurePolicy::kBlock);
  trace::Event e;
  e.kind = trace::EventKind::kMemWrite;
  EXPECT_TRUE(q.push(e));
  EXPECT_EQ(q.blocked_ns(), 0u);  // space was available: no clock touched.

  std::atomic<bool> pushed{false};
  std::thread producer([&q, &pushed] {
    trace::Event ev;
    ev.kind = trace::EventKind::kMemWrite;
    q.push(ev);  // full queue: must wait for the pop below.
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  trace::Event out;
  EXPECT_TRUE(q.pop(&out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GT(q.blocked_ns(), 0u);
  q.close();
}

TEST(Online, WatermarkLagGaugeIsBoundedByRetireInterval) {
  set_enabled(true);
  Registry& reg = Registry::global();
  reg.gauge("online.watermark.lag").reset();
  constexpr std::size_t kRetireInterval = 16;

  CheckConfig cfg;
  cfg.nranks = 2;
  cfg.nthreads = 2;
  cfg.session.mode = AnalysisMode::kOnline;
  cfg.session.online.retire_interval = kRetireInterval;
  const CheckResult result =
      check_program(cfg, [](simmpi::Process& p) {
        p.init_thread(simmpi::ThreadLevel::kMultiple, {"obs.init"});
        homp::parallel(2, [&] {
          volatile int sink = 0;
          for (int i = 0; i < 300; ++i) sink = sink + i;
          (void)sink;
          homp::barrier();
        });
        const int payload = p.rank();
        if (p.rank() == 0) {
          p.send(&payload, 1, simmpi::Datatype::kInt, 1, 7, simmpi::kCommWorld,
                 {"obs.send"});
        } else if (p.rank() == 1) {
          int got = 0;
          p.recv(&got, 1, simmpi::Datatype::kInt, 0, 7, simmpi::kCommWorld,
                 nullptr, {"obs.recv"});
        }
        p.finalize({"obs.finalize"});
      });
  ASSERT_TRUE(result.run.ok());
  ASSERT_GT(result.online_stats.events_processed, kRetireInterval);

  // The gauge is monotone within an epoch and resets at each checkpoint, so
  // its high-water mark can never exceed the retirement interval.
  const Gauge& lag = reg.gauge("online.watermark.lag");
  EXPECT_GT(lag.high_water(), 0);
  EXPECT_LE(lag.high_water(), static_cast<std::int64_t>(kRetireInterval));
}

}  // namespace
}  // namespace home::obs
