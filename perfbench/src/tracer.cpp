#include "perfbench/src/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::bind_this_thread() {
  // obs numbers a thread's ring when the thread first records a span; the
  // number stays while the thread's name may change (the session names the
  // threads it registers).  Record one span to learn this thread's number.
  const bool was_enabled = home::obs::enabled();
  home::obs::set_enabled(true);
  { home::obs::Span span("perfbench.bind"); }
  home::obs::set_enabled(was_enabled);
  for (const home::obs::FinishedSpan& s : home::obs::collect_spans()) {
    if (s.name == "perfbench.bind") display_tid_ = s.display_tid;
  }
  home::obs::reset_spans();
}

void Tracer::drain(std::uint64_t op) {
  std::vector<home::obs::FinishedSpan> spans = home::obs::collect_spans();
  home::obs::reset_spans();
  using home::obs::FinishedSpan;
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [this](const FinishedSpan& s) {
                               return s.is_instant ||
                                      s.display_tid != display_tid_;
                             }),
              spans.end());
  // Parents first at equal start times, then a stack sweep: spans of one
  // thread nest, so the innermost open span enclosing a span is its parent.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const FinishedSpan& a, const FinishedSpan& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.dur_ns > b.dur_ns;
                   });
  std::vector<std::int64_t> open;
  for (const FinishedSpan& s : spans) {
    SpanRecord rec;
    rec.name = s.name;
    rec.op = op;
    rec.start_ns = s.start_ns;
    rec.end_ns = s.start_ns + s.dur_ns;
    while (!open.empty() &&
           records_[static_cast<std::size_t>(open.back())].end_ns <
               rec.end_ns) {
      open.pop_back();
    }
    rec.parent = open.empty() ? -1 : open.back();
    open.push_back(static_cast<std::int64_t>(records_.size()));
    records_.push_back(std::move(rec));
  }
}

std::vector<double> Tracer::per_op_ms(const std::string& name,
                                      const std::string& ancestor) const {
  std::map<std::uint64_t, double> per_op;
  for (const SpanRecord& r : records_) {
    if (r.name != name) continue;
    if (!ancestor.empty()) {
      std::int64_t p = r.parent;
      while (p >= 0 && records_[static_cast<std::size_t>(p)].name != ancestor) {
        p = records_[static_cast<std::size_t>(p)].parent;
      }
      if (p < 0) continue;
    }
    per_op[r.op] += r.ms();
  }
  std::vector<double> out;
  for (const auto& [op, ms] : per_op) out.push_back(ms);
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"id\":%zu,\"parent\":%lld}}",
                 i == 0 ? "" : ",\n", r.name.c_str(),
                 static_cast<double>(r.start_ns) / 1e3, r.ms() * 1e3,
                 static_cast<unsigned long long>(r.op), i,
                 static_cast<long long>(r.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
