#include "src/diagnose/minimize.hpp"

#include <algorithm>
#include <vector>

#include "src/obs/telemetry.hpp"

namespace home::diagnose {

namespace {

using Decisions = std::vector<explore::Decision>;

/// The seed with `d` for its scheduling decisions; its faults ride along
/// unchanged, so every candidate replays the run's own faults.
explore::Schedule with_decisions(const explore::Schedule& seed, Decisions d) {
  explore::Schedule s = seed;
  s.decisions = std::move(d);
  return s;
}

/// current minus the [begin, end) chunk.
Decisions complement(const Decisions& current, std::size_t begin,
                     std::size_t end) {
  Decisions out;
  out.reserve(current.size() - (end - begin));
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (i >= begin && i < end) continue;
    out.push_back(current[i]);
  }
  return out;
}

}  // namespace

MinimizeResult ddmin_schedule(const explore::Schedule& seed,
                              const ReplayOracle& reproduces,
                              const MinimizeOptions& opts) {
  MinimizeResult result;
  result.original_decisions = seed.decisions.size();

  obs::Registry::global().counter("diagnose.minimize.runs").add(1);
  obs::Counter& replay_counter =
      obs::Registry::global().counter("diagnose.minimize.replays");

  auto oracle = [&](const Decisions& d) {
    ++result.replays;
    replay_counter.add(1);
    return reproduces(with_decisions(seed, d));
  };

  // The seed must reproduce at all, otherwise there is nothing to minimize.
  if (!oracle(seed.decisions)) {
    result.schedule = seed;
    result.verified = false;
    return result;
  }
  result.verified = true;

  Decisions current = seed.decisions;
  std::size_t granularity = 2;
  while (current.size() >= 2 && result.replays < opts.max_replays) {
    const std::size_t n = std::min(granularity, current.size());
    const std::size_t chunk = (current.size() + n - 1) / n;
    bool reduced = false;

    // Reduce to a single chunk first (the big wins), then to complements.
    for (std::size_t begin = 0;
         begin < current.size() && result.replays < opts.max_replays;
         begin += chunk) {
      const std::size_t end = std::min(begin + chunk, current.size());
      Decisions subset(current.begin() + static_cast<std::ptrdiff_t>(begin),
                       current.begin() + static_cast<std::ptrdiff_t>(end));
      if (subset.size() == current.size()) continue;
      if (oracle(subset)) {
        current = std::move(subset);
        granularity = 2;
        reduced = true;
        break;
      }
    }
    if (reduced) continue;

    for (std::size_t begin = 0;
         begin < current.size() && result.replays < opts.max_replays;
         begin += chunk) {
      const std::size_t end = std::min(begin + chunk, current.size());
      if (end - begin == current.size()) continue;
      Decisions rest = complement(current, begin, end);
      if (oracle(rest)) {
        current = std::move(rest);
        granularity = std::max<std::size_t>(granularity - 1, 2);
        reduced = true;
        break;
      }
    }
    if (reduced) continue;

    if (granularity >= current.size()) break;  // 1-minimal at this budget.
    granularity = std::min(current.size(), granularity * 2);
  }

  // Try the empty schedule last: some findings reproduce under the default
  // replay ordering alone (every decision was incidental).
  if (!current.empty() && result.replays < opts.max_replays &&
      oracle(Decisions{})) {
    current.clear();
  }

  result.schedule = with_decisions(seed, std::move(current));
  return result;
}

}  // namespace home::diagnose
