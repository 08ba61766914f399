#include "src/explore/hooks.hpp"

#include <chrono>
#include <thread>

#include "src/obs/telemetry.hpp"

namespace home::explore {

namespace {

struct ExploreMetrics {
  obs::Counter& yields = obs::Registry::global().counter("explore.yield_points");
  obs::Counter& picks = obs::Registry::global().counter("explore.pick_points");
  obs::Counter& delays =
      obs::Registry::global().counter("explore.delays_injected");
  obs::Counter& delay_us =
      obs::Registry::global().counter("explore.delay_us_total");
  obs::Counter& overrides =
      obs::Registry::global().counter("explore.picks_overridden");
};

ExploreMetrics& metrics() {
  static ExploreMetrics m;
  return m;
}

thread_local int tls_lane = 0;
thread_local int tls_parallel_depth = 0;

}  // namespace

namespace internal {

int thread_lane() { return tls_lane; }

int set_thread_lane(int lane) {
  const int prev = tls_lane;
  tls_lane = lane;
  return prev;
}

void enter_parallel() { ++tls_parallel_depth; }
void exit_parallel() { --tls_parallel_depth; }
bool in_parallel() { return tls_parallel_depth > 0; }

}  // namespace internal

Explorer::Explorer(std::unique_ptr<Strategy> strategy)
    : strategy_(std::move(strategy)) {
  schedule_.strategy = strategy_->name();
}

std::uint64_t Explorer::next_occurrence(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return occurrences_[key]++;
}

void Explorer::fold_signature(HookKind kind, int rank, int lane,
                              const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fold = [this](std::uint64_t x) {
    order_hash_ ^= x;
    order_hash_ *= 0x100000001b3ULL;
  };
  fold(static_cast<std::uint64_t>(kind));
  fold(static_cast<std::uint64_t>(rank) + 1);
  fold(static_cast<std::uint64_t>(lane) + 1);
  if (site) {
    for (const char* p = site; *p; ++p) fold(static_cast<std::uint64_t>(*p));
  }
}

void Explorer::record(Decision d) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_.decisions.push_back(std::move(d));
}

void Explorer::yield(HookKind kind, int rank, const char* site) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  metrics().yields.add(1);
  const int lane = tls_lane;
  const std::string key = decision_key(kind, rank, lane, site ? site : "");
  YieldContext ctx;
  ctx.kind = kind;
  ctx.rank = rank;
  ctx.lane = lane;
  ctx.site = site;
  ctx.occurrence = next_occurrence(key);
  ctx.in_parallel = tls_parallel_depth > 0;
  fold_signature(kind, rank, lane, site);
  const std::uint32_t delay_us = strategy_->on_yield(ctx);
  if (delay_us == 0) return;
  metrics().delays.add(1);
  metrics().delay_us.add(delay_us);
  Decision d;
  d.kind = kind;
  d.rank = rank;
  d.lane = lane;
  d.site = site ? site : "";
  d.occurrence = ctx.occurrence;
  d.is_pick = false;
  d.value = delay_us;
  record(std::move(d));
  std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
}

std::size_t Explorer::pick(HookKind kind, int rank, const char* site,
                           std::size_t n_eligible) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  metrics().picks.add(1);
  const int lane = tls_lane;
  const std::string key = decision_key(kind, rank, lane, site ? site : "");
  PickContext ctx;
  ctx.kind = kind;
  ctx.rank = rank;
  ctx.lane = lane;
  ctx.site = site;
  ctx.occurrence = next_occurrence(key);
  ctx.n_eligible = n_eligible;
  fold_signature(kind, rank, lane, site);
  std::size_t choice = strategy_->on_pick(ctx);
  if (choice >= n_eligible) choice = n_eligible - 1;
  if (choice == 0) return 0;
  metrics().overrides.add(1);
  Decision d;
  d.kind = kind;
  d.rank = rank;
  d.lane = lane;
  d.site = site ? site : "";
  d.occurrence = ctx.occurrence;
  d.is_pick = true;
  d.value = choice;
  record(std::move(d));
  return choice;
}

Schedule Explorer::schedule() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schedule_;
}

std::uint64_t Explorer::order_signature() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_hash_;
}

}  // namespace home::explore
