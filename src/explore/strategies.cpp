#include "src/explore/strategy.hpp"

#include <mutex>
#include <unordered_map>

#include "src/util/rng.hpp"

namespace home::explore {

namespace {

/// Mix a decision context into a per-site stream index so strategies draw
/// decisions as a function of *where* they are asked, not the global order
/// in which threads happen to reach the strategy.  This keeps per-thread
/// decision streams reproducible even when other threads interleave
/// differently.
std::uint64_t context_hash(HookKind kind, int rank, int lane, const char* site,
                           std::uint64_t occurrence) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  fold(static_cast<std::uint64_t>(kind));
  fold(static_cast<std::uint64_t>(rank) + 1);
  fold(static_cast<std::uint64_t>(lane) + 1);
  if (site) {
    for (const char* p = site; *p; ++p) fold(static_cast<std::uint64_t>(*p));
  }
  fold(occurrence);
  return h;
}

/// One deterministic draw for a (seed, context) pair: splitmix64 over the
/// seed xor the context hash.  Stateless, so concurrent hook hits need no
/// locking and the draw depends only on the decision's stable key.
std::uint64_t draw(std::uint64_t seed, std::uint64_t ctx_hash,
                   std::uint64_t salt = 0) {
  std::uint64_t s = seed ^ ctx_hash ^ (salt * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(s);
}

double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Random walk: probability of a delay at a yield point.
constexpr double kYieldProbability = 0.25;
/// Ceiling of an injected delay (random walk, PCT, delay injection).
constexpr std::uint32_t kMaxDelayUs = 200;
/// PCT: priority change points per run.
constexpr int kPctInversions = 3;

class NoneStrategy final : public Strategy {
 public:
  const char* name() const override { return "none"; }
  std::uint32_t on_yield(const YieldContext&) override { return 0; }
  std::size_t on_pick(const PickContext&) override { return 0; }
};

class RandomWalkStrategy final : public Strategy {
 public:
  explicit RandomWalkStrategy(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "random_walk"; }

  std::uint32_t on_yield(const YieldContext& ctx) override {
    const std::uint64_t h =
        context_hash(ctx.kind, ctx.rank, ctx.lane, ctx.site, ctx.occurrence);
    if (to_unit(draw(seed_, h, 1)) >= kYieldProbability) return 0;
    return 1 + static_cast<std::uint32_t>(draw(seed_, h, 2) % kMaxDelayUs);
  }

  std::size_t on_pick(const PickContext& ctx) override {
    const std::uint64_t h =
        context_hash(ctx.kind, ctx.rank, ctx.lane, ctx.site, ctx.occurrence);
    return static_cast<std::size_t>(draw(seed_, h, 3) % ctx.n_eligible);
  }

 private:
  std::uint64_t seed_;
};

/// PCT-style priority scheduling, approximated with delays: every (rank,
/// lane) gets a seeded random priority; lower-priority threads are held back
/// proportionally at each sync point, so high-priority threads win races.
/// k inversion points (PCT's "change points") flip the thread priority when
/// its hook-hit count crosses a seeded threshold, exploring schedules a
/// static priority order cannot reach.
class PctStrategy final : public Strategy {
 public:
  explicit PctStrategy(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "pct"; }

  std::uint32_t on_yield(const YieldContext& ctx) override {
    const std::uint64_t thread_key =
        (static_cast<std::uint64_t>(ctx.rank + 1) << 16) |
        static_cast<std::uint64_t>(ctx.lane + 1);
    std::uint64_t hits;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hits = hits_[thread_key]++;
    }
    // Base priority in [0, 15]; inversion points at seeded hit counts.
    std::uint64_t prio = draw(seed_, thread_key, 10) % 16;
    for (int i = 0; i < kPctInversions; ++i) {
      const std::uint64_t change_at =
          draw(seed_, thread_key, 20 + static_cast<std::uint64_t>(i)) % 256;
      if (hits >= change_at) prio = (prio + 7 + static_cast<std::uint64_t>(i)) % 16;
    }
    // Priority 15 runs free; priority 0 waits longest.
    const std::uint64_t penalty = 15 - prio;
    return static_cast<std::uint32_t>(penalty * kMaxDelayUs / 16);
  }

  std::size_t on_pick(const PickContext& ctx) override {
    const std::uint64_t h =
        context_hash(ctx.kind, ctx.rank, ctx.lane, ctx.site, ctx.occurrence);
    return static_cast<std::size_t>(draw(seed_, h, 11) % ctx.n_eligible);
  }

 private:
  std::uint64_t seed_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> hits_;
};

/// Delays only MPI calls issued inside parallel regions — the window where
/// thread-safety violations live — shifting call overlap without touching
/// message matching.
class DelayInjectionStrategy final : public Strategy {
 public:
  explicit DelayInjectionStrategy(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "delay_injection"; }

  std::uint32_t on_yield(const YieldContext& ctx) override {
    if (!ctx.in_parallel) return 0;
    switch (ctx.kind) {
      case HookKind::kMpiCall:
      case HookKind::kWaitTest:
      case HookKind::kProbe:
      case HookKind::kCollectiveArrive:
        break;
      default:
        return 0;
    }
    const std::uint64_t h =
        context_hash(ctx.kind, ctx.rank, ctx.lane, ctx.site, ctx.occurrence);
    if (to_unit(draw(seed_, h, 4)) >= 0.5) return 0;
    return 1 + static_cast<std::uint32_t>(draw(seed_, h, 5) % kMaxDelayUs);
  }

  std::size_t on_pick(const PickContext&) override { return 0; }

 private:
  std::uint64_t seed_;
};

/// Re-picks among eligible senders at wildcard receives (and among matching
/// posted receives at delivery) with uniform probability; injects no delays,
/// so it explores exactly the MPI message-matching nondeterminism MPISE
/// targets.
class WildcardReorderStrategy final : public Strategy {
 public:
  explicit WildcardReorderStrategy(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "wildcard_reorder"; }

  std::uint32_t on_yield(const YieldContext&) override { return 0; }

  std::size_t on_pick(const PickContext& ctx) override {
    const std::uint64_t h =
        context_hash(ctx.kind, ctx.rank, ctx.lane, ctx.site, ctx.occurrence);
    return static_cast<std::size_t>(draw(seed_, h, 6) % ctx.n_eligible);
  }

 private:
  std::uint64_t seed_;
};

/// Static-guidance-driven picks (ISSUE-8): only sites the static
/// communication analysis flagged as ambiguous are perturbed, and always to
/// a non-default alternative (guided_pick_value) — the default arrival order
/// is the baseline run.  Unflagged sites keep the default, so the whole
/// run's pick stream is a pure function of (guidance, seed) that the
/// Sweeper can fingerprint offline.  Without guidance, falls back to
/// uniform wildcard-style picks so `--strategy=guided` is still usable.
class GuidedStrategy final : public Strategy {
 public:
  GuidedStrategy(std::uint64_t seed,
                 std::shared_ptr<const StaticGuidance> guidance)
      : seed_(seed), guidance_(std::move(guidance)) {}

  const char* name() const override { return "guided"; }

  std::uint32_t on_yield(const YieldContext&) override { return 0; }

  std::size_t on_pick(const PickContext& ctx) override {
    if (!guidance_ || guidance_->empty()) {
      const std::uint64_t h =
          context_hash(ctx.kind, ctx.rank, ctx.lane, ctx.site, ctx.occurrence);
      return static_cast<std::size_t>(draw(seed_, h, 6) % ctx.n_eligible);
    }
    const std::string site = ctx.site ? ctx.site : "";
    if (!guidance_->find(site)) return 0;
    const std::size_t v =
        guided_pick_value(seed_, site, ctx.occurrence, ctx.n_eligible);
    return v < ctx.n_eligible ? v : ctx.n_eligible - 1;
  }

 private:
  std::uint64_t seed_;
  std::shared_ptr<const StaticGuidance> guidance_;
};

class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(const Schedule& schedule) {
    for (const Decision& d : schedule.decisions) {
      const std::string key = decision_key(d.kind, d.rank, d.lane, d.site) +
                              "#" + std::to_string(d.occurrence);
      (d.is_pick ? picks_ : yields_)[key] = d.value;
    }
  }

  const char* name() const override { return "replay"; }

  std::uint32_t on_yield(const YieldContext& ctx) override {
    const std::uint64_t* v = lookup(yields_, ctx.kind, ctx.rank, ctx.lane,
                                    ctx.site, ctx.occurrence);
    return v ? static_cast<std::uint32_t>(*v) : 0;
  }

  std::size_t on_pick(const PickContext& ctx) override {
    const std::uint64_t* v = lookup(picks_, ctx.kind, ctx.rank, ctx.lane,
                                    ctx.site, ctx.occurrence);
    if (!v) return 0;
    // Clamp: a replayed pick can never address more alternatives than are
    // eligible this run (control flow up to this point was replayed, but be
    // defensive about runtime-environment drift).
    return *v < ctx.n_eligible ? static_cast<std::size_t>(*v)
                               : ctx.n_eligible - 1;
  }

 private:
  static const std::uint64_t* lookup(
      const std::unordered_map<std::string, std::uint64_t>& table,
      HookKind kind, int rank, int lane, const char* site,
      std::uint64_t occurrence) {
    const std::string key = decision_key(kind, rank, lane, site ? site : "") +
                            "#" + std::to_string(occurrence);
    auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
  }

  std::unordered_map<std::string, std::uint64_t> yields_;
  std::unordered_map<std::string, std::uint64_t> picks_;
};

}  // namespace

const char* strategy_kind_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNone: return "none";
    case StrategyKind::kRandomWalk: return "random_walk";
    case StrategyKind::kPct: return "pct";
    case StrategyKind::kDelayInjection: return "delay_injection";
    case StrategyKind::kWildcardReorder: return "wildcard_reorder";
    case StrategyKind::kGuided: return "guided";
  }
  return "?";
}

bool parse_strategy_kind(const std::string& name, StrategyKind* out) {
  if (name == "none") *out = StrategyKind::kNone;
  else if (name == "random" || name == "random_walk") *out = StrategyKind::kRandomWalk;
  else if (name == "pct") *out = StrategyKind::kPct;
  else if (name == "delay" || name == "delay_injection") *out = StrategyKind::kDelayInjection;
  else if (name == "wildcard" || name == "wildcard_reorder") *out = StrategyKind::kWildcardReorder;
  else if (name == "guided") *out = StrategyKind::kGuided;
  else return false;
  return true;
}

std::unique_ptr<Strategy> make_strategy(
    StrategyKind kind, std::uint64_t seed,
    std::shared_ptr<const StaticGuidance> guidance) {
  switch (kind) {
    case StrategyKind::kNone:
      return std::make_unique<NoneStrategy>();
    case StrategyKind::kRandomWalk:
      return std::make_unique<RandomWalkStrategy>(seed);
    case StrategyKind::kPct:
      return std::make_unique<PctStrategy>(seed);
    case StrategyKind::kDelayInjection:
      return std::make_unique<DelayInjectionStrategy>(seed);
    case StrategyKind::kWildcardReorder:
      return std::make_unique<WildcardReorderStrategy>(seed);
    case StrategyKind::kGuided:
      return std::make_unique<GuidedStrategy>(seed, std::move(guidance));
  }
  return std::make_unique<NoneStrategy>();
}

std::unique_ptr<Strategy> make_replay_strategy(const Schedule& schedule) {
  return std::make_unique<ReplayStrategy>(schedule);
}

}  // namespace home::explore
