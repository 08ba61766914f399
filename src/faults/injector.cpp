#include "src/faults/injector.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/obs/telemetry.hpp"
#include "src/util/rng.hpp"

namespace home::faults {

namespace {

/// Mix a fault context into a per-site stream index — the same FNV-over-key
/// fold the exploration strategies use, so a fault decision depends only on
/// *where* it is asked (kind, rank, site, occurrence), never on the global
/// order in which threads happen to hit the hooks.
std::uint64_t context_hash(FaultKind kind, int rank, const char* site,
                           std::uint64_t occurrence) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  fold(static_cast<std::uint64_t>(kind) + 0x66ULL);  // distinct from explore.
  fold(static_cast<std::uint64_t>(rank) + 1);
  for (const char* p = site; p != nullptr && *p != '\0'; ++p) {
    fold(static_cast<std::uint64_t>(static_cast<unsigned char>(*p)));
  }
  fold(occurrence);
  return h;
}

/// One deterministic draw for a (seed, context) pair: splitmix64 over the
/// seed xor the context hash.  Stateless — concurrent hook hits need no
/// locking and the draw depends only on the decision's stable key.
std::uint64_t draw(std::uint64_t seed, std::uint64_t ctx_hash,
                   std::uint64_t salt = 0) {
  std::uint64_t s = seed ^ ctx_hash ^ (salt * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(s);
}

double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::string decision_key(FaultKind kind, int rank, const char* site,
                         std::uint64_t occurrence) {
  std::string key;
  key.reserve(32);
  key += fault_kind_name(kind);
  key += '|';
  key += std::to_string(rank);
  key += '|';
  key += site;
  key += '#';
  key += std::to_string(occurrence);
  return key;
}

/// Occurrence counters are shared across occurrences, so their key omits it.
std::string site_key(FaultKind kind, int rank, const char* site) {
  std::string key;
  key.reserve(32);
  key += fault_kind_name(kind);
  key += '|';
  key += std::to_string(rank);
  key += '|';
  key += site;
  return key;
}

}  // namespace

Injector::Injector(const FaultSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  auto& reg = obs::Registry::global();
  c_injected_ = &reg.counter("faults.injected");
  for (int i = 0; i < kFaultKindCount; ++i) {
    c_kind_[i] = &reg.counter(std::string("faults.") +
                              fault_kind_name(static_cast<FaultKind>(i)));
  }
  c_redelivered_ = &reg.counter("faults.redelivered");
}

Injector::Injector(const FaultSpec& spec, std::uint64_t seed,
                   const std::vector<FaultDecision>& replay)
    : Injector(spec, seed) {
  replay_ = true;
  for (const FaultDecision& d : replay) {
    replay_index_[decision_key(d.kind, d.rank, d.site.c_str(), d.occurrence)] =
        d.value;
  }
}

Injector::~Injector() { quiesce(); }

void Injector::sleep_us(std::uint64_t us) {
  if (us == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::uint64_t Injector::next_occurrence(FaultKind kind, int rank,
                                        const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  return occurrences_[site_key(kind, rank, site)]++;
}

bool Injector::replay_value(FaultKind kind, int rank, const char* site,
                            std::uint64_t occurrence,
                            std::uint64_t* value) const {
  const auto it = replay_index_.find(decision_key(kind, rank, site, occurrence));
  if (it == replay_index_.end()) return false;
  *value = it->second;
  return true;
}

void Injector::record(FaultKind kind, int rank, const char* site,
                      std::uint64_t occurrence, std::uint64_t value) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  c_injected_->add();
  c_kind_[static_cast<int>(kind)]->add();
  std::lock_guard<std::mutex> lock(mu_);
  FaultDecision d;
  d.kind = kind;
  d.rank = rank;
  d.site = site;
  d.occurrence = occurrence;
  d.value = value;
  recorded_.push_back(std::move(d));
}

bool Injector::decide(FaultKind kind, double p, int rank, const char* site,
                      std::uint64_t occurrence, std::uint64_t* value) {
  const std::uint64_t occ = occurrence;
  if (replay_) return replay_value(kind, rank, site, occ, value);
  if (p <= 0.0) return false;
  const std::uint64_t h = context_hash(kind, rank, site, occ);
  const std::uint64_t salt = static_cast<std::uint64_t>(kind) + 1;
  if (to_unit(draw(seed_, h, salt)) >= p) return false;
  const std::uint32_t ceiling = std::max<std::uint32_t>(1, spec_.max_delay_us);
  switch (kind) {
    case FaultKind::kRankCrash:
      *value = 0;
      break;
    case FaultKind::kMsgDrop:
      *value = 1 + draw(seed_, h, salt + 16) %
                       std::max<std::uint32_t>(1, spec_.redeliver_delay_us);
      break;
    default:
      *value = 1 + draw(seed_, h, salt + 16) % ceiling;
      break;
  }
  return true;
}

bool Injector::on_message(int rank, const char* site,
                          std::function<void()> deliver) {
  // One occurrence stream serves both message kinds so delay/drop draws stay
  // aligned between generate and replay; drop wins when both would fire.
  const std::uint64_t occ = next_occurrence(FaultKind::kMsgDelay, rank, site);
  std::uint64_t value = 0;
  if (decide(FaultKind::kMsgDrop, spec_.msg_drop_p, rank, site, occ, &value)) {
    record(FaultKind::kMsgDrop, rank, site, occ, value);
    park_redelivery(std::move(deliver), value);
    return true;
  }
  if (decide(FaultKind::kMsgDelay, spec_.msg_delay_p, rank, site, occ, &value)) {
    record(FaultKind::kMsgDelay, rank, site, occ, value);
    sleep_us(value);
  }
  return false;
}

void Injector::on_mpi_call(int rank, const char* site) {
  const std::uint64_t occ = next_occurrence(FaultKind::kRankStall, rank, site);
  std::uint64_t value = 0;
  if (decide(FaultKind::kRankCrash, spec_.rank_crash_p, rank, site, occ,
             &value)) {
    // Cap generate-mode crashes so a high probability can't take down every
    // rank; replays apply the recorded crashes unconditionally.
    if (replay_ ||
        crashes_.fetch_add(1, std::memory_order_relaxed) < spec_.max_crashes) {
      record(FaultKind::kRankCrash, rank, site, occ, 0);
      throw RankCrashError(rank, site);
    }
    crashes_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (decide(FaultKind::kRankStall, spec_.rank_stall_p, rank, site, occ,
             &value)) {
    record(FaultKind::kRankStall, rank, site, occ, value);
    sleep_us(value);
  }
}

void Injector::on_lock_acquired(int rank, const char* site) {
  const std::uint64_t occ =
      next_occurrence(FaultKind::kLockHolderPause, rank, site);
  std::uint64_t value = 0;
  if (decide(FaultKind::kLockHolderPause, spec_.lock_pause_p, rank, site, occ,
             &value)) {
    record(FaultKind::kLockHolderPause, rank, site, occ, value);
    sleep_us(value);
  }
}

void Injector::on_queue_consume(const char* site) {
  const std::uint64_t occ =
      next_occurrence(FaultKind::kQueuePressure, -1, site);
  std::uint64_t value = 0;
  if (decide(FaultKind::kQueuePressure, spec_.queue_pressure_p, -1, site, occ,
             &value)) {
    record(FaultKind::kQueuePressure, -1, site, occ, value);
    sleep_us(value);
  }
}

void Injector::park_redelivery(std::function<void()> deliver,
                               std::uint64_t delay_us) {
  std::lock_guard<std::mutex> lock(park_mu_);
  Parked p;
  p.due = std::chrono::steady_clock::now() + std::chrono::microseconds(delay_us);
  p.deliver = std::move(deliver);
  parked_.push_back(std::move(p));
  if (!worker_running_) {
    worker_running_ = true;
    stopping_ = false;
    // Redelivered messages land in the parking run's mailboxes, whose
    // matching consults that run's explorer: hand the worker its context.
    redeliverer_ = util::PooledThread([this, ctx = util::run_context()] {
      util::ScopedRunContext bind(ctx);
      redelivery_loop();
    });
  }
  park_cv_.notify_all();
}

void Injector::redelivery_loop() {
  std::unique_lock<std::mutex> lock(park_mu_);
  while (true) {
    if (stopping_) return;
    if (parked_.empty()) {
      park_cv_.wait(lock, [this] { return stopping_ || !parked_.empty(); });
      continue;
    }
    auto next = std::min_element(
        parked_.begin(), parked_.end(),
        [](const Parked& a, const Parked& b) { return a.due < b.due; });
    const auto now = std::chrono::steady_clock::now();
    if (next->due > now) {
      park_cv_.wait_until(lock, next->due);
      continue;  // re-evaluate: stop flag or an earlier parking may exist.
    }
    std::function<void()> deliver = std::move(next->deliver);
    parked_.erase(next);
    lock.unlock();
    deliver();  // Mailbox::deliver is thread-safe; no injector lock held.
    c_redelivered_->add();
    lock.lock();
  }
}

void Injector::quiesce() {
  std::vector<std::function<void()>> pending;
  util::PooledThread worker;
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    stopping_ = true;
    for (Parked& p : parked_) pending.push_back(std::move(p.deliver));
    parked_.clear();
    worker = std::move(redeliverer_);
    worker_running_ = false;
    park_cv_.notify_all();
  }
  if (worker.joinable()) worker.join();
  // Deliver everything still parked so no message is lost: drops are delays
  // in disguise (the paper's fault model; MPI itself never loses messages).
  for (auto& deliver : pending) {
    deliver();
    c_redelivered_->add();
  }
}

std::vector<FaultDecision> Injector::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

}  // namespace home::faults
