// Interned, immutable, refcounted full vector clocks (ISSUE-6 tentpole).
//
// The epoch clock engine keeps most stamps as 16-byte (tid, value) epochs;
// the residue that does need a full clock — stamps promoted on true
// concurrency, the post-mortem HbIndex's stamp frames — lives here as
// immutable `InternedClock`s shared by refcount.  Interning is content-addressed over
// the *normalized* clock (trailing zeros stripped), so two stamps that are
// equal as functions Tid -> value share one allocation regardless of how
// much zero padding their producers carried.
//
// Lifetime: `ClockRef` is a shared_ptr, so a clock lives exactly as long as
// some frontier record, matcher call, or sync-object entry references it.
// The intern table itself holds one reference per distinct clock; compact()
// drops table entries nothing else references (the online analyzer calls it
// at every retirement checkpoint, so the table tracks the retained working
// set instead of the whole history).
//
// Telemetry (DESIGN.md §10): `clock.arena.hits` / `clock.arena.misses`
// (intern-table hit rate) and the `clock.arena.resident_bytes` gauge.
//
// Concurrency: the intern table is sharded by content hash (kShards
// independent {mutex, table} pairs), so parallel analysis workers interning
// different clocks contend only when they land in the same shard instead of
// serializing on one global mutex.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/trace/event.hpp"

namespace home::detect {

/// One immutable full clock, normalized (no trailing zero components).
class InternedClock {
 public:
  explicit InternedClock(std::vector<std::uint64_t> c) : c_(std::move(c)) {}
  InternedClock(const InternedClock&) = delete;
  InternedClock& operator=(const InternedClock&) = delete;

  const std::uint64_t* data() const { return c_.data(); }
  std::size_t size() const { return c_.size(); }
  std::uint64_t get(trace::Tid tid) const {
    const auto i = static_cast<std::size_t>(tid);
    return i < c_.size() ? c_[i] : 0;
  }
  /// Heap bytes held by this clock's payload.
  std::size_t bytes() const {
    return c_.capacity() * sizeof(std::uint64_t) + sizeof(InternedClock);
  }

 private:
  std::vector<std::uint64_t> c_;
};

using ClockRef = std::shared_ptr<const InternedClock>;

class ClockArena {
 public:
  /// The process-wide arena (one intern table across analyzer + sweeps).
  static ClockArena& global();

  /// Intern the clock `[data, data+n)` (trailing zeros ignored).  Returns
  /// the shared canonical instance; identical stamps dedupe to one
  /// allocation.
  ClockRef intern(const std::uint64_t* data, std::size_t n);

  /// Drop table entries only the table still references.  Returns the
  /// number of clocks released.
  std::size_t compact();

  std::size_t resident_clocks() const;
  std::size_t resident_bytes() const;

  ClockArena() = default;
  ClockArena(const ClockArena&) = delete;
  ClockArena& operator=(const ClockArena&) = delete;

  /// Number of independent intern-table shards (power of two; shard is
  /// selected by the top bits of the content hash so it is independent of
  /// the unordered_map's bucket choice, which uses the low bits).
  static constexpr std::size_t kShards = 16;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Content hash -> clocks with that hash (collision chain is a vector).
    std::unordered_map<std::uint64_t, std::vector<ClockRef>> table;
  };

  Shard& shard_for(std::uint64_t hash) {
    return shards_[(hash >> 60) & (kShards - 1)];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace home::detect
