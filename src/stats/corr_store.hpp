// Memoized correlation store: compute each (day, universe, estimator,
// ∆s, M) correlation stream once, serve every later backtest from memory.
//
// The unit of memoization is a whole day of packed CorrFrames — exactly the
// bytes the correlation stage emits, one buffer per snapshot interval. A
// consumer on the hit path replays those buffers verbatim, so its strategies
// see BIT-IDENTICAL input to a cold run (no re-estimation, no
// re-serialization, no float drift). This is what lets the backtest service
// (src/svc) run many tenants' parameter sweeps over a shared day for the
// price of one correlation pass: the sweep dimensions that matter
// (divergence, thresholds, ctype selection among the stored measures) all
// live DOWNSTREAM of the frame stream.
//
// Concurrency contract (the once-flag):
//   * acquire() under one key returns a hit Lease when the day is ready;
//   * the FIRST caller through a missing key becomes the owner and must
//     publish() (or abandon by destroying the Lease — a fault-aborted run
//     must not poison the cache with a truncated day);
//   * concurrent callers on a computing key BLOCK until the owner publishes
//     or abandons; on abandon, ownership hands off to one blocked waiter so
//     the day is still computed exactly once per failure-free attempt.
//
// Published days are immutable shared_ptr<const CorrDay>: eviction (LRU by
// last acquire, bounded by byte_budget) only drops the store's reference —
// replays in flight keep theirs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace mm::stats {

// Identity of one memoized correlation day. `universe` is any canonical
// fingerprint of the symbol set + data source (the service uses
// "synthetic/<n>/<seed>"); two keys with different fingerprints never share.
struct CorrKey {
  std::string universe;
  std::int32_t date = 0;  // yyyymmdd
  std::int64_t delta_s = 0;
  std::int64_t window = 0;
  std::string estimator;  // "pearson" or "pearson+maronna"

  // Canonical map key; also the human-readable identity in logs/metrics.
  std::string cache_key() const;
};

// One day of packed CorrFrames in emission order (frames[i] = interval i).
struct CorrDay {
  std::vector<std::vector<std::uint8_t>> frames;

  std::size_t bytes() const {
    std::size_t total = sizeof(CorrDay);
    for (const auto& f : frames) total += f.size() + sizeof(f);
    return total;
  }
};

class CorrStore {
 public:
  // Native counters (monotonic, read under the store mutex) so tests can
  // assert compute-once without a registry.
  struct Stats {
    std::uint64_t hits = 0;       // acquire() served a ready day
    std::uint64_t misses = 0;     // acquire() made the caller the owner
    std::uint64_t waits = 0;      // acquire() blocked behind an owner
    std::uint64_t computes = 0;   // publish() calls (days actually computed)
    std::uint64_t abandons = 0;   // owner leases destroyed unpublished
    std::uint64_t evictions = 0;  // days dropped by the byte budget
  };

  // byte_budget 0 = unbounded. `registry` mirrors the native stats as
  // corr_store.* counters/gauges when observability is compiled in.
  explicit CorrStore(std::size_t byte_budget = 0,
                     obs::Registry* registry = nullptr);

  // Hit (data()), ownership (owner(), must publish/abandon), or post-wait
  // hit/ownership. Movable, not copyable; abandons on destruction if owning.
  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    ~Lease();

    // Ready data; null while this lease owns the compute.
    const std::shared_ptr<const CorrDay>& data() const { return data_; }
    bool hit() const { return data_ != nullptr; }
    // True when this caller must compute the day and publish() it.
    bool owner() const { return owner_; }
    // Publish the computed day (owner only); unblocks every waiter.
    void publish(CorrDay day);

   private:
    friend class CorrStore;
    Lease(CorrStore* store, std::string key,
          std::shared_ptr<const CorrDay> data, bool owner)
        : store_(store), key_(std::move(key)), data_(std::move(data)),
          owner_(owner) {}

    CorrStore* store_ = nullptr;
    std::string key_;
    std::shared_ptr<const CorrDay> data_;
    bool owner_ = false;
  };

  Lease acquire(const CorrKey& key);

  // Non-blocking lookup; null when absent or still computing.
  std::shared_ptr<const CorrDay> peek(const CorrKey& key) const;

  Stats stats() const;
  std::size_t bytes() const;    // resident published bytes
  std::size_t entries() const;  // published days

  CorrStore(const CorrStore&) = delete;
  CorrStore& operator=(const CorrStore&) = delete;

 private:
  struct Entry {
    // null while an owner is computing; set at publish.
    std::shared_ptr<const CorrDay> data;
    bool computing = false;
    // Bumped on publish/abandon so waiters can tell progress from spurious
    // wakeups even across ownership handoffs.
    std::uint64_t generation = 0;
    std::list<std::string>::iterator lru;  // valid only when data != nullptr
  };

  void publish_day(const std::string& key, CorrDay day);
  void abandon(const std::string& key);
  void evict_locked();
  void touch_locked(Entry& entry, const std::string& key);

  const std::size_t byte_budget_;
  obs::Registry* const registry_;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently acquired
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace mm::stats
