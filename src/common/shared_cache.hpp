// Single-flight, byte-budgeted LRU cache of immutable values under string
// keys: the one concurrency protocol behind md::DayCache (quote days) and
// stats::CorrStore (correlation days).
//
// Contract:
//   * acquire(key) on a published key returns a hit Lease (data());
//   * the FIRST caller through a missing key becomes the owner and must
//     publish() the value — or abandon it by destroying the Lease. Every
//     path out of the owner's scope abandons, an exception unwinding it
//     included, so no fault can leave a key marked in flight;
//   * concurrent callers on an in-flight key BLOCK until the owner publishes
//     (they resolve to hits) or abandons (ONE of them becomes the next owner;
//     a failed attempt is never cached);
//   * published values are immutable shared_ptr<const V>: eviction (LRU by
//     last acquire, bounded by byte_budget, never the newest value) only
//     drops the cache's reference, never a caller's.
//
// Header-only: it is instantiated only by libraries that link mm_obs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace mm {

template <class V>
class SharedCache {
 public:
  using Value = std::shared_ptr<const V>;
  // Resident bytes of one value, charged against the budget at publish.
  using SizeOf = std::size_t (*)(const V&);

  // Native counters (read under the cache mutex) so tests can assert
  // compute-once without a registry.
  struct Stats {
    std::uint64_t hits = 0;       // acquire() served a published value
    std::uint64_t misses = 0;     // acquire() made the caller the owner
    std::uint64_t waits = 0;      // acquire() blocked behind an owner
    std::uint64_t computes = 0;   // values published
    std::uint64_t abandons = 0;   // owner leases destroyed unpublished
    std::uint64_t evictions = 0;  // values dropped by the byte budget
  };

  // byte_budget 0 = unbounded. `registry` mirrors the stats as
  // <prefix>.{hits,misses,waits,computes,abandons,evictions} counters and
  // <prefix>.{bytes,days} gauges (every cache here holds whole days).
  SharedCache(const std::string& prefix, SizeOf size_of, std::size_t byte_budget,
              obs::Registry* registry)
      : size_of_(size_of), byte_budget_(byte_budget) {
    if (registry == nullptr) return;
    auto counter = [&](const char* name) { return &registry->counter(prefix + name); };
    mirror_ = {counter(".hits"),     counter(".misses"),
               counter(".waits"),    counter(".computes"),
               counter(".abandons"), counter(".evictions"),
               &registry->gauge(prefix + ".bytes"),
               &registry->gauge(prefix + ".days")};
  }

  SharedCache(const SharedCache&) = delete;
  SharedCache& operator=(const SharedCache&) = delete;

  // A hit (data()) or ownership (owner(): publish, or abandon on
  // destruction). Movable, not copyable.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : cache_(std::exchange(other.cache_, nullptr)), key_(std::move(other.key_)),
          data_(std::move(other.data_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    ~Lease() {
      if (cache_ != nullptr) cache_->abandon(key_);
    }

    // The published value; null while this lease owns the compute.
    const Value& data() const { return data_; }
    bool hit() const { return data_ != nullptr; }
    // True while this caller must compute the value and publish() it.
    bool owner() const { return cache_ != nullptr; }

    // Owner only: publish, wake every waiter, return the cache's shared copy.
    Value publish(V value) {
      MM_ASSERT_MSG(owner(), "publish() on a non-owning lease");
      Value shared = cache_->publish(key_, std::move(value));
      cache_ = nullptr;  // only after publish returned: a throw still abandons
      return shared;
    }

   private:
    friend class SharedCache;
    Lease(SharedCache* cache, std::string key) : cache_(cache), key_(std::move(key)) {}
    explicit Lease(Value data) : data_(std::move(data)) {}

    SharedCache* cache_ = nullptr;  // set only while owning
    std::string key_;
    Value data_;
  };

  Lease acquire(const std::string& key) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto it = entries_.find(key);
      if (it == entries_.end()) {
        std::string owned = key;  // copied first: a throw leaves no entry in flight
        entries_.emplace(key, Entry{});
        count(stats_.misses, mirror_.misses);
        return Lease(this, std::move(owned));
      }
      if (it->second.data != nullptr) {
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        count(stats_.hits, mirror_.hits);
        return Lease(it->second.data);
      }
      // In flight: wait until the key is published or abandoned (erased),
      // then loop — one waiter re-creates an abandoned key as its owner.
      count(stats_.waits, mirror_.waits);
      ready_cv_.wait(lock, [&] {
        const auto e = entries_.find(key);
        return e == entries_.end() || e->second.data != nullptr;
      });
    }
  }

  // Non-blocking lookup; null when absent or in flight.
  Value peek(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it != entries_.end() ? it->second.data : nullptr;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }
  // Resident published bytes.
  std::size_t bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  // Published values.
  std::size_t entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }

 private:
  struct Entry {
    Value data;  // null while its owner computes
    std::size_t bytes = 0;
    std::list<const std::string*>::iterator lru;  // valid once published
  };

  struct Mirror {
    obs::Counter *hits = nullptr, *misses = nullptr, *waits = nullptr,
                 *computes = nullptr, *abandons = nullptr, *evictions = nullptr;
    obs::Gauge *bytes = nullptr, *days = nullptr;
  };

  static void count(std::uint64_t& field, obs::Counter* counter) {
    ++field;
    if (counter != nullptr) counter->add();
  }

  Value publish(const std::string& key, V value) {
    const std::size_t size = size_of_(value);
    Value shared = std::make_shared<const V>(std::move(value));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    MM_ASSERT_MSG(it != entries_.end() && it->second.data == nullptr,
                  "publish without an in-flight entry");
    // The only step that can throw, taken before any state changes: the
    // owner's lease then still abandons a clean in-flight entry.
    lru_.push_front(&it->first);
    it->second.lru = lru_.begin();
    it->second.data = shared;
    it->second.bytes = size;
    bytes_ += size;
    count(stats_.computes, mirror_.computes);
    // Never evict the newest value: it must survive its own publication even
    // when it alone exceeds the budget.
    while (byte_budget_ != 0 && bytes_ > byte_budget_ && lru_.size() > 1) {
      const auto victim = entries_.find(*lru_.back());
      bytes_ -= victim->second.bytes;
      lru_.pop_back();
      entries_.erase(victim);
      count(stats_.evictions, mirror_.evictions);
    }
    if (mirror_.bytes != nullptr) {
      mirror_.bytes->set(static_cast<std::int64_t>(bytes_));
      mirror_.days->set(static_cast<std::int64_t>(lru_.size()));
    }
    ready_cv_.notify_all();
    return shared;
  }

  void abandon(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    MM_ASSERT_MSG(it != entries_.end() && it->second.data == nullptr,
                  "abandon without an in-flight entry");
    entries_.erase(it);
    count(stats_.abandons, mirror_.abandons);
    ready_cv_.notify_all();
  }

  const SizeOf size_of_;
  const std::size_t byte_budget_;
  Mirror mirror_;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::map<std::string, Entry> entries_;
  std::list<const std::string*> lru_;  // map keys; front = most recently acquired
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace mm
