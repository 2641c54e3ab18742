// Shared read-only day cache: load each trading day's quote vector once,
// hand every concurrent backtest the same immutable buffer.
//
// The backtest service (src/svc) runs many tenants' jobs over overlapping
// (day, universe) pairs. Without sharing, every pipeline copies the full day
// into its collector; with the cache, N concurrent runs hold N shared_ptrs to
// ONE std::vector<Quote> (PipelineConfig::day) and the collector replays it
// in place.
//
// Concurrency, ownership and eviction are mm::SharedCache's
// (common/shared_cache.hpp): the first caller through a missing key runs the
// loader outside the lock; concurrent callers on that key block until it
// resolves. A failed load — an error result or an exception — is not cached:
// it goes to the loading caller, its lease abandons the key and one blocked
// waiter retries the loader.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/shared_cache.hpp"
#include "marketdata/types.hpp"
#include "obs/registry.hpp"

namespace mm::md {

class DayCache : private SharedCache<std::vector<Quote>> {
 public:
  using Day = Value;
  // Resolves a cache key to a time-sorted day of quotes. Runs outside the
  // cache lock; may block on IO. Must be safe to call from any thread.
  using Loader = std::function<Expected<std::vector<Quote>>(const std::string& key)>;
  using SharedCache::Stats;

  // byte_budget 0 = unbounded. `registry` mirrors the stats as day_cache.*
  // counters/gauges.
  explicit DayCache(Loader loader, std::size_t byte_budget = 0,
                    obs::Registry* registry = nullptr);

  // The shared day for `key`, loading it exactly once under concurrency.
  Expected<Day> get(const std::string& key);

  // Cache over a tickdb store at `root`; keys are ISO dates ("2008-03-03").
  static DayCache from_tickdb(std::string root, std::size_t byte_budget = 0,
                              obs::Registry* registry = nullptr);

  using SharedCache::bytes;    // resident quote bytes
  using SharedCache::entries;  // resident days
  using SharedCache::peek;     // null when absent or still loading
  using SharedCache::stats;

 private:
  Loader loader_;
};

}  // namespace mm::md
