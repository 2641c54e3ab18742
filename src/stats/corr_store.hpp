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
// Concurrency, ownership and eviction are mm::SharedCache's
// (common/shared_cache.hpp): one caller computes a missing day and publishes
// it; a fault-aborted run destroys its Lease unpublished, which hands the
// compute to one blocked waiter instead of caching a truncated day.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/shared_cache.hpp"
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

// SharedCache over CorrDays under CorrKey::cache_key(), mirrored to the
// registry as corr_store.* metrics.
class CorrStore : public SharedCache<CorrDay> {
 public:
  explicit CorrStore(std::size_t byte_budget = 0, obs::Registry* registry = nullptr)
      : SharedCache(
            "corr_store", [](const CorrDay& day) { return day.bytes(); }, byte_budget,
            registry) {}

  Lease acquire(const CorrKey& key) { return SharedCache::acquire(key.cache_key()); }
  Value peek(const CorrKey& key) const { return SharedCache::peek(key.cache_key()); }
};

}  // namespace mm::stats
