// The market-wide correlation engine: the one home of the per-pair loop.
//
// This is the enabling component of the paper (§II): producing every pair's
// correlation over a sliding M-return window, every ∆s interval, in an online
// fashion. Pearson entries come from ReturnWindows' O(1) incremental sums
// (all pairs at once via the blocked pearson_pairs / pearson_matrix kernels);
// Maronna entries re-estimate each pair's 2×2 robust scatter over the window
// (the expensive part the paper parallelizes [14]) from one shared per-step
// unwrap arena and per-symbol median/MAD table. Every entry depends only on
// the current window contents.
//
// CorrelationCalculator is the single-rank kernel; ParallelCorrelationEngine
// shards it across the ranks of an mpmini communicator — the "Parallel
// Correlation Engine" box of Fig. 1. The streaming pipeline's correlation
// stage (engine/components.hpp) and the offline series
// (core::compute_market_corr_series) both run on these two classes.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "mpmini/comm.hpp"
#include "mpmini/serde.hpp"
#include "obs/registry.hpp"
#include "stats/correlation.hpp"
#include "stats/sym_matrix.hpp"
#include "stats/windows.hpp"

namespace mm::stats {

struct CorrEngineConfig {
  Ctype type = Ctype::pearson;
  std::size_t window = 100;  // the paper's M
  MaronnaConfig maronna{};
  // Repair matrix_into's result to PSD (meaningful for Maronna/Combined;
  // costs an O(n³) eigendecomposition per step).
  bool repair_psd = false;
};

// One step's correlations in canonical all_pairs order — the CorrFrame and
// MarketCorrSeries layout. `pearson` is always filled; `maronna` holds the
// raw Maronna estimate when the configured type needs it and is empty
// otherwise (Combined is derived from the two when read).
struct CorrVectors {
  std::vector<double> pearson;
  std::vector<double> maronna;
};

// Single-threaded engine: push one return per symbol per interval, then read
// one pair, the canonical vectors, or the full matrix.
class CorrelationCalculator {
 public:
  CorrelationCalculator(const CorrEngineConfig& config, std::size_t symbols);

  void push(const std::vector<double>& returns) { windows_.push(returns); }
  bool ready() const { return windows_.ready(); }
  std::size_t symbols() const { return windows_.symbols(); }
  const CorrEngineConfig& config() const { return config_; }
  // True when the configured type needs the raw Maronna estimate.
  bool needs_maronna() const { return config_.type != Ctype::pearson; }
  // Every pair once, in tile-major order (see tiled_pairs): a contiguous
  // span touches few window rows, so a shard stays cache-resident at
  // thousands of symbols.
  const std::vector<PairIndex>& tiled() const { return pairs_; }

  // Correlation of one pair under the configured type (requires ready()).
  double pair(std::size_t i, std::size_t j) const;

  // Raw estimates for pairs[0..count) at the current step: pearson[k]
  // always, maronna[k] when needs_maronna() (maronna may be null otherwise).
  void estimate(const PairIndex* pairs, std::size_t count, double* pearson,
                double* maronna) const;

  // Canonical vectors for every pair at the current step (requires ready()).
  // Reuses out's storage, so a steady-state loop is allocation-free.
  void vectors_into(CorrVectors& out) const;

  // Full matrix at the current step under the configured type, unit
  // diagonal. matrix_into reuses the caller's storage (resizing only when
  // the symbol count changed), so a steady-state loop is allocation-free;
  // matrix() is the allocating convenience form.
  void matrix_into(SymMatrix& out) const;
  SymMatrix matrix() const;

 private:
  // Unwrap every symbol's ring buffer into the contiguous arena and fill
  // the per-symbol robust-scale table, once per step, shared by all pair
  // estimates of the step.
  void ensure_unwrapped() const;
  const double* window_view(std::size_t symbol) const {
    return unwrap_.data() + symbol * config_.window;
  }
  double maronna_pair(std::size_t i, std::size_t j) const;

  CorrEngineConfig config_;
  ReturnWindows windows_;
  std::vector<PairIndex> pairs_;  // tile-major order, built once
  // Step-scoped caches: the estimators are logically const — these only
  // memoize work derived from the current window state.
  mutable std::vector<double> unwrap_;  // [symbol * window], oldest -> newest
  // robust_scale of each symbol's window: every Maronna estimate reads two
  // entries instead of recomputing the medians/MADs per pair. 16 bytes per
  // symbol.
  mutable std::vector<RobustScale> scales_;
  mutable std::size_t unwrap_step_ = 0;  // windows_.steps() the arena reflects
  mutable MaronnaScratch maronna_scratch_;  // robust_scale buffers
};

// Pair-sharded parallel engine over the ranks of `comm`. Every rank
// constructs it with the same arguments. Rank 0, the leader, calls step()
// once per interval with the market-wide return vector and finish() at the
// end of the day; every other rank, a replica, calls serve(), which returns
// after the leader's finish() (or, with a replica deadline, once the leader
// has been silent that long). A one-rank engine sends no messages.
//
// Each step is one round. The leader sends every live replica the round
// number, the live-member list and the returns; every member mirrors the
// sliding windows and estimates one contiguous block of the tile-major pair
// order (blocks balanced to within one pair over the live members), and the
// replicas send their block back. Round numbers make duplicated frames
// harmless on both sides. With replica_deadline > 0 the gather is bounded:
// a replica that misses the deadline is removed for good (a missed round
// also desyncs its window mirror), the leader computes that replica's block
// itself — it mirrors every window — and the pairs reshard over the
// survivors from the next round on. Every estimator depends only on the
// window contents, so the leader's vectors are bit-identical to a serial
// CorrelationCalculator under any rank count and any resharding, for every
// Ctype. With replica_deadline == 0 every wait blocks.
//
// The engine's traffic uses two point-to-point tags on `comm`; give it a
// communicator that nothing else receives wildcard tags on.
//
// Per-step phase timings land in mm::obs nanosecond histograms on
// `registry` (corr.step.broadcast_ns / compute_ns / exchange_ns), one sample
// per rank per step — read them with Registry::snapshot(). A null registry
// records nothing. The one-rank path records compute_ns only.
class ParallelCorrelationEngine {
 public:
  ParallelCorrelationEngine(
      mpi::Comm& comm, const CorrEngineConfig& config, std::size_t symbols,
      obs::Registry* registry = nullptr,
      std::chrono::milliseconds replica_deadline = std::chrono::milliseconds{0});

  bool leader() const { return comm_.rank() == 0; }

  // Leader only. Pushes `returns` and returns the step's vectors once the
  // windows are full, else empty vectors. The reference stays valid until
  // the next step() on this engine.
  const CorrVectors& step(const std::vector<double>& returns);
  // Leader only: release the surviving replicas. Idempotent.
  void finish();
  // Replicas only: serve rounds until released (see class comment).
  void serve();

  bool ready() const { return calc_.ready(); }
  // Pairs this rank owns while every rank is live.
  std::size_t local_pair_count() const;
  // Leader: replicas removed for missing the deadline so far.
  std::uint64_t reshards() const { return reshards_; }

 private:
  // Block [begin, end) of the tile-major order owned by live position `pos`
  // of `members` live ranks.
  std::size_t block_begin(std::size_t pos, std::size_t members) const;
  // Estimate pairs [begin, end) into shard_ (Pearson, then Maronna).
  void compute_block(std::size_t begin, std::size_t end);
  // Copy a block's values (shard_ layout) into their canonical slots.
  void scatter(std::size_t begin, std::size_t end, const double* values);
  // Leader: receive `member`'s block for `round` into inbox_, skipping stale
  // duplicates. False when the replica deadline passes first.
  bool gather(int member, std::uint64_t round);

  mpi::Comm& comm_;
  CorrelationCalculator calc_;
  std::chrono::milliseconds deadline_;
  std::vector<std::int32_t> alive_;  // leader: live members, leader first
  std::vector<std::int32_t> round_alive_;  // live members of the current round
  std::uint64_t round_ = 0;
  bool finished_ = false;
  std::uint64_t reshards_ = 0;
  CorrVectors out_;                  // leader's result, reused across steps
  std::vector<double> returns_;      // replica's mirrored return vector
  std::vector<double> shard_;        // one block's values, reused
  mpi::Packer out_buf_;              // outgoing round / shard staging
  std::vector<std::uint8_t> inbox_;  // last received round / shard
  // Step-phase histograms (see class comment); null when not recording.
  obs::Histogram* h_broadcast_ = nullptr;
  obs::Histogram* h_compute_ = nullptr;
  obs::Histogram* h_exchange_ = nullptr;
};

}  // namespace mm::stats
