#include "stats/corr_engine.hpp"

#include <algorithm>

#include "mpmini/serde.hpp"
#include "obs/trace.hpp"
#include "stats/psd.hpp"

namespace mm::stats {
namespace {

// Pair-iteration tile edge (symbols per block) for the O(n²) pair space:
// a contiguous span of the tile-major order touches at most ~2·kPairTile
// distinct window rows.
constexpr std::size_t kPairTile = 64;

// The unwrap arena and the scale table serve the Maronna/Combined per-pair
// kernels; pure Pearson engines never read them.
std::size_t arena_size(const CorrEngineConfig& config, std::size_t symbols) {
  return config.type == Ctype::pearson ? 0 : symbols * config.window;
}
std::size_t scale_slots(const CorrEngineConfig& config, std::size_t symbols) {
  return config.type == Ctype::pearson ? 0 : symbols;
}

// Round protocol (see ParallelCorrelationEngine). Leader -> replica on
// kRoundTag: {u8 kind, u64 round} and, for a step, {live member ranks,
// returns}. Replica -> leader on kShardTag: {u64 round, block values}.
constexpr int kRoundTag = 1;
constexpr int kShardTag = 2;
constexpr std::uint8_t kDone = 0;
constexpr std::uint8_t kStep = 1;

}  // namespace

CorrelationCalculator::CorrelationCalculator(const CorrEngineConfig& config,
                                             std::size_t symbols)
    : config_(config),
      // Cross sums back the Pearson vector every step yields, whatever the
      // configured type.
      windows_(symbols, config.window, /*track_cross_sums=*/true),
      pairs_(tiled_pairs(symbols, kPairTile)),
      unwrap_(arena_size(config, symbols)),
      scales_(scale_slots(config, symbols)) {}

void CorrelationCalculator::ensure_unwrapped() const {
  if (unwrap_step_ == windows_.steps() && unwrap_step_ > 0) return;
  windows_.unwrap_all(unwrap_.data());
  // Medians/MADs depend on one window each: n robust_scale calls per step
  // instead of two per pair, n·(n−1) in all.
  for (std::size_t s = 0; s < scales_.size(); ++s)
    scales_[s] = robust_scale(window_view(s), windows_.window(), maronna_scratch_);
  unwrap_step_ = windows_.steps();
}

double CorrelationCalculator::maronna_pair(std::size_t i, std::size_t j) const {
  ensure_unwrapped();
  return maronna_estimate(window_view(i), window_view(j), windows_.window(),
                          scales_[i], scales_[j], config_.maronna)
      .correlation;
}

double CorrelationCalculator::pair(std::size_t i, std::size_t j) const {
  MM_ASSERT_MSG(ready(), "correlation requested before window is full");
  switch (config_.type) {
    case Ctype::pearson:
      return windows_.pearson(i, j);
    case Ctype::maronna:
      return maronna_pair(i, j);
    case Ctype::combined:
      return combine(windows_.pearson(i, j), maronna_pair(i, j));
  }
  MM_ASSERT_MSG(false, "unreachable Ctype");
  return 0.0;
}

void CorrelationCalculator::estimate(const PairIndex* pairs, std::size_t count,
                                     double* pearson, double* maronna) const {
  MM_ASSERT_MSG(ready(), "correlation requested before window is full");
  for (std::size_t k = 0; k < count; ++k) {
    pearson[k] = windows_.pearson(pairs[k].i, pairs[k].j);
    if (needs_maronna()) maronna[k] = maronna_pair(pairs[k].i, pairs[k].j);
  }
}

void CorrelationCalculator::vectors_into(CorrVectors& out) const {
  MM_ASSERT_MSG(ready(), "correlation requested before window is full");
  out.pearson.resize(pairs_.size());
  windows_.pearson_pairs(out.pearson.data());
  if (!needs_maronna()) {
    out.maronna.clear();
    return;
  }
  // Tile-major sweep: each tile touches at most ~2·kPairTile window rows,
  // keeping the unwrap arena reads cache-resident at large n.
  out.maronna.resize(pairs_.size());
  for (const auto& p : pairs_)
    out.maronna[pair_slot(symbols(), p.i, p.j)] = maronna_pair(p.i, p.j);
}

void CorrelationCalculator::matrix_into(SymMatrix& out) const {
  if (config_.type == Ctype::pearson) {
    windows_.pearson_matrix(out);
  } else {
    if (out.size() != symbols()) out = SymMatrix(symbols(), 0.0);
    out.fill_diagonal(1.0);
    for (const auto& p : pairs_) out.set(p.i, p.j, pair(p.i, p.j));
  }
  // Opt-in O(n³) repair; allocates inside the eigensolver by design.
  if (config_.repair_psd && !is_psd(out)) out = nearest_psd_correlation(out);
}

SymMatrix CorrelationCalculator::matrix() const {
  SymMatrix m;
  matrix_into(m);
  return m;
}

ParallelCorrelationEngine::ParallelCorrelationEngine(
    mpi::Comm& comm, const CorrEngineConfig& config, std::size_t symbols,
    obs::Registry* registry, std::chrono::milliseconds replica_deadline)
    : comm_(comm), calc_(config, symbols), deadline_(replica_deadline) {
  if (registry != nullptr) {
    h_broadcast_ = &registry->histogram("corr.step.broadcast_ns");
    h_compute_ = &registry->histogram("corr.step.compute_ns");
    h_exchange_ = &registry->histogram("corr.step.exchange_ns");
  }
  for (int r = 0; r < comm.size(); ++r) alive_.push_back(r);
}

std::size_t ParallelCorrelationEngine::block_begin(std::size_t pos,
                                                   std::size_t members) const {
  // Contiguous blocks balanced to within one pair: the first `rem` live
  // positions take one extra.
  const std::size_t total = calc_.tiled().size();
  const std::size_t base = total / members;
  const std::size_t rem = total % members;
  return pos * base + std::min(pos, rem);
}

std::size_t ParallelCorrelationEngine::local_pair_count() const {
  const auto pos = static_cast<std::size_t>(comm_.rank());
  const auto members = static_cast<std::size_t>(comm_.size());
  return block_begin(pos + 1, members) - block_begin(pos, members);
}

void ParallelCorrelationEngine::compute_block(std::size_t begin, std::size_t end) {
  const std::size_t count = end - begin;
  shard_.resize(calc_.needs_maronna() ? 2 * count : count);
  calc_.estimate(calc_.tiled().data() + begin, count, shard_.data(),
                 calc_.needs_maronna() ? shard_.data() + count : nullptr);
}

void ParallelCorrelationEngine::scatter(std::size_t begin, std::size_t end,
                                        const double* values) {
  const auto& pairs = calc_.tiled();
  const std::size_t n = calc_.symbols();
  const std::size_t count = end - begin;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t slot = pair_slot(n, pairs[begin + k].i, pairs[begin + k].j);
    out_.pearson[slot] = values[k];
    if (calc_.needs_maronna()) out_.maronna[slot] = values[count + k];
  }
}

bool ParallelCorrelationEngine::gather(int member, std::uint64_t round) {
  const auto until = std::chrono::steady_clock::now() + deadline_;
  while (true) {
    if (deadline_.count() > 0) {
      const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      auto got = comm_.recv_for(std::max(budget, std::chrono::milliseconds{1}),
                                member, kShardTag);
      if (!got) return false;
      inbox_ = std::move(*got);
    } else {
      inbox_ = comm_.recv(member, kShardTag);
    }
    if (mpi::Unpacker(inbox_).get<std::uint64_t>() == round) return true;  // else stale
  }
}

const CorrVectors& ParallelCorrelationEngine::step(const std::vector<double>& returns) {
  MM_ASSERT_MSG(leader(), "step() is the leader's; replicas call serve()");
  MM_ASSERT_MSG(!finished_, "step() after finish()");
  MM_ASSERT_MSG(returns.size() == calc_.symbols(), "one return per symbol required");

  // One rank: no transport, no staging — push and fill the member vectors
  // in place. Allocation-free in steady state (test_corr_alloc.cpp).
  if (comm_.size() == 1) {
    calc_.push(returns);
    if (!calc_.ready()) return out_;
    obs::ObsSpan span(nullptr, "corr.compute", h_compute_);
    calc_.vectors_into(out_);
    return out_;
  }

  // The round's assignment is fixed when it is sent; alive_ may shrink
  // during the gather below.
  const std::uint64_t round = round_++;
  round_alive_ = alive_;
  const std::size_t members = round_alive_.size();
  {
    obs::ObsSpan span(nullptr, "corr.broadcast", h_broadcast_);
    out_buf_.clear();
    out_buf_.put(kStep);
    out_buf_.put(round);
    out_buf_.put_vector(round_alive_);
    out_buf_.put_vector(returns);
    for (std::size_t pos = 1; pos < members; ++pos)
      comm_.send(round_alive_[pos], kRoundTag, out_buf_.bytes());
    calc_.push(returns);
  }
  // Replicas reach the same readiness on the same round and send nothing
  // until then.
  if (!calc_.ready()) return out_;

  const std::size_t total = calc_.tiled().size();
  out_.pearson.resize(total);
  if (calc_.needs_maronna()) out_.maronna.resize(total);
  {
    obs::ObsSpan span(nullptr, "corr.compute", h_compute_);
    compute_block(0, block_begin(1, members));
    scatter(0, block_begin(1, members), shard_.data());
  }

  obs::ObsSpan span(nullptr, "corr.exchange", h_exchange_);
  for (std::size_t pos = 1; pos < members; ++pos) {
    const int member = round_alive_[pos];
    const std::size_t begin = block_begin(pos, members);
    const std::size_t end = block_begin(pos + 1, members);
    if (gather(member, round)) {
      mpi::Unpacker in(inbox_);
      in.get<std::uint64_t>();
      in.get_vector_into(shard_);
      MM_ASSERT_MSG(shard_.size() == (end - begin) * (calc_.needs_maronna() ? 2 : 1),
                    "shard size mismatch");
    } else {
      // Missed the deadline: reshard it away for good and stand in for its
      // block this round.
      alive_.erase(std::find(alive_.begin(), alive_.end(), member));
      ++reshards_;
      compute_block(begin, end);
    }
    scatter(begin, end, shard_.data());
  }
  return out_;
}

void ParallelCorrelationEngine::finish() {
  MM_ASSERT_MSG(leader(), "finish() is the leader's; replicas call serve()");
  if (finished_) return;
  finished_ = true;
  out_buf_.clear();
  out_buf_.put(kDone);
  out_buf_.put(round_);
  for (std::size_t pos = 1; pos < alive_.size(); ++pos)
    comm_.send(alive_[pos], kRoundTag, out_buf_.bytes());
}

void ParallelCorrelationEngine::serve() {
  MM_ASSERT_MSG(!leader(), "serve() is for replicas; the leader calls step()");
  std::uint64_t next_round = 0;
  while (true) {
    if (deadline_.count() > 0) {
      auto got = comm_.recv_for(deadline_, 0, kRoundTag);
      if (!got) return;  // leader dead, or this replica resharded away
      inbox_ = std::move(*got);
    } else {
      inbox_ = comm_.recv(0, kRoundTag);
    }
    mpi::Unpacker in(inbox_);
    if (in.get<std::uint8_t>() == kDone) return;
    const auto round = in.get<std::uint64_t>();
    if (round < next_round) continue;  // duplicated round frame
    next_round = round + 1;
    in.get_vector_into(round_alive_);
    in.get_vector_into(returns_);
    calc_.push(returns_);
    if (!calc_.ready()) continue;

    const auto members = round_alive_.size();
    const auto pos = static_cast<std::size_t>(
        std::find(round_alive_.begin(), round_alive_.end(), comm_.rank()) -
        round_alive_.begin());
    MM_ASSERT_MSG(pos < members, "round for a replica that is not live");
    {
      obs::ObsSpan span(nullptr, "corr.compute", h_compute_);
      compute_block(block_begin(pos, members), block_begin(pos + 1, members));
    }
    out_buf_.clear();
    out_buf_.put(round);
    out_buf_.put_vector(shard_);
    comm_.send(0, kShardTag, out_buf_.bytes());
  }
}

}  // namespace mm::stats
