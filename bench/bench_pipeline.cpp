// Microbenchmarks for the dagflow engine and the Fig. 1 pipeline: channel
// throughput, backpressure cost, and end-to-end quotes/second for varying
// strategy-worker counts.
#include <benchmark/benchmark.h>

#include "dagflow/context.hpp"
#include "dagflow/graph.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "mpmini/serde.hpp"

namespace {

void BM_ChannelThroughput(benchmark::State& state) {
  const auto capacity = static_cast<int>(state.range(0));
  constexpr int messages = 5000;
  for (auto _ : state) {
    mm::dag::Graph g;
    const int src = g.add_node("src", [&](mm::dag::Context& ctx) {
      mm::mpi::Packer p;
      p.put<int>(42);
      const auto payload = p.take();
      for (int i = 0; i < messages; ++i) ctx.emit(0, payload);
    });
    const int sink = g.add_node("sink", [](mm::dag::Context& ctx) {
      while (ctx.recv()) {
      }
    });
    g.connect(src, 0, sink, 0, capacity);
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_ChannelThroughput)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_ChainDepth(benchmark::State& state) {
  // Relay cost through a deeper DAG.
  const auto depth = static_cast<int>(state.range(0));
  constexpr int messages = 2000;
  for (auto _ : state) {
    mm::dag::Graph g;
    const int src = g.add_node("src", [&](mm::dag::Context& ctx) {
      for (int i = 0; i < messages; ++i) ctx.emit(0, {1, 2, 3, 4});
    });
    int prev = src;
    for (int d = 0; d < depth; ++d) {
      const int relay = g.add_node("relay", [](mm::dag::Context& ctx) {
        while (auto msg = ctx.recv()) ctx.emit(0, std::move(msg->bytes));
      });
      g.connect(prev, 0, relay, 0);
      prev = relay;
    }
    const int sink = g.add_node("sink", [](mm::dag::Context& ctx) {
      while (ctx.recv()) {
      }
    });
    g.connect(prev, 0, sink, 0);
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_ChainDepth)->Arg(1)->Arg(3)->Arg(6);

void BM_PipelineWorkers(benchmark::State& state) {
  // End-to-end Fig. 1 pipeline for 1..8 strategy workers on a reduced day.
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t symbols = 8;
  const auto universe = mm::md::make_universe(symbols);
  mm::md::GeneratorConfig gen;
  gen.quote_rate = 0.1;
  const mm::md::SyntheticDay day(universe, gen, 0);

  mm::engine::PipelineConfig cfg;
  cfg.symbols = symbols;
  const auto all = mm::core::ParamGrid().all();
  for (const auto& p : all) {
    if (p.corr_window != 100) continue;
    cfg.strategies.push_back(p);
    if (cfg.strategies.size() == workers) break;
  }

  std::uint64_t quotes = 0;
  for (auto _ : state) {
    const auto result = mm::engine::run_pipeline(cfg, universe, day.quotes());
    benchmark::DoNotOptimize(result.master.trades);
    quotes += result.quotes_in;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(quotes));
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_PipelineWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_PipelineCorrReplicas(benchmark::State& state) {
  // The parallel correlation engine group across rank counts (robust
  // estimation dominates, so on multi-core hosts this is the scaling axis).
  const auto replicas = static_cast<int>(state.range(0));
  constexpr std::size_t symbols = 8;
  const auto universe = mm::md::make_universe(symbols);
  mm::md::GeneratorConfig gen;
  gen.quote_rate = 0.1;
  const mm::md::SyntheticDay day(universe, gen, 0);

  mm::engine::PipelineConfig cfg;
  cfg.symbols = symbols;
  cfg.correlation_replicas = replicas;
  auto params = mm::core::ParamGrid::base();
  params.ctype = mm::stats::Ctype::maronna;  // the expensive estimator
  cfg.strategies = {params};

  for (auto _ : state) {
    const auto result = mm::engine::run_pipeline(cfg, universe, day.quotes());
    benchmark::DoNotOptimize(result.master.trades);
  }
  state.counters["corr_ranks"] = static_cast<double>(replicas);
}
BENCHMARK(BM_PipelineCorrReplicas)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
