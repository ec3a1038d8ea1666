// Host-time microbenchmarks (google-benchmark) of the real protocol data
// structures: piggyback build/absorb for each strategy at several store
// sizes, wire serialization, and antecedence-graph traversal. These justify
// the cost-model constants (see net/cost_model.hpp): on a modern CPU the
// per-event and per-vertex costs are a few nanoseconds to a few hundred,
// consistent with what a 2 GHz AthlonXP would spend (~2-10x more).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "causal/logon_strategy.hpp"
#include "causal/manetho_strategy.hpp"
#include "causal/vcausal_strategy.hpp"
#include "causal/wire.hpp"
#include "scenario/registry.hpp"

namespace mpiv::causal {
namespace {

constexpr int kRanks = 8;

/// Builds a store + strategy populated with `events` determinants spread
/// over all creators, with chain dependencies.
struct Fixture {
  EventStore store{kRanks};
  net::CostModel cost;
  std::unique_ptr<Strategy> strategy;

  Fixture(const char* kind, int events)
      : strategy(scenario::strategies().at(kind).make()) {
    strategy->attach(&store, &cost, /*rank=*/0, kRanks);
    std::vector<std::uint64_t> seq(kRanks, 0);
    for (int i = 0; i < events; ++i) {
      const std::uint32_t creator = static_cast<std::uint32_t>(i % kRanks);
      const std::uint32_t src = static_cast<std::uint32_t>((i + 1) % kRanks);
      ftapi::Determinant d;
      d.creator = creator;
      d.seq = ++seq[creator];
      d.src = src;
      d.ssn = d.seq;
      d.tag = 7;
      d.dep_creator = src;
      d.dep_seq = seq[src];
      store.add(d);
      strategy->on_local_event(d);
    }
  }
};

void BM_StrategyBuild(benchmark::State& state, const char* kind) {
  const int events = static_cast<int>(state.range(0));
  Fixture fx(kind, events);
  for (auto _ : state) {
    util::Buffer out;
    Strategy::DepShadow deps;
    // Peer 1's view is fresh each time (copy the strategy state? too heavy;
    // measuring the first build against a cold peer is the worst case).
    Fixture fresh(kind, events);
    auto start = std::chrono::high_resolution_clock::now();
    const Strategy::Work w = fresh.strategy->build(1, out, deps);
    auto end = std::chrono::high_resolution_clock::now();
    benchmark::DoNotOptimize(w);
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.counters["events"] = static_cast<double>(events);
}

void BM_WireFactoredRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<ftapi::Determinant> events;
  for (int i = 0; i < n; ++i) {
    ftapi::Determinant d;
    d.creator = 3;
    d.seq = static_cast<std::uint64_t>(i + 1);
    d.src = 2;
    d.ssn = static_cast<std::uint64_t>(i + 1);
    events.push_back(d);
  }
  for (auto _ : state) {
    util::Buffer out;
    wire::factored_serialize(events, out);
    auto parsed = wire::factored_parse(out);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_WirePlainRoundTrip(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<ftapi::Determinant> events;
  for (int i = 0; i < n; ++i) {
    ftapi::Determinant d;
    d.creator = static_cast<std::uint32_t>(i % kRanks);
    d.seq = static_cast<std::uint64_t>(i / kRanks + 1);
    d.src = 2;
    d.ssn = static_cast<std::uint64_t>(i + 1);
    events.push_back(d);
  }
  for (auto _ : state) {
    util::Buffer out;
    wire::plain_serialize(events, out);
    auto parsed = wire::plain_parse(out);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_GraphTraversal(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  Fixture fx("manetho", events);
  auto& strat = static_cast<ManethoStrategy&>(*fx.strategy);
  std::vector<std::uint64_t> reach;
  for (auto _ : state) {
    reach.clear();
    const std::uint64_t visits = strat.graph().known_from(
        1, fx.store.known(1), reach);
    benchmark::DoNotOptimize(visits);
  }
  state.SetItemsProcessed(state.iterations() * events);
}

// LogOn's send-side reorder at the wildcard_causal workload's shape: 32
// creators, the piggyback grouped by creator in ascending seq as build()
// selects it, each event's cross edge on its sender's latest event.
void BM_LogOnCausalOrder(benchmark::State& state) {
  constexpr int kCreators = 32;
  const int n = static_cast<int>(state.range(0));
  std::vector<ftapi::Determinant> events;
  std::vector<std::uint64_t> seq(kCreators, 0);
  for (int i = 0; i < n; ++i) {
    ftapi::Determinant d;
    d.creator = static_cast<std::uint32_t>((i * 7) % kCreators);
    d.seq = ++seq[d.creator];
    d.src = static_cast<std::uint32_t>((i * 7 + 3) % kCreators);
    d.ssn = d.seq;
    d.dep_creator = d.src;
    d.dep_seq = seq[d.src];
    events.push_back(d);
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const ftapi::Determinant& a, const ftapi::Determinant& b) {
        return a.creator < b.creator;
      });
  for (auto _ : state) {
    auto ordered = LogOnStrategy::causal_order(events);
    benchmark::DoNotOptimize(ordered);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Iterations are bounded explicitly: each measured build pays an
// unmeasured fixture rebuild, so time-targeted iteration counts would
// inflate the wall clock for no statistical gain.
BENCHMARK_CAPTURE(BM_StrategyBuild, vcausal, "vcausal")
    ->Arg(64)->Arg(1024)->Iterations(40)->UseManualTime()->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_StrategyBuild, manetho, "manetho")
    ->Arg(64)->Arg(1024)->Iterations(40)->UseManualTime()->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_StrategyBuild, logon, "logon")
    ->Arg(64)->Arg(1024)->Iterations(40)->UseManualTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WireFactoredRoundTrip)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_WirePlainRoundTrip)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_GraphTraversal)->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_LogOnCausalOrder)->Arg(106)->Arg(4096);

}  // namespace
}  // namespace mpiv::causal

BENCHMARK_MAIN();
