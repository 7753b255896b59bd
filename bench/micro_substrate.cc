// M1 — google-benchmark micro-benchmarks of the substrate hot paths: SHA-1
// identifier derivation, 160-bit ring arithmetic, Chord lookups and the
// per-hop routing decision and id resolution, the simulator's event queue,
// local table operations, Zipf sampling and query parsing. Not a paper
// figure;
// establishes that the simulator is fast enough for the figure sweeps.

#include <benchmark/benchmark.h>

#include "chord/network.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/tables.h"
#include "query/parser.h"
#include "sim/simulator.h"

using namespace contjoin;

namespace {

void BM_Sha1HashKey(benchmark::State& state) {
  std::string key = "Document+AuthorId+123456";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(key));
  }
}
BENCHMARK(BM_Sha1HashKey);

void BM_Uint160Add(benchmark::State& state) {
  Uint160 a = HashKey("a"), b = HashKey("b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
  }
}
BENCHMARK(BM_Uint160Add);

void BM_Uint160InOpenClosed(benchmark::State& state) {
  Uint160 a = HashKey("a"), b = HashKey("b"), x = HashKey("x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.InOpenClosed(a, b));
  }
}
BENCHMARK(BM_Uint160InOpenClosed);

void BM_ChordLookup(benchmark::State& state) {
  sim::Simulator simulator;
  chord::Network network(&simulator);
  auto nodes = network.BuildIdealRing(static_cast<size_t>(state.range(0)));
  Rng rng(1);
  size_t i = 0;
  for (auto _ : state) {
    chord::Node* origin = nodes[rng.NextBelow(nodes.size())];
    benchmark::DoNotOptimize(origin->FindSuccessor(
        HashKey("k" + std::to_string(i++)), sim::MsgClass::kLookup));
  }
  state.counters["avg_hops"] = static_cast<double>(
      network.stats().total_hops() / std::max<uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_ChordLookup)->Arg(256)->Arg(1024)->Arg(4096);

// One recursive-routing decision (what every overlay hop pays once) on a
// 10^4-node ideal ring, toward random targets from random nodes.
void BM_NextHopFor(benchmark::State& state) {
  sim::Simulator simulator;
  chord::Network network(&simulator);
  auto nodes = network.BuildIdealRing(10000);
  Rng rng(2);
  std::vector<chord::NodeId> targets;
  for (int i = 0; i < 4096; ++i) {
    targets.push_back(HashKey("t" + std::to_string(i)));
  }
  size_t i = 0;
  for (auto _ : state) {
    chord::Node* origin = nodes[rng.NextBelow(nodes.size())];
    benchmark::DoNotOptimize(origin->NextHopFor(targets[i++ & 4095]));
  }
}
BENCHMARK(BM_NextHopFor);

// Exact-identifier resolution of a hop's destination (Network::FindById).
void BM_FindById(benchmark::State& state) {
  sim::Simulator simulator;
  chord::Network network(&simulator);
  auto nodes = network.BuildIdealRing(static_cast<size_t>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        network.FindById(nodes[rng.NextBelow(nodes.size())]->id()));
  }
}
BENCHMARK(BM_FindById)->Arg(1024)->Arg(10000);

// One scheduled event, end to end: schedule, queue, pop and run. Each of
// range(0) pending events reschedules itself with a 16-byte closure, at
// delay 1 (range(1) == 0: every tick is one batch of range(0) events) or
// at a delay uniform over 1..2000 (range(1) == 1: most events wait beyond
// the near future). `per_event` divides the time by the events run.
class SelfRescheduling {
 public:
  SelfRescheduling(size_t pending, bool spread) : spread_(spread) {
    for (size_t i = 0; i < pending; ++i) Schedule(i);
  }
  void Schedule(uint64_t token) {
    const sim::SimTime delay =
        spread_ ? static_cast<sim::SimTime>(rng_.NextInRange(1, 2000)) : 1;
    sim_.Schedule(delay, [this, token] { Fire(token); });
  }
  void Fire(uint64_t token) {
    ++events_;
    Schedule(token);
  }
  sim::Simulator& sim() { return sim_; }
  uint64_t events() const { return events_; }

 private:
  sim::Simulator sim_;
  Rng rng_{9};
  bool spread_;
  uint64_t events_ = 0;
};

void BM_SimulatorEvent(benchmark::State& state) {
  const bool spread = state.range(1) != 0;
  SelfRescheduling driver(static_cast<size_t>(state.range(0)), spread);
  // About one event per pending event per iteration either way.
  const sim::SimTime ticks = spread ? 1000 : 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        driver.sim().RunUntil(driver.sim().Now() + ticks));
  }
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(driver.events()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulatorEvent)
    ->ArgsProduct({{200, 2000, 20000}, {0, 1}})
    ->ArgNames({"pending", "spread"});

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(100000, 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_ParseQuery(benchmark::State& state) {
  rel::Catalog catalog;
  (void)catalog.Register(rel::RelationSchema(
      "R", {{"A", rel::ValueType::kInt}, {"B", rel::ValueType::kInt}}));
  (void)catalog.Register(rel::RelationSchema(
      "S", {{"D", rel::ValueType::kInt}, {"E", rel::ValueType::kInt}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::ParseQuery(
        "SELECT R.A, S.D FROM R, S WHERE 2*R.B + 1 = S.E AND R.A > 5",
        catalog));
  }
}
BENCHMARK(BM_ParseQuery);

void BM_VlttInsertFind(benchmark::State& state) {
  core::ValueLevelTupleTable vltt;
  Rng rng(5);
  uint64_t i = 0;
  for (auto _ : state) {
    std::string value = std::to_string(rng.NextBelow(1000));
    vltt.Insert("R+a0", value,
                core::StoredTuple{
                    std::make_shared<const rel::Tuple>(
                        "R", std::vector<rel::Value>{rel::Value::Int(1)},
                        i, i),
                    0});
    benchmark::DoNotOptimize(vltt.Find("R+a0", value));
    ++i;
  }
}
BENCHMARK(BM_VlttInsertFind);

}  // namespace

BENCHMARK_MAIN();
