// M2 — google-benchmark end-to-end engine throughput: wall-clock cost of
// one tuple insertion (full cascade: indexing, rewriting, evaluation,
// delivery) per algorithm, of query submission and of unsubscription. Not
// a paper figure; documents the simulator's real-time capacity.
// BM_InsertTuple also reports heap allocations per insertion
// (`allocs_per_insert`), counted by the global operator new below.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "common/rng.h"
#include "core/engine.h"

namespace {

/// Calls of the global operator new (plain and array) so far, all threads.
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace contjoin;

namespace {

std::unique_ptr<core::ContinuousQueryNetwork> MakeLoadedNet(
    core::Algorithm alg, size_t queries,
    const std::function<void(core::Options*)>& tweak = nullptr) {
  core::Options opts;
  opts.num_nodes = 256;
  opts.algorithm = alg;
  if (tweak) tweak(&opts);
  auto net = std::make_unique<core::ContinuousQueryNetwork>(opts);
  CJ_CHECK(net->catalog()
               ->Register(rel::RelationSchema(
                   "R", {{"A", rel::ValueType::kInt},
                         {"B", rel::ValueType::kInt}}))
               .ok());
  CJ_CHECK(net->catalog()
               ->Register(rel::RelationSchema(
                   "S", {{"D", rel::ValueType::kInt},
                         {"E", rel::ValueType::kInt}}))
               .ok());
  Rng rng(1);
  for (size_t i = 0; i < queries; ++i) {
    CJ_CHECK(net->SubmitQuery(rng.NextBelow(net->num_nodes()),
                              "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                 .ok());
  }
  return net;
}

void BM_InsertTuple(benchmark::State& state) {
  auto alg = static_cast<core::Algorithm>(state.range(0));
  auto net = MakeLoadedNet(alg, 100);
  Rng rng(2);
  int64_t i = 0;
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    bool is_r = (i & 1) == 0;
    benchmark::DoNotOptimize(net->InsertTuple(
        rng.NextBelow(net->num_nodes()), is_r ? "R" : "S",
        {rel::Value::Int(i),
         rel::Value::Int(static_cast<int64_t>(rng.NextBelow(100000)))}));
    ++i;
    if (i % 4096 == 0) {
      for (size_t n = 0; n < net->num_nodes(); ++n) {
        (void)net->TakeNotifications(n);
      }
    }
  }
  state.counters["allocs_per_insert"] = benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                          allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(core::AlgorithmName(alg));
}
BENCHMARK(BM_InsertTuple)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SubmitQuery(benchmark::State& state) {
  auto net = MakeLoadedNet(core::Algorithm::kDaiT, 0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->SubmitQuery(
        rng.NextBelow(net->num_nodes()),
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"));
  }
}
BENCHMARK(BM_SubmitQuery);

// One unsubscription. Outside the timed region each iteration submits
// the query and rewrites it to a few evaluators with inserts; small value
// domains and a pruned window keep the loaded net's state from growing
// across iterations.
void BM_Unsubscribe(benchmark::State& state) {
  auto alg = static_cast<core::Algorithm>(state.range(0));
  auto net = MakeLoadedNet(alg, 100,
                           [](core::Options* o) { o->window = 64; });
  Rng rng(5);
  int64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const size_t subscriber = rng.NextBelow(net->num_nodes());
    auto key = net->SubmitQuery(subscriber,
                                "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
    CJ_CHECK(key.ok());
    for (int t = 0; t < 8; ++t) {
      CJ_CHECK(net->InsertTuple(
                      rng.NextBelow(net->num_nodes()), t % 2 == 0 ? "R" : "S",
                      {rel::Value::Int(static_cast<int64_t>(rng.NextBelow(4))),
                       rel::Value::Int(static_cast<int64_t>(
                           rng.NextBelow(16)))})
                   .ok());
    }
    if (++i % 16 == 0) {
      net->PruneExpired();
      for (size_t n = 0; n < net->num_nodes(); ++n) {
        (void)net->TakeNotifications(n);
      }
    }
    state.ResumeTiming();
    CJ_CHECK(net->Unsubscribe(subscriber, key.value()).ok());
  }
  state.SetLabel(core::AlgorithmName(alg));
}
BENCHMARK(BM_Unsubscribe)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Iterations(2000);

void BM_OneTimeJoin(benchmark::State& state) {
  auto net = MakeLoadedNet(core::Algorithm::kSai, 0);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    bool is_r = rng.NextBernoulli(0.5);
    CJ_CHECK(net->InsertTuple(
                    rng.NextBelow(net->num_nodes()), is_r ? "R" : "S",
                    {rel::Value::Int(i),
                     rel::Value::Int(static_cast<int64_t>(
                         rng.NextBelow(500)))})
                 .ok());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->OneTimeJoin(
        rng.NextBelow(net->num_nodes()),
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"));
  }
}
BENCHMARK(BM_OneTimeJoin);

}  // namespace

BENCHMARK_MAIN();
