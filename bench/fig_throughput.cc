// T-P — Parallel simulator-core throughput (infrastructure figure, not a
// paper figure). Streams tuple waves (InsertTupleWave: one virtual-time
// epoch, many same-timestamp insertions) through the engine and reports
// wall-clock events/sec and tuples/sec for worker counts {1,2,4,8} at ring
// sizes {512, 2048, 10000}. The determinism contract means every cell of
// the sweep produces bit-identical protocol traffic — only the wall clock
// moves. Emits machine-readable BENCH_throughput.json.
//
// Wall-clock timing is deliberate and confined to bench/: src/ stays free
// of real-time reads so simulation stays reproducible.

#include <chrono>
#include <fstream>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "workload/driver.h"

using namespace contjoin;

namespace {

struct RunConfig {
  size_t num_nodes;
  int threads;
};

struct RunOutcome {
  uint64_t events = 0;
  size_t tuples = 0;
  uint64_t parallel_batches = 0;
  size_t notifications = 0;
  double seconds = 0;

  double EventsPerSec() const { return seconds > 0 ? events / seconds : 0; }
  double TuplesPerSec() const { return seconds > 0 ? tuples / seconds : 0; }
};

RunOutcome RunOne(const RunConfig& rc, size_t num_queries, size_t num_waves,
                  size_t wave_width) {
  workload::DriverConfig cfg = bench::DefaultConfig();
  cfg.engine.num_nodes = rc.num_nodes;
  workload::ExperimentDriver driver(cfg);
  driver.InstallQueries(num_queries);

  core::ContinuousQueryNetwork& net = driver.net();
  net.simulator()->SetWorkers(rc.threads);

  Rng placement(rc.num_nodes * 31 + 7);
  const uint64_t events_before = net.simulator()->total_events_run();
  const uint64_t batches_before = net.simulator()->parallel_batches_run();

  RunOutcome out;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t w = 0; w < num_waves; ++w) {
    std::vector<std::pair<size_t, std::string>> origins;
    std::vector<std::vector<rel::Value>> rows;
    origins.reserve(wave_width);
    rows.reserve(wave_width);
    for (size_t i = 0; i < wave_width; ++i) {
      auto [relation, values] = driver.gen().NextTuple();
      origins.emplace_back(placement.NextBelow(rc.num_nodes), relation);
      rows.push_back(std::move(values));
    }
    CJ_CHECK(net.InsertTupleWave(origins, std::move(rows)).ok());
  }
  auto t1 = std::chrono::steady_clock::now();

  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = net.simulator()->total_events_run() - events_before;
  out.tuples = num_waves * wave_width;
  out.parallel_batches =
      net.simulator()->parallel_batches_run() - batches_before;
  out.notifications = driver.DrainNotifications();
  return out;
}

std::string JsonRecord(const RunConfig& rc, const RunOutcome& o) {
  std::string json = "    {";
  json += "\"nodes\": " + std::to_string(rc.num_nodes) + ", ";
  json += "\"threads\": " + std::to_string(rc.threads) + ", ";
  json += "\"events\": " + std::to_string(o.events) + ", ";
  json += "\"tuples\": " + std::to_string(o.tuples) + ", ";
  json += "\"parallel_batches\": " + std::to_string(o.parallel_batches) +
          ", ";
  json += "\"notifications\": " + std::to_string(o.notifications) + ", ";
  json += "\"seconds\": " + bench::Fmt(o.seconds) + ", ";
  json += "\"events_per_sec\": " + bench::Fmt(o.EventsPerSec()) + ", ";
  json += "\"tuples_per_sec\": " + bench::Fmt(o.TuplesPerSec());
  json += "}";
  return json;
}

}  // namespace

int main() {
  bench::PrintFigure(
      "T-P (infrastructure)",
      "Simulator-core throughput vs worker threads and ring size",
      "events/sec rises with the worker count while every cell stays "
      "bit-identical in protocol traffic");

  const size_t kQueries = bench::Scaled(300);
  const size_t kWaves = bench::Scaled(8);
  const std::vector<size_t> kRings = {512, 2048, 10000};
  const std::vector<int> kThreads = {1, 2, 4, 8};

  bench::PrintEffective(0, kQueries, 0);
  // Worker counts beyond the host's core budget only measure barrier
  // overhead, so record the budget next to the numbers it explains.
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# hardware_concurrency: %u\n", hw);
  std::vector<std::string> records;
  bench::PrintRow(
      "nodes\tthreads\ttuples\tevents\tparallel_batches\t"
      "seconds\tevents_per_sec\ttuples_per_sec\tnotifications");

  auto run_and_report = [&](const RunConfig& rc) {
    // Wide waves keep each virtual-time epoch's batch large enough for the
    // worker pool to amortize its barrier; width grows with the ring so
    // bigger rings expose more parallelism, as a real deployment would.
    size_t wave_width = std::max<size_t>(64, rc.num_nodes / 4);
    RunOutcome o = RunOne(rc, kQueries, kWaves, wave_width);
    bench::PrintRow(std::to_string(rc.num_nodes) + "\t" +
                    std::to_string(rc.threads) + "\t" +
                    std::to_string(o.tuples) + "\t" +
                    std::to_string(o.events) + "\t" +
                    std::to_string(o.parallel_batches) + "\t" +
                    bench::Fmt(o.seconds) + "\t" +
                    bench::Fmt(o.EventsPerSec()) + "\t" +
                    bench::Fmt(o.TuplesPerSec()) + "\t" +
                    std::to_string(o.notifications));
    records.push_back(JsonRecord(rc, o));
  };

  for (size_t n : kRings) {
    for (int t : kThreads) {
      run_and_report(RunConfig{n, t});
    }
  }

  std::ofstream json("BENCH_throughput.json");
  json << "{\n  \"figure\": \"throughput\",\n  \"hardware_concurrency\": "
       << hw << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    json << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::printf("\nwrote BENCH_throughput.json (%zu runs)\n", records.size());
  return 0;
}
