// E9 — "Effect of window size and installed queries in total evaluator
// storage load" (§5.7): the steady-state number of objects resident at
// evaluators under sliding-window expiry.

#include "bench_common.h"

using namespace contjoin;

int main() {
  bench::PrintFigure(
      "E9",
      "Effect of window size and installed queries in total evaluator "
      "storage load",
      "steady-state value-level tuple storage is proportional to the window "
      "size; rewritten-query storage grows with the installed queries and, "
      "under a window, is bounded by it too (a rewritten query expires with "
      "its latest trigger; the continuous queries themselves persist)");

  const size_t kTuples = bench::Scaled(4000);
  bench::PrintEffective(bench::DefaultConfig().engine.num_nodes, 0,
                        kTuples);
  bench::PrintRow(
      "window\tqueries\tvltt_tuples\tvlqt_rewritten\ttotal_evaluator_TS");
  for (rel::Timestamp window : {500ull, 1000ull, 2000ull, 0ull}) {
    for (size_t q : {1000u, 2000u, 4000u}) {
      size_t queries = bench::Scaled(q);
      workload::DriverConfig cfg = bench::DefaultConfig();
      cfg.engine.algorithm = core::Algorithm::kSai;
      cfg.engine.window = window;
      workload::ExperimentDriver driver(cfg);
      driver.InstallQueries(queries);
      const size_t kSlice = 500;
      for (size_t done = 0; done < kTuples; done += kSlice) {
        driver.StreamTuples(std::min(kSlice, kTuples - done));
        driver.net().PruneExpired();
        driver.DrainNotifications();
      }
      core::NodeStorage storage = driver.net().TotalStorage();
      bench::PrintRow(
          (window == 0 ? std::string("inf") : std::to_string(window)) + "\t" +
          std::to_string(queries) + "\t" + bench::Fmt(storage.vltt_tuples) +
          "\t" + bench::Fmt(storage.vlqt_rewritten) + "\t" +
          bench::Fmt(storage.vltt_tuples + storage.vlqt_rewritten +
                     storage.daiv_entries));
    }
  }
  return 0;
}
