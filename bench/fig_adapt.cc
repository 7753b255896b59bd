// E-A — Adaptive load manager under value skew (extension figure, not a
// paper figure). Streams the same workload at uniform and Zipf-skewed
// value frequencies with the runtime load manager off and on, and
// reports the per-node total-filtering distribution (Gini, top-1% node
// share) plus the manager's own activity counters. The claim under test:
// with adaptation on, hot-key splitting and attribute replication pull
// the skewed run's concentration back to the uniform run's ballpark
// (within 25%), without changing what gets delivered. Emits
// machine-readable BENCH_adapt.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace contjoin;

namespace {

// Concentration at theta >= 0.9 must come back to within this factor of
// the uniform-workload baseline once the manager is on.
constexpr double kAcceptFactor = 1.25;

struct Cell {
  double theta;
  bool adapt;
};

struct CellResult {
  double tf_gini = 0.0;
  double tf_top1 = 0.0;
  double tf_max = 0.0;
  size_t notifications = 0;
  uint64_t directives = 0;
  uint64_t redirects = 0;
  uint64_t reships = 0;
};

CellResult RunCell(const Cell& cell, size_t num_queries, size_t num_tuples) {
  workload::DriverConfig cfg = bench::DefaultConfig();
  cfg.engine.num_nodes = bench::Scaled(128);
  // A small domain concentrates the skew in a handful of very hot values
  // — the regime the value-splitting scheme targets. The uniform cells
  // share it so the baseline sees the same collision structure.
  cfg.workload.domain = 48;
  cfg.workload.zipf_theta = cell.theta;
  if (cell.adapt) {
    cfg.engine.adapt.enabled = true;
    cfg.engine.adapt.epoch_len = 256;
    cfg.engine.adapt.hot_threshold = 24;
    cfg.engine.adapt.cool_threshold = 8;
    cfg.engine.adapt.dwell_epochs = 1;
    cfg.engine.adapt.max_split = 16;
    cfg.engine.adapt.max_replicas = 6;
  }
  workload::ExperimentDriver driver(cfg);
  bench::PhaseResult phases =
      bench::RunStandardPhases(&driver, num_queries, num_tuples);

  CellResult out;
  LoadDistribution tf = driver.net().FilteringLoadDistribution();
  out.tf_gini = tf.Gini();
  out.tf_top1 = tf.TopShare(0.01);
  out.tf_max = tf.max();
  out.notifications = phases.notifications;
  core::NodeMetrics totals = driver.net().TotalMetrics();
  out.directives = totals.adapt_directives;
  out.redirects = totals.adapt_redirects;
  out.reships = totals.adapt_reships;
  return out;
}

bench::JsonObject JsonRecord(const Cell& cell, const CellResult& r) {
  return bench::JsonObject()
      .Num("theta", cell.theta)
      .Bool("adapt", cell.adapt)
      .Num("tf_gini", r.tf_gini)
      .Num("tf_top1", r.tf_top1)
      .Num("tf_max", r.tf_max)
      .Int("notifications", r.notifications)
      .Int("directives", r.directives)
      .Int("redirects", r.redirects)
      .Int("reships", r.reships);
}

}  // namespace

int main() {
  bench::PrintFigure(
      "E-A (extension)",
      "Total-filtering concentration under value skew, adaptive load "
      "manager off vs on",
      "with adaptation off, Zipf-skewed values concentrate filtering on "
      "the hot values' homes; with it on, hot keys split and replicate "
      "until the skewed run's Gini and top-1% share sit within 25% of "
      "the uniform run's, while delivering the same notifications");

  const size_t kQueries = bench::Scaled(400);
  const size_t kTuples = bench::Scaled(4000);
  bench::PrintEffective(bench::Scaled(128), kQueries, kTuples);
  bench::PrintRow(
      "theta\tadapt\ttf_gini\ttf_top1\ttf_max\tnotifications\t"
      "directives\tredirects\treships");

  const std::vector<double> kThetas = {0.0, 0.9, 1.2};
  std::vector<bench::JsonObject> records;
  CellResult uniform_on;   // theta 0, adapt on: the acceptance baseline.
  CellResult skewed_on;    // theta 0.9, adapt on: the acceptance subject.
  CellResult skewed_off;   // theta 0.9, adapt off: what it rescues.
  for (double theta : kThetas) {
    for (bool adapt : {false, true}) {
      Cell cell{theta, adapt};
      CellResult r = RunCell(cell, kQueries, kTuples);
      bench::PrintRow(bench::Fmt(theta) + "\t" + (adapt ? "on" : "off") +
                      "\t" + bench::Fmt(r.tf_gini) + "\t" +
                      bench::Fmt(r.tf_top1) + "\t" + bench::Fmt(r.tf_max) +
                      "\t" + std::to_string(r.notifications) + "\t" +
                      std::to_string(r.directives) + "\t" +
                      std::to_string(r.redirects) + "\t" +
                      std::to_string(r.reships));
      records.push_back(JsonRecord(cell, r));
      if (theta == 0.0 && adapt) uniform_on = r;
      if (theta == 0.9 && adapt) skewed_on = r;
      if (theta == 0.9 && !adapt) skewed_off = r;
    }
  }

  const double gini_ratio =
      uniform_on.tf_gini > 0 ? skewed_on.tf_gini / uniform_on.tf_gini : 0.0;
  const double top1_ratio =
      uniform_on.tf_top1 > 0 ? skewed_on.tf_top1 / uniform_on.tf_top1 : 0.0;
  const bool gini_ok = gini_ratio <= kAcceptFactor;
  const bool top1_ok = top1_ratio <= kAcceptFactor;
  const bool acted = skewed_on.directives > 0;
  std::printf("# theta 0.9 adapt-on vs uniform: gini ratio %s (%s), "
              "top-1%% ratio %s (%s), directives %llu\n",
              bench::Fmt(gini_ratio).c_str(), gini_ok ? "ok" : "VIOLATED",
              bench::Fmt(top1_ratio).c_str(), top1_ok ? "ok" : "VIOLATED",
              static_cast<unsigned long long>(skewed_on.directives));
  std::printf("# theta 0.9 adapt off->on: gini %s -> %s, top-1%% %s -> %s\n",
              bench::Fmt(skewed_off.tf_gini).c_str(),
              bench::Fmt(skewed_on.tf_gini).c_str(),
              bench::Fmt(skewed_off.tf_top1).c_str(),
              bench::Fmt(skewed_on.tf_top1).c_str());

  bench::JsonObject()
      .Str("figure", "adapt")
      .Num("accept_factor", kAcceptFactor)
      .List("runs", records)
      .Obj("acceptance", bench::JsonObject()
                             .Num("gini_ratio", gini_ratio)
                             .Num("top1_ratio", top1_ratio)
                             .Bool("gini_ok", gini_ok)
                             .Bool("top1_ok", top1_ok)
                             .Int("directives", skewed_on.directives))
      .WriteFile("BENCH_adapt.json");
  std::printf("\nwrote BENCH_adapt.json (%zu runs)\n", records.size());

  // The smoke gate: the manager must have acted on the skewed run and
  // met the concentration acceptance, and adaptation must not change
  // what is delivered.
  if (!acted || !gini_ok || !top1_ok) return 1;
  return 0;
}
