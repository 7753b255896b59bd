// E-R — Robustness under transport faults and churn (extension; the paper's
// §3.2 leaves failure handling to the DHT, i.e. best-effort). Sweeps drop
// rate x reliability on/off per algorithm and reports answer completeness
// against the loss-free oracle plus the retry/ack overhead the reliable
// delivery layer pays. A scripted-churn pair per algorithm isolates the
// soft-state repair path. Besides the usual rows, emits machine-readable
// BENCH_robustness.json for plotting.

#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "faults/churn.h"
#include "query/parser.h"
#include "reference/reference_engine.h"

using namespace contjoin;

namespace {

struct RunConfig {
  core::Algorithm algorithm;
  double drop_prob;
  bool churn;
  bool reliability;
};

struct RunOutcome {
  size_t expected = 0;
  size_t delivered = 0;  // Distinct expected answers actually delivered.
  core::NodeMetrics totals;
  uint64_t injected_drops = 0;
  uint64_t injected_duplicates = 0;
  uint64_t injected_delays = 0;
  uint64_t total_hops = 0;
  uint64_t total_bytes = 0;  // Encoded wire size of every transmitted hop.

  double Completeness() const {
    return expected == 0 ? 1.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(expected);
  }
};

/// The protocol-carrying message classes; ring maintenance stays reliable
/// so the sweep isolates protocol-level loss (as in the equivalence tests).
faults::FaultOptions LossyTransport(double drop_prob, uint64_t seed) {
  faults::FaultOptions fopts;
  fopts.seed = seed * 13 + 1;
  faults::FaultProfile p;
  p.drop_prob = drop_prob;
  p.duplicate_prob = drop_prob / 2;
  p.delay_prob = drop_prob / 2;
  p.max_extra_delay = 3;
  fopts.SetProfiles(
      std::vector<sim::MsgClass>{
          sim::MsgClass::kQueryIndex, sim::MsgClass::kTupleIndex,
          sim::MsgClass::kRewrittenQuery, sim::MsgClass::kNotification},
      p);
  return fopts;
}

RunOutcome RunOne(const RunConfig& rc, size_t num_nodes, size_t num_queries,
                  size_t num_tuples, uint64_t seed) {
  workload::WorkloadOptions wopts;
  wopts.seed = seed;
  wopts.attrs_per_relation = 3;
  wopts.domain = 40;
  wopts.zipf_theta = 0.6;
  workload::WorkloadGenerator gen(wopts);

  core::Options opts;
  opts.num_nodes = num_nodes;
  opts.algorithm = rc.algorithm;
  opts.seed = seed;
  if (rc.drop_prob > 0) opts.faults = LossyTransport(rc.drop_prob, seed);
  opts.reliability.enabled = rc.reliability;
  opts.count_wire_bytes = true;

  core::ContinuousQueryNetwork net(opts);
  CJ_CHECK(gen.RegisterSchemas(net.catalog()).ok());

  ref::ReferenceEngine oracle;
  Rng placement(seed * 7 + 1);
  uint64_t ref_seq = 0;

  auto alive_node = [&]() {
    size_t node = placement.NextBelow(num_nodes);
    while (!net.node(node)->alive()) node = (node + 1) % net.num_nodes();
    return node;
  };
  auto insert_one = [&]() {
    auto [relation, values] = gen.NextTuple();
    std::vector<rel::Value> copy = values;
    CJ_CHECK(net.InsertTuple(alive_node(), relation, std::move(values)).ok());
    oracle.InsertTuple(std::make_shared<const rel::Tuple>(
        relation, std::move(copy), net.now(), ref_seq++));
  };

  for (size_t i = 0; i < num_queries; ++i) {
    std::string sql = gen.NextQuerySql();
    auto key = net.SubmitQuery(alive_node(), sql);
    CJ_CHECK(key.ok()) << key.status().ToString();
    auto parsed = query::ParseQuery(sql, *net.catalog());
    CJ_CHECK(parsed.ok());
    parsed.value().set_key(key.value());
    parsed.value().set_insertion_time(net.now());
    oracle.AddQuery(std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value()));
  }

  // Pin the churn schedule to measured per-insert virtual time (retry
  // timers dilate it), as in the fault-equivalence tests.
  rel::Timestamp before_first = net.now();
  insert_one();
  sim::SimTime dt = std::max<rel::Timestamp>(1, net.now() - before_first);
  if (rc.churn) {
    net.InstallChurnScript(faults::ChurnScript::Alternating(
        net.now() + (num_tuples / 8) * dt, (num_tuples / 8) * dt,
        /*crashes=*/3, /*joins=*/2));
  }
  for (size_t i = 1; i < num_tuples; ++i) insert_one();
  for (int i = 0; i < 200 && net.PendingChurnEvents() > 0; ++i) insert_one();

  // Crashed subscribers reconnect and receive their ring-stored answers.
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    if (!net.node(i)->alive()) net.ReconnectNode(i, /*new_ip=*/false);
  }

  std::vector<core::Notification> all;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (core::Notification& n : net.TakeNotifications(i)) {
      all.push_back(std::move(n));
    }
  }
  std::set<std::string> actual = ref::ReferenceEngine::ContentSet(all);
  std::set<std::string> expected = oracle.ContentSet();

  RunOutcome out;
  out.expected = expected.size();
  for (const std::string& key : expected) {
    if (actual.count(key) > 0) ++out.delivered;
  }
  out.totals = net.TotalMetrics();
  if (net.fault_plan() != nullptr) {
    out.injected_drops = net.fault_plan()->injected_drops();
    out.injected_duplicates = net.fault_plan()->injected_duplicates();
    out.injected_delays = net.fault_plan()->injected_delays();
  }
  out.total_hops = net.stats().total_hops();
  out.total_bytes = net.stats().total_bytes();
  return out;
}

bench::JsonObject JsonRecord(const RunConfig& rc, const RunOutcome& o) {
  return bench::JsonObject()
      .Str("algorithm", AlgorithmName(rc.algorithm))
      .Num("drop_prob", rc.drop_prob)
      .Bool("churn", rc.churn)
      .Bool("reliability", rc.reliability)
      .Int("expected", o.expected)
      .Int("delivered", o.delivered)
      .Num("completeness", o.Completeness())
      .Int("reliable_sent", o.totals.reliable_sent)
      .Int("retries", o.totals.reliable_retries)
      .Int("acks", o.totals.reliable_acks_sent)
      .Int("dups_suppressed", o.totals.reliable_dups_suppressed)
      .Int("abandoned", o.totals.reliable_abandoned)
      .Int("injected_drops", o.injected_drops)
      .Int("injected_duplicates", o.injected_duplicates)
      .Int("injected_delays", o.injected_delays)
      .Int("total_hops", o.total_hops)
      .Int("total_bytes", o.total_bytes);
}

std::string Row(const RunConfig& rc, const RunOutcome& o) {
  return std::string(AlgorithmName(rc.algorithm)) + "\t" +
         bench::Fmt(rc.drop_prob * 100) + "\t" +
         (rc.churn ? "yes" : "no") + "\t" +
         (rc.reliability ? "on" : "off") + "\t" +
         bench::Fmt(100.0 * o.Completeness()) + "\t" +
         std::to_string(o.delivered) + "/" + std::to_string(o.expected) +
         "\t" + std::to_string(o.totals.reliable_retries) + "\t" +
         std::to_string(o.totals.reliable_acks_sent) + "\t" +
         std::to_string(o.injected_drops) + "\t" +
         std::to_string(o.total_hops) + "\t" + std::to_string(o.total_bytes);
}

}  // namespace

int main() {
  bench::PrintFigure(
      "E-R",
      "Answer completeness and delivery overhead under message loss and "
      "churn (reliability layer on/off)",
      "with the reliability layer on, completeness stays at 100% at every "
      "fault rate, paid for in retries and acks; with it off (the paper's "
      "§3.2 best-effort semantics) completeness falls as the drop rate "
      "rises, and scripted churn loses further answers");

  const size_t kNodes = bench::Scaled(20);
  const size_t kQueries = bench::Scaled(20);
  const size_t kTuples = bench::Scaled(100);
  bench::PrintEffective(kNodes, kQueries, kTuples);
  const uint64_t kSeed = 5;

  const std::vector<core::Algorithm> kAlgorithms = {
      core::Algorithm::kSai, core::Algorithm::kDaiQ, core::Algorithm::kDaiT,
      core::Algorithm::kDaiV};

  std::vector<RunConfig> sweep;
  // Fault-rate axis, ring intact: completeness vs drop rate.
  for (core::Algorithm alg : kAlgorithms) {
    for (double p : {0.0, 0.01, 0.05}) {
      for (bool reliability : {true, false}) {
        sweep.push_back(RunConfig{alg, p, /*churn=*/false, reliability});
      }
    }
  }
  // Churn pair, low loss: what the soft-state repair path buys.
  for (core::Algorithm alg : kAlgorithms) {
    for (bool reliability : {true, false}) {
      sweep.push_back(RunConfig{alg, 0.01, /*churn=*/true, reliability});
    }
  }

  bench::PrintRow(
      "algorithm\tdrop%\tchurn\treliability\tcompleteness%\tanswers\t"
      "retries\tacks\tinjected_drops\ttotal_hops\tbytes");
  std::vector<bench::JsonObject> records;
  for (const RunConfig& rc : sweep) {
    RunOutcome o = RunOne(rc, kNodes, kQueries, kTuples, kSeed);
    bench::PrintRow(Row(rc, o));
    records.push_back(JsonRecord(rc, o));
  }

  bench::JsonObject()
      .Str("figure", "robustness")
      .List("runs", records)
      .WriteFile("BENCH_robustness.json");
  std::printf("\nwrote BENCH_robustness.json (%zu runs)\n", records.size());
  return 0;
}
