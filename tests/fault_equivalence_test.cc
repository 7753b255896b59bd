// Headline property of the fault-tolerance subsystem: with the reliable
// delivery layer and soft-state repair enabled, every distributed algorithm
// delivers exactly the reference engine's notification content set even when
// the transport drops / duplicates / delays protocol messages and the ring
// churns mid-workload. With reliability disabled, the same lossy runs
// demonstrably lose answers (the paper's §3.2 best-effort semantics).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "faults/churn.h"
#include "query/parser.h"
#include "reference/reference_engine.h"
#include "workload/workload.h"

namespace contjoin::core {
namespace {

struct FaultScenario {
  Algorithm algorithm;
  double drop_prob;  // Applied to the protocol message classes.
  bool churn;
  uint64_t seed;

  std::string Name() const {
    std::string out = AlgorithmName(algorithm);
    out += "_p" + std::to_string(static_cast<int>(drop_prob * 100));
    if (churn) out += "_churn";
    out += "_s" + std::to_string(seed);
    for (char& c : out) {
      if (c == '-') c = '_';
    }
    return out;
  }
};

constexpr size_t kNumNodes = 20;
constexpr size_t kNumQueries = 20;
constexpr size_t kNumTuples = 100;

/// The classes carrying the continuous-query protocol; ring maintenance is
/// left reliable so the churn experiments isolate protocol-level loss.
const std::vector<sim::MsgClass> kProtocolClasses = {
    sim::MsgClass::kQueryIndex, sim::MsgClass::kTupleIndex,
    sim::MsgClass::kRewrittenQuery, sim::MsgClass::kNotification};

faults::FaultOptions LossyTransport(double drop_prob, uint64_t seed) {
  faults::FaultOptions fopts;
  fopts.seed = seed * 13 + 1;
  faults::FaultProfile p;
  p.drop_prob = drop_prob;
  p.duplicate_prob = drop_prob / 2;
  p.delay_prob = drop_prob / 2;
  p.max_extra_delay = 3;
  fopts.SetProfiles(kProtocolClasses, p);
  return fopts;
}

struct RunResult {
  std::set<std::string> actual;
  std::set<std::string> expected;
  uint64_t total_hops = 0;
  NodeMetrics totals;
};

/// Runs the standard random workload against `opts` (fault plan and churn
/// already configured by the caller) and the loss-free oracle, reconnecting
/// crashed nodes at the end so ring-stored notifications are handed back.
RunResult RunWorkload(Options opts, const FaultScenario& sc) {
  workload::WorkloadOptions wopts;
  wopts.seed = sc.seed;
  wopts.attrs_per_relation = 3;
  wopts.domain = 40;
  wopts.zipf_theta = 0.6;
  workload::WorkloadGenerator gen(wopts);

  ContinuousQueryNetwork net(opts);
  CJ_CHECK(gen.RegisterSchemas(net.catalog()).ok());

  ref::ReferenceEngine oracle;
  Rng placement(sc.seed * 7 + 1);
  uint64_t ref_seq = 0;

  // Picks the workload-designated node, probing forward past crashed ones
  // (a real client submits through a node that is up).
  auto alive_node = [&]() {
    size_t node = placement.NextBelow(kNumNodes);
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

  for (size_t i = 0; i < kNumQueries; ++i) {
    std::string sql = gen.NextQuerySql();
    auto key = net.SubmitQuery(alive_node(), sql);
    CJ_CHECK(key.ok()) << sql << ": " << key.status().ToString();
    auto parsed = query::ParseQuery(sql, *net.catalog());
    CJ_CHECK(parsed.ok());
    parsed.value().set_key(key.value());
    parsed.value().set_insertion_time(net.now());
    oracle.AddQuery(std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value()));
  }

  // Virtual time per operation depends on retry-timer horizons, so the
  // churn schedule is pinned relative to a measured per-insert duration:
  // three crashes and two joins spread over the tuple phase.
  rel::Timestamp before_first = net.now();
  insert_one();
  sim::SimTime dt = std::max<rel::Timestamp>(1, net.now() - before_first);
  if (sc.churn) {
    net.InstallChurnScript(faults::ChurnScript::Alternating(
        net.now() + 15 * dt, 15 * dt, /*crashes=*/3, /*joins=*/2));
  }
  for (size_t i = 1; i < kNumTuples; ++i) insert_one();
  // Late-scheduled events still due: keep the workload running until the
  // whole script has been applied (bounded; dt tracks real per-op time).
  for (int i = 0; i < 200 && net.PendingChurnEvents() > 0; ++i) insert_one();
  CJ_CHECK(net.PendingChurnEvents() == 0) << "churn script never completed";

  // Crashed subscribers come back (§4.6): the Chord key transfer hands
  // their ring-stored notifications back into the inbox.
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    if (!net.node(i)->alive()) net.ReconnectNode(i, /*new_ip=*/false);
  }

  RunResult out;
  std::vector<Notification> delivered;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (Notification& n : net.TakeNotifications(i)) {
      delivered.push_back(std::move(n));
    }
  }
  out.actual = ref::ReferenceEngine::ContentSet(delivered);
  out.expected = oracle.ContentSet();
  out.total_hops = net.stats().total_hops();
  out.totals = net.TotalMetrics();
  return out;
}

Options ScenarioOptions(const FaultScenario& sc, bool reliability) {
  Options opts;
  opts.num_nodes = kNumNodes;
  opts.algorithm = sc.algorithm;
  opts.seed = sc.seed;
  if (sc.drop_prob > 0) {
    opts.faults = LossyTransport(sc.drop_prob, sc.seed);
  }
  opts.reliability.enabled = reliability;
  return opts;
}

class FaultEquivalenceTest : public ::testing::TestWithParam<FaultScenario> {};

TEST_P(FaultEquivalenceTest, ReliableDeliveryMatchesReference) {
  const FaultScenario& sc = GetParam();
  RunResult r = RunWorkload(ScenarioOptions(sc, /*reliability=*/true), sc);

  std::vector<std::string> missing, extra;
  std::set_difference(r.expected.begin(), r.expected.end(), r.actual.begin(),
                      r.actual.end(), std::back_inserter(missing));
  std::set_difference(r.actual.begin(), r.actual.end(), r.expected.begin(),
                      r.expected.end(), std::back_inserter(extra));
  EXPECT_TRUE(missing.empty())
      << missing.size() << " notifications missing, first: " << missing[0];
  EXPECT_TRUE(extra.empty())
      << extra.size() << " spurious notifications, first: " << extra[0];
  EXPECT_FALSE(r.expected.empty()) << "vacuous scenario: no joins fired";

  // The reliability layer must actually have been exercised.
  EXPECT_GT(r.totals.reliable_sent, 0u);
  if (sc.drop_prob > 0) {
    EXPECT_GT(r.totals.reliable_retries, 0u)
        << "lossy transport but no retries fired";
  }
}

std::vector<FaultScenario> AllFaultScenarios() {
  std::vector<FaultScenario> out;
  for (Algorithm alg : {Algorithm::kSai, Algorithm::kDaiQ, Algorithm::kDaiT,
                        Algorithm::kDaiV}) {
    for (double p : {0.0, 0.01, 0.05}) {
      FaultScenario sc{};
      sc.algorithm = alg;
      sc.drop_prob = p;
      sc.churn = true;
      sc.seed = 3;
      out.push_back(sc);
    }
  }
  // Loss without churn (pure transport faults, ring stays intact).
  for (Algorithm alg : {Algorithm::kSai, Algorithm::kDaiQ, Algorithm::kDaiT,
                        Algorithm::kDaiV}) {
    FaultScenario sc{};
    sc.algorithm = alg;
    sc.drop_prob = 0.05;
    sc.churn = false;
    sc.seed = 5;
    out.push_back(sc);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultEquivalenceTest,
                         ::testing::ValuesIn(AllFaultScenarios()),
                         [](const auto& info) { return info.param.Name(); });

// With reliability off, the identical lossy run loses answers: this is the
// §3.2 best-effort behaviour the subsystem exists to fix, and it guards
// against the property test passing vacuously (e.g. a fault plan that never
// actually drops anything).
TEST(BestEffortBaseline, LossyTransportLosesNotifications) {
  FaultScenario sc{};
  sc.algorithm = Algorithm::kDaiT;
  sc.drop_prob = 0.05;
  sc.churn = false;
  sc.seed = 5;
  RunResult r = RunWorkload(ScenarioOptions(sc, /*reliability=*/false), sc);

  std::vector<std::string> missing, extra;
  std::set_difference(r.expected.begin(), r.expected.end(), r.actual.begin(),
                      r.actual.end(), std::back_inserter(missing));
  std::set_difference(r.actual.begin(), r.actual.end(), r.expected.begin(),
                      r.expected.end(), std::back_inserter(extra));
  EXPECT_FALSE(missing.empty())
      << "5% message loss without the reliability layer should lose answers";
  // Best effort never fabricates content: drops and duplicates can only
  // remove answers or repeat them, and repeats collapse in the set.
  EXPECT_TRUE(extra.empty())
      << extra.size() << " spurious notifications, first: " << extra[0];
  EXPECT_EQ(r.totals.reliable_sent, 0u);
  EXPECT_EQ(r.totals.reliable_retries, 0u);
}

// Same seed + same plan => bit-identical run, faults and repairs included.
TEST(FaultDeterminism, SameConfigurationIsBitIdentical) {
  FaultScenario sc{};
  sc.algorithm = Algorithm::kSai;
  sc.drop_prob = 0.05;
  sc.churn = true;
  sc.seed = 7;
  RunResult a = RunWorkload(ScenarioOptions(sc, /*reliability=*/true), sc);
  RunResult b = RunWorkload(ScenarioOptions(sc, /*reliability=*/true), sc);
  EXPECT_EQ(a.actual, b.actual);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.totals.Report(), b.totals.Report());
}

}  // namespace
}  // namespace contjoin::core
