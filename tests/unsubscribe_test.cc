// Unsubscription (extension beyond the paper) sends only what clearing a
// cancelled query's state needs. DAI-Q evaluators store tuples and never
// queries (§4.4.2), so a DAI-Q cancellation stops at the rewriters; the
// adaptive manager stores joins at every T1 evaluator, so there the
// evaluators are told again. Where they are told, each ALQT entry's own
// record of them follows the entry to a new home, and under reliable
// delivery a dropped removal is retried until it lands.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"

namespace contjoin::core {
namespace {

using rel::Value;

constexpr size_t kNodes = 64;

/// Two replicas by default, so every rewriter count below is doubled.
std::unique_ptr<ContinuousQueryNetwork> MakeNet(
    Algorithm algorithm, const std::function<void(Options*)>& tweak) {
  Options opts;
  opts.num_nodes = kNodes;
  opts.algorithm = algorithm;
  opts.attribute_replication = 2;
  opts.seed = 7;
  tweak(&opts);
  auto net = std::make_unique<ContinuousQueryNetwork>(opts);
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
  return net;
}

uint64_t UnsubscribesReceived(const ContinuousQueryNetwork& net) {
  return net.TotalMetrics()
      .received_by_type[static_cast<size_t>(CqMsgType::kUnsubscribe)];
}

TEST(DaiqUnsubscribeTest, OneUnsubscribeReachesTheRewritersOnly) {
  auto net = MakeNet(Algorithm::kDaiQ, [](Options*) {});
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  // Rewrites of both sides reach evaluators before the cancellation.
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net->InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
  ASSERT_EQ(net->TakeNotifications(0).size(), 1u);

  const uint64_t before = UnsubscribesReceived(*net);
  ASSERT_TRUE(net->Unsubscribe(0, key.value()).ok());
  // One message per (side, replica) rewriter and none to evaluators.
  EXPECT_EQ(UnsubscribesReceived(*net) - before,
            2u * static_cast<uint64_t>(
                     net->options().attribute_replication));
  EXPECT_EQ(net->TotalStorage().alqt_queries, 0u);
  ASSERT_TRUE(net->InsertTuple(3, "R", {Value::Int(2), Value::Int(7)}).ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
}

TEST(DaiqUnsubscribeTest, AdaptiveEvaluatorsAreStillCleared) {
  auto net = MakeNet(Algorithm::kDaiQ,
                     [](Options* o) { o->adapt.enabled = true; });
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
  // Adaptive evaluators store arriving joins, even under DAI-Q.
  ASSERT_GT(net->TotalStorage().vlqt_rewritten, 0u);
  ASSERT_TRUE(net->Unsubscribe(0, key.value()).ok());
  EXPECT_EQ(net->TotalStorage().vlqt_rewritten, 0u);
  EXPECT_EQ(net->TotalStorage().alqt_queries, 0u);
  ASSERT_TRUE(net->InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
}

// The replay log drops a cancelled query wherever it sits and keeps the
// others: a refresh re-indexes exactly the live ones.
TEST(DaiqUnsubscribeTest, RefreshReplaysOnlyLiveQueries) {
  auto net = MakeNet(Algorithm::kDaiQ, [](Options*) {});
  const std::string sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.E";
  std::vector<std::string> keys;
  for (size_t i = 0; i < 3; ++i) {
    auto key = net->SubmitQuery(i, sql);
    ASSERT_TRUE(key.ok());
    keys.push_back(key.value());
  }
  ASSERT_TRUE(net->Unsubscribe(1, keys[1]).ok());
  net->RefreshIndexes();
  // Two live queries, each under two sides and two replicas.
  EXPECT_EQ(net->TotalStorage().alqt_queries, 8u);
  ASSERT_TRUE(net->InsertTuple(3, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net->InsertTuple(4, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_EQ(net->TakeNotifications(0).size(), 1u);
  EXPECT_TRUE(net->TakeNotifications(1).empty());
  EXPECT_EQ(net->TakeNotifications(2).size(), 1u);
  EXPECT_TRUE(net->Unsubscribe(1, keys[1]).IsNotFound());
}

// Churn repair hands an ALQT bucket to a joined node, and its entries
// carry the evaluators their query was rewritten to, so the new rewriter
// can still clear them.
TEST(UnsubscribeHandoffTest, JoinedRewriterClearsEvaluatorState) {
  auto net = MakeNet(Algorithm::kDaiT,
                     [](Options* o) { o->attribute_replication = 1; });
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_EQ(net->TotalStorage().vlqt_rewritten, 1u);
  // Join nodes until one of them takes over a rewriter of the query.
  bool handed_off = false;
  for (int joins = 0; joins < 200 && !handed_off; ++joins) {
    const size_t joined = net->JoinNewNode();
    net->ReconcilePlacement();
    handed_off = net->storage(joined).alqt_queries > 0;
  }
  ASSERT_TRUE(handed_off);
  ASSERT_TRUE(net->Unsubscribe(0, key.value()).ok());
  EXPECT_EQ(net->TotalStorage().alqt_queries, 0u);
  EXPECT_EQ(net->TotalStorage().vlqt_rewritten, 0u);
  ASSERT_TRUE(net->InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
}

// With reliable delivery on, removal messages are retried like every
// other critical message: however the dropped control hops fall, neither
// a rewriter nor an evaluator keeps a cancelled query.
TEST(UnsubscribeReliabilityTest, DroppedControlHopsNeverKeepACancelledQuery) {
  for (Algorithm algorithm : {Algorithm::kSai, Algorithm::kDaiQ,
                              Algorithm::kDaiT, Algorithm::kDaiV}) {
    for (uint64_t fault_seed = 1; fault_seed <= 20; ++fault_seed) {
      SCOPED_TRACE(std::string(AlgorithmName(algorithm)) + " fault seed " +
                   std::to_string(fault_seed));
      auto net = MakeNet(algorithm, [&](Options* o) {
        o->reliability.enabled = true;
        o->faults.seed = fault_seed;
        o->faults.profile(sim::MsgClass::kControl).drop_prob = 0.3;
        // Drops hit every routed hop and every ack, so at this loss rate
        // the default 8 retries run out for some removals; this budget
        // lets every one land (checked below).
        o->reliability.max_retries = 20;
      });
      auto key =
          net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
      ASSERT_TRUE(key.ok());
      ASSERT_TRUE(
          net->InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
      ASSERT_TRUE(
          net->InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
      ASSERT_EQ(net->TakeNotifications(0).size(), 1u);

      ASSERT_TRUE(net->Unsubscribe(0, key.value()).ok());
      EXPECT_EQ(net->TotalMetrics().reliable_abandoned, 0u);
      const NodeStorage storage = net->TotalStorage();
      EXPECT_EQ(storage.alqt_queries, 0u);
      EXPECT_EQ(storage.vlqt_rewritten, 0u);
      EXPECT_EQ(storage.daiv_entries, 0u);
      ASSERT_TRUE(
          net->InsertTuple(3, "R", {Value::Int(2), Value::Int(7)}).ok());
      ASSERT_TRUE(
          net->InsertTuple(4, "S", {Value::Int(6), Value::Int(7)}).ok());
      EXPECT_TRUE(net->TakeNotifications(0).empty());
    }
  }
}

}  // namespace
}  // namespace contjoin::core
