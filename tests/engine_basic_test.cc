// End-to-end behaviour of the four algorithms on small, hand-checked
// scenarios, including the paper's §3.2 e-learning example and its §4.5
// DAI-V expression-join example.

#include <gtest/gtest.h>

#include "core/engine.h"

namespace contjoin::core {
namespace {

using rel::Value;

class EngineBasicTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  std::unique_ptr<ContinuousQueryNetwork> MakeNet(
      size_t nodes = 32, std::function<void(Options*)> tweak = nullptr) {
    Options opts;
    opts.num_nodes = nodes;
    opts.algorithm = GetParam();
    if (tweak) tweak(&opts);
    auto net = std::make_unique<ContinuousQueryNetwork>(std::move(opts));
    RegisterPaperSchemas(net.get());
    return net;
  }

  static void RegisterPaperSchemas(ContinuousQueryNetwork* net) {
    CJ_CHECK(net->catalog()
                 ->Register(rel::RelationSchema(
                     "Document", {{"Id", rel::ValueType::kInt},
                                  {"Title", rel::ValueType::kString},
                                  {"Conference", rel::ValueType::kString},
                                  {"AuthorId", rel::ValueType::kInt}}))
                 .ok());
    CJ_CHECK(net->catalog()
                 ->Register(rel::RelationSchema(
                     "Authors", {{"Id", rel::ValueType::kInt},
                                 {"Name", rel::ValueType::kString},
                                 {"Surname", rel::ValueType::kString}}))
                 .ok());
    CJ_CHECK(net->catalog()
                 ->Register(rel::RelationSchema(
                     "R", {{"A", rel::ValueType::kInt},
                           {"B", rel::ValueType::kInt},
                           {"C", rel::ValueType::kInt}}))
                 .ok());
    CJ_CHECK(net->catalog()
                 ->Register(rel::RelationSchema(
                     "S", {{"D", rel::ValueType::kInt},
                           {"E", rel::ValueType::kInt},
                           {"F", rel::ValueType::kInt}}))
                 .ok());
  }
};

TEST_P(EngineBasicTest, PaperElearningExample) {
  auto net = MakeNet();
  auto key = net->SubmitQuery(
      3,
      "SELECT D.Title, D.Conference FROM Document AS D, Authors AS A "
      "WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'");
  ASSERT_TRUE(key.ok()) << key.status().ToString();

  // Smith is author 42; a paper by author 42 must notify node 3.
  ASSERT_TRUE(net->InsertTuple(10, "Authors",
                               {Value::Int(42), Value::Str("John"),
                                Value::Str("Smith")})
                  .ok());
  ASSERT_TRUE(net->InsertTuple(11, "Document",
                               {Value::Int(1), Value::Str("P2P Joins"),
                                Value::Str("ICDE"), Value::Int(42)})
                  .ok());
  auto notifications = net->TakeNotifications(3);
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].query_key, key.value());
  ASSERT_EQ(notifications[0].row.size(), 2u);
  EXPECT_EQ(notifications[0].row[0], Value::Str("P2P Joins"));
  EXPECT_EQ(notifications[0].row[1], Value::Str("ICDE"));

  // A paper by someone else does not notify.
  ASSERT_TRUE(net->InsertTuple(12, "Document",
                               {Value::Int(2), Value::Str("Other"),
                                Value::Str("VLDB"), Value::Int(99)})
                  .ok());
  EXPECT_TRUE(net->TakeNotifications(3).empty());

  // Another Smith paper notifies again.
  ASSERT_TRUE(net->InsertTuple(13, "Document",
                               {Value::Int(3), Value::Str("More Joins"),
                                Value::Str("SIGMOD"), Value::Int(42)})
                  .ok());
  EXPECT_EQ(net->TakeNotifications(3).size(), 1u);
}

TEST_P(EngineBasicTest, BothInsertionOrdersProduceTheAnswer) {
  auto net = MakeNet();
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  // R first, then S.
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(net->InsertTuple(2, "S",
                               {Value::Int(5), Value::Int(7), Value::Int(0)})
                  .ok());
  auto first = net->TakeNotifications(0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].row[0], Value::Int(1));
  EXPECT_EQ(first[0].row[1], Value::Int(5));

  // S first, then R (different values).
  ASSERT_TRUE(net->InsertTuple(3, "S",
                               {Value::Int(6), Value::Int(8), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(net->InsertTuple(4, "R",
                               {Value::Int(2), Value::Int(8), Value::Int(0)})
                  .ok());
  auto second = net->TakeNotifications(0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].row[0], Value::Int(2));
  EXPECT_EQ(second[0].row[1], Value::Int(6));
}

TEST_P(EngineBasicTest, TuplesBeforeQueryDoNotTrigger) {
  auto net = MakeNet();
  // Tuple inserted before the query exists.
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(0)})
                  .ok());
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(net->InsertTuple(2, "S",
                               {Value::Int(5), Value::Int(7), Value::Int(0)})
                  .ok());
  // pubT(R-tuple) < insT(q): no notification (paper §3.2 time semantics).
  EXPECT_TRUE(net->TakeNotifications(0).empty());
}

TEST_P(EngineBasicTest, LinearJoinConditionWithSkippedFractionalSolutions) {
  auto net = MakeNet();
  auto key =
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE 2*R.B = S.E");
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  // R.B = 3 -> S.E must be 6.
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(3), Value::Int(0)})
                  .ok());
  // S.E = 7 is odd: matches no R.B (inversion 3.5 not representable).
  ASSERT_TRUE(net->InsertTuple(2, "S",
                               {Value::Int(9), Value::Int(7), Value::Int(0)})
                  .ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
  ASSERT_TRUE(net->InsertTuple(3, "S",
                               {Value::Int(8), Value::Int(6), Value::Int(0)})
                  .ok());
  auto notifications = net->TakeNotifications(0);
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].row[1], Value::Int(8));
}

TEST_P(EngineBasicTest, MultipleSubscribersEachNotified) {
  auto net = MakeNet();
  auto k1 = net->SubmitQuery(1, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  auto k2 = net->SubmitQuery(2, "SELECT R.C, S.F FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(k1.ok() && k2.ok());
  ASSERT_TRUE(net->InsertTuple(3, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(2)})
                  .ok());
  ASSERT_TRUE(net->InsertTuple(4, "S",
                               {Value::Int(5), Value::Int(7), Value::Int(6)})
                  .ok());
  auto n1 = net->TakeNotifications(1);
  auto n2 = net->TakeNotifications(2);
  ASSERT_EQ(n1.size(), 1u);
  ASSERT_EQ(n2.size(), 1u);
  EXPECT_EQ(n1[0].row[0], Value::Int(1));
  EXPECT_EQ(n2[0].row[0], Value::Int(2));
  EXPECT_EQ(n2[0].row[1], Value::Int(6));
}

TEST_P(EngineBasicTest, NoDuplicateNotificationsPerPair) {
  auto net = MakeNet();
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  // Distinct-content tuples so every pair is distinguishable.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net->InsertTuple(1, "R",
                                 {Value::Int(100 + i), Value::Int(7),
                                  Value::Int(0)})
                    .ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(net->InsertTuple(2, "S",
                                 {Value::Int(200 + i), Value::Int(7),
                                  Value::Int(0)})
                    .ok());
  }
  auto notifications = net->TakeNotifications(0);
  // 3 x 2 distinct pairs, each exactly once.
  EXPECT_EQ(notifications.size(), 6u);
  std::set<std::string> contents;
  for (const auto& n : notifications) contents.insert(n.ContentKey());
  EXPECT_EQ(contents.size(), 6u);
}

TEST_P(EngineBasicTest, TrafficIsAccounted) {
  auto net = MakeNet();
  uint64_t before = net->stats().total_hops();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  uint64_t after_query = net->stats().total_hops();
  EXPECT_GT(after_query, before);
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(0)})
                  .ok());
  EXPECT_GT(net->stats().total_hops(), after_query);
  EXPECT_GT(net->stats().hops(sim::MsgClass::kTupleIndex), 0u);
}

TEST_P(EngineBasicTest, FilteringLoadIsRecorded) {
  auto net = MakeNet();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(0)})
                  .ok());
  NodeMetrics total = net->TotalMetrics();
  EXPECT_GT(total.filter_ops_attr, 0u);
  EXPECT_GT(total.tuples_received_attr, 0u);
  EXPECT_EQ(total.queries_received,
            GetParam() == Algorithm::kSai ? 1u : 2u);
}

TEST_P(EngineBasicTest, StorageAccounting) {
  auto net = MakeNet();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  NodeStorage s0 = net->TotalStorage();
  EXPECT_EQ(s0.alqt_queries, GetParam() == Algorithm::kSai ? 1u : 2u);

  // One tuple per relation, with non-matching join values.
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(net->InsertTuple(2, "S",
                               {Value::Int(5), Value::Int(8), Value::Int(0)})
                  .ok());
  NodeStorage s1 = net->TotalStorage();
  switch (GetParam()) {
    case Algorithm::kSai:
      // Whichever side SAI indexed produced one rewritten query; both
      // tuples were stored at their 3 value-level nodes.
      EXPECT_EQ(s1.vlqt_rewritten, 1u);
      EXPECT_EQ(s1.vltt_tuples, 6u);
      break;
    case Algorithm::kDaiQ:
      EXPECT_EQ(s1.vlqt_rewritten, 0u);  // Evaluators don't store queries.
      EXPECT_EQ(s1.vltt_tuples, 6u);
      break;
    case Algorithm::kDaiT:
      EXPECT_EQ(s1.vlqt_rewritten, 2u);  // Both rewriters reindexed once.
      EXPECT_EQ(s1.vltt_tuples, 0u);     // Evaluators don't store tuples.
      break;
    case Algorithm::kDaiV:
      EXPECT_EQ(s1.vlqt_rewritten, 0u);
      EXPECT_EQ(s1.vltt_tuples, 0u);
      EXPECT_EQ(s1.daiv_entries, 2u);  // One projection per trigger side.
      break;
  }
}

TEST_P(EngineBasicTest, UnsubscribeStopsNotifications) {
  auto net = MakeNet();
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(net->InsertTuple(1, "R",
                               {Value::Int(1), Value::Int(7), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(net->Unsubscribe(0, key.value()).ok());
  ASSERT_TRUE(net->InsertTuple(2, "S",
                               {Value::Int(5), Value::Int(7), Value::Int(0)})
                  .ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
  // Value-level state was garbage-collected too.
  EXPECT_EQ(net->TotalStorage().vlqt_rewritten, 0u);
  EXPECT_EQ(net->TotalStorage().daiv_entries, 0u);
  EXPECT_EQ(net->TotalStorage().alqt_queries, 0u);
}

TEST_P(EngineBasicTest, ErrorsAreReported) {
  auto net = MakeNet();
  EXPECT_TRUE(net->SubmitQuery(999, "x").status().IsInvalidArgument());
  EXPECT_TRUE(net->SubmitQuery(0, "SELECT nonsense").status().IsParseError());
  EXPECT_TRUE(net->InsertTuple(0, "Nope", {}).IsNotFound());
  EXPECT_TRUE(
      net->InsertTuple(0, "R", {Value::Int(1)}).IsInvalidArgument());
  EXPECT_TRUE(net->Unsubscribe(0, "missing").IsNotFound());
}

TEST_P(EngineBasicTest, T2QueriesOnlyOnDaiV) {
  auto net = MakeNet();
  auto result = net->SubmitQuery(
      0, "SELECT R.A, S.D FROM R, S WHERE R.A + R.B = S.E + S.F");
  if (GetParam() == Algorithm::kDaiV) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The paper's §4.5 example flow: R with sum 25, then S with sum 25.
    ASSERT_TRUE(net->InsertTuple(1, "R",
                                 {Value::Int(10), Value::Int(15),
                                  Value::Int(0)})
                    .ok());
    ASSERT_TRUE(net->InsertTuple(2, "S",
                                 {Value::Int(3), Value::Int(20),
                                  Value::Int(5)})
                    .ok());
    auto notifications = net->TakeNotifications(0);
    ASSERT_EQ(notifications.size(), 1u);
    EXPECT_EQ(notifications[0].row[0], Value::Int(10));
    EXPECT_EQ(notifications[0].row[1], Value::Int(3));
  } else {
    EXPECT_TRUE(result.status().IsUnsupported());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, EngineBasicTest,
                         ::testing::Values(Algorithm::kSai, Algorithm::kDaiQ,
                                           Algorithm::kDaiT,
                                           Algorithm::kDaiV),
                         [](const auto& info) {
                           return std::string(AlgorithmName(info.param))
                                      .substr(0, 3) +
                                  (info.param == Algorithm::kSai ? ""
                                   : info.param == Algorithm::kDaiQ ? "Q"
                                   : info.param == Algorithm::kDaiT ? "T"
                                                                    : "V");
                         });

}  // namespace
}  // namespace contjoin::core
