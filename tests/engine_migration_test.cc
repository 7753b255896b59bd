// §4.7 "moving an identifier": an overloaded rewriter hands its
// attribute-level role (stored queries + arrival statistics) to the
// successor of a fresh identifier; the base node keeps a one-hop
// forwarding pointer.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/engine.h"

namespace contjoin::core {
namespace {

using rel::Value;

class MigrationTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  std::unique_ptr<ContinuousQueryNetwork> MakeNet(
      std::function<void(Options*)> tweak = nullptr) {
    Options opts;
    opts.num_nodes = 48;
    opts.algorithm = GetParam();
    if (tweak) tweak(&opts);
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

  size_t IndexOf(ContinuousQueryNetwork* net, chord::Node* node) {
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      if (net->node(i) == node) return i;
    }
    CJ_CHECK(false);
    return 0;
  }
};

TEST_P(MigrationTest, AnswersSurviveMigrationInBothDirections) {
  auto net = MakeNet();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  // Move both possible rewriter keys.
  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
  ASSERT_TRUE(net->MigrateAttribute(1, "S", "E").ok());
  // Queries submitted before and tuples after the move still join.
  ASSERT_TRUE(net->InsertTuple(2, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net->InsertTuple(3, "S", {Value::Int(5), Value::Int(7)}).ok());
  auto n = net->TakeNotifications(0);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0].row[0], Value::Int(1));

  // Queries submitted AFTER the move are forwarded to the holder too.
  ASSERT_TRUE(
      net->SubmitQuery(4, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  ASSERT_TRUE(net->InsertTuple(2, "R", {Value::Int(2), Value::Int(9)}).ok());
  ASSERT_TRUE(net->InsertTuple(3, "S", {Value::Int(6), Value::Int(9)}).ok());
  EXPECT_EQ(net->TakeNotifications(4).size(), 1u);
  EXPECT_EQ(net->TakeNotifications(0).size(), 1u);
}

TEST_P(MigrationTest, BucketActuallyMoves) {
  auto net = MakeNet();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  chord::Node* base =
      net->network()->OracleSuccessor(AttrIndexId("R", "B", 0));
  size_t base_index = IndexOf(net.get(), base);
  uint64_t base_alqt_before = net->storage(base_index).alqt_queries;

  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
  const NodeState* base_state = net->state(base_index);
  // SAI may have indexed the query by the S side; the pointer is set either
  // way once the key moves.
  auto moved = base_state->rewriter.moved_attrs.find("R+B#0");
  ASSERT_NE(moved, base_state->rewriter.moved_attrs.end());
  chord::Node* holder = net->network()->FindById(moved->second.holder);
  ASSERT_NE(holder, nullptr);
  ASSERT_NE(holder, base);
  // Whatever R+B queries the base held now live at the holder.
  if (base_alqt_before > 0) {
    EXPECT_LT(net->storage(base_index).alqt_queries, base_alqt_before);
  }
  const NodeState* holder_state = net->state(IndexOf(net.get(), holder));
  EXPECT_EQ(holder_state->rewriter.held_generation.at("R+B#0"), 1);
}

TEST_P(MigrationTest, RepeatedMigrationRepointsBaseDirectly) {
  auto net = MakeNet();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
  chord::Node* base =
      net->network()->OracleSuccessor(AttrIndexId("R", "B", 0));
  const NodeState* base_state = net->state(IndexOf(net.get(), base));
  auto moved = base_state->rewriter.moved_attrs.find("R+B#0");
  ASSERT_NE(moved, base_state->rewriter.moved_attrs.end());
  EXPECT_EQ(moved->second.generation, 2);
  // Answers still flow after two moves.
  ASSERT_TRUE(net->InsertTuple(2, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net->InsertTuple(3, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_EQ(net->TakeNotifications(0).size(), 1u);
}

TEST_P(MigrationTest, MigrationSpreadsAttributeLevelLoadOffTheBase) {
  auto net = MakeNet();
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  // Warm: identify the hot base node.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        net->InsertTuple(1, "R", {Value::Int(i), Value::Int(100 + i)}).ok());
  }
  chord::Node* base =
      net->network()->OracleSuccessor(AttrIndexId("R", "B", 0));
  size_t base_index = IndexOf(net.get(), base);
  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
  uint64_t base_filter_before = net->metrics(base_index).filter_ops_attr;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        net->InsertTuple(1, "R", {Value::Int(i), Value::Int(200 + i)}).ok());
  }
  // The base only forwarded: its attribute-level filtering did not grow.
  EXPECT_EQ(net->metrics(base_index).filter_ops_attr, base_filter_before);
}

TEST_P(MigrationTest, WorksWithReplication) {
  auto net = MakeNet([](Options* o) { o->attribute_replication = 3; });
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B", /*replica=*/1).ok());
  ASSERT_TRUE(net->InsertTuple(2, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net->InsertTuple(3, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_EQ(net->TakeNotifications(0).size(), 1u);
  EXPECT_TRUE(
      net->MigrateAttribute(1, "R", "B", /*replica=*/7).IsInvalidArgument());
}

TEST_P(MigrationTest, UnsubscribeFollowsTheMove) {
  auto net = MakeNet([](Options* o) { o->track_evaluators = true; });
  auto key = net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
  ASSERT_TRUE(net->MigrateAttribute(1, "S", "E").ok());
  ASSERT_TRUE(net->Unsubscribe(0, key.value()).ok());
  ASSERT_TRUE(net->InsertTuple(2, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net->InsertTuple(3, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
  EXPECT_EQ(net->TotalStorage().alqt_queries, 0u);
}

// A dropped control hop must not strand a moved bucket: with reliable
// delivery on, the §4.7 bucket transfer and the moved-pointer update are
// retried like any other critical message, so every answer still arrives.
TEST_P(MigrationTest, DroppedControlHopsNeverStrandAMovedBucket) {
  auto net = MakeNet([](Options* o) {
    o->reliability.enabled = true;
    o->faults.seed = 3;
    o->faults.profile(sim::MsgClass::kControl).drop_prob = 0.3;
  });
  ASSERT_TRUE(
      net->SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());
  // Repeated moves of both possible rewriter keys: at this drop rate some
  // transfer or pointer update is lost unless it is retried.
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(net->MigrateAttribute(1, "R", "B").ok());
    ASSERT_TRUE(net->MigrateAttribute(1, "S", "E").ok());
  }
  std::set<std::pair<int64_t, int64_t>> expected;
  for (int64_t v = 0; v < 4; ++v) {
    for (int64_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          net->InsertTuple(2, "R", {Value::Int(10 * v + i), Value::Int(v)})
              .ok());
      ASSERT_TRUE(net->InsertTuple(
                         3, "S", {Value::Int(100 + 10 * v + i), Value::Int(v)})
                      .ok());
    }
    for (int64_t a = 0; a < 2; ++a) {
      for (int64_t d = 0; d < 2; ++d) {
        expected.insert({10 * v + a, 100 + 10 * v + d});
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> delivered;
  for (const Notification& n : net->TakeNotifications(0)) {
    delivered.insert({n.row[0].as_int(), n.row[1].as_int()});
  }
  EXPECT_EQ(delivered, expected);
  EXPECT_GT(net->stats().dropped(sim::MsgClass::kControl), 0u);
}

TEST_P(MigrationTest, ErrorsAreReported) {
  auto net = MakeNet();
  EXPECT_TRUE(net->MigrateAttribute(0, "Nope", "B").IsNotFound());
  EXPECT_TRUE(net->MigrateAttribute(0, "R", "Zz").IsNotFound());
  EXPECT_TRUE(net->MigrateAttribute(999, "R", "B").IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MigrationTest,
                         ::testing::Values(Algorithm::kSai, Algorithm::kDaiQ,
                                           Algorithm::kDaiT,
                                           Algorithm::kDaiV));

}  // namespace
}  // namespace contjoin::core
