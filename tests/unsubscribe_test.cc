// Unsubscription (extension beyond the paper) sends only what clearing a
// cancelled query's state needs. DAI-Q evaluators store tuples and never
// queries (§4.4.2), so a DAI-Q cancellation stops at the rewriters whatever
// track_evaluators says; the adaptive manager stores joins at every T1
// evaluator, so there the evaluators are told again. Where they are told,
// the rewriters' record of them follows an ALQT bucket to its new home.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
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

/// Everything observable of one windowed DAI-Q run: every notification
/// (sorted), the final storage and the per-class traffic report.
struct RunTrace {
  std::vector<std::string> notifications;
  std::vector<uint64_t> storage;
  std::string traffic;
  uint64_t hops = 0;
};

/// Submits, inserts and unsubscribes the oldest live query, interleaved.
RunTrace RunWindowedChurn(bool track_evaluators) {
  auto net = MakeNet(Algorithm::kDaiQ, [&](Options* o) {
    o->window = 40;
    o->track_evaluators = track_evaluators;
  });
  const char* const kQueries[] = {
      "SELECT R.A, S.D FROM R, S WHERE R.B = S.E",
      "SELECT R.B, S.E FROM R, S WHERE R.A = S.D",
  };
  Rng rng(11);
  std::deque<std::pair<size_t, std::string>> live;
  for (int step = 0; step < 160; ++step) {
    const size_t node = rng.NextBelow(kNodes);
    if (step % 10 == 0) {
      auto key = net->SubmitQuery(node, kQueries[step / 10 % 2]);
      CJ_CHECK(key.ok());
      live.emplace_back(node, key.value());
    } else if (step % 10 == 7 && live.size() > 2) {
      CJ_CHECK(net->Unsubscribe(live.front().first, live.front().second).ok());
      live.pop_front();
    } else {
      std::vector<Value> values = {
          Value::Int(static_cast<int64_t>(rng.NextBelow(4))),
          Value::Int(static_cast<int64_t>(rng.NextBelow(4)))};
      CJ_CHECK(net->InsertTuple(node, rng.NextBelow(2) == 0 ? "R" : "S",
                                std::move(values))
                   .ok());
    }
  }
  RunTrace trace;
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    for (const Notification& n : net->TakeNotifications(i)) {
      trace.notifications.push_back(n.ToString() + " @" +
                                    std::to_string(n.earlier_pub) + "," +
                                    std::to_string(n.later_pub));
    }
  }
  std::sort(trace.notifications.begin(), trace.notifications.end());
  const NodeStorage s = net->TotalStorage();
  trace.storage = {s.alqt_queries, s.vlqt_rewritten, s.vltt_tuples,
                   s.daiv_entries, s.stored_notifications};
  trace.traffic = net->stats().Report();
  trace.hops = net->stats().total_hops();
  return trace;
}

TEST(DaiqUnsubscribeTest, TrackEvaluatorsIsInert) {
  const RunTrace off = RunWindowedChurn(false);
  const RunTrace on = RunWindowedChurn(true);
  ASSERT_FALSE(off.notifications.empty());
  EXPECT_EQ(on.notifications, off.notifications);
  EXPECT_EQ(on.storage, off.storage);
  EXPECT_EQ(on.traffic, off.traffic);
  EXPECT_EQ(on.hops, off.hops);
}

TEST(DaiqUnsubscribeTest, OneUnsubscribeReachesTheRewritersOnly) {
  auto net =
      MakeNet(Algorithm::kDaiQ, [](Options* o) { o->track_evaluators = true; });
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
  auto net = MakeNet(Algorithm::kDaiQ, [](Options* o) {
    o->track_evaluators = true;
    o->adapt.enabled = true;
  });
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

// Churn repair hands an ALQT bucket to a joined node together with the
// evaluators its query was rewritten to, so the new rewriter can still
// clear them.
TEST(UnsubscribeHandoffTest, JoinedRewriterClearsEvaluatorState) {
  auto net = MakeNet(Algorithm::kDaiT, [](Options* o) {
    o->track_evaluators = true;
    o->attribute_replication = 1;
  });
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

}  // namespace
}  // namespace contjoin::core
