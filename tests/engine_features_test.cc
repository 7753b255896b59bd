// Integration tests for the optimizations and §4.6 delivery machinery:
// JFRT traffic reduction, attribute-level replication, off-line subscriber
// delivery with reconnection, IP updates, and SAI index-attribute
// strategies.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/state.h"
#include "reference/reference_engine.h"
#include "workload/workload.h"

namespace contjoin::core {
namespace {

using rel::Value;

void RegisterRS(ContinuousQueryNetwork* net) {
  CJ_CHECK(net->catalog()
               ->Register(rel::RelationSchema("R", {{"A", rel::ValueType::kInt},
                                                    {"B", rel::ValueType::kInt}}))
               .ok());
  CJ_CHECK(net->catalog()
               ->Register(rel::RelationSchema("S", {{"D", rel::ValueType::kInt},
                                                    {"E", rel::ValueType::kInt}}))
               .ok());
}

// --- JFRT -----------------------------------------------------------------------

uint64_t JoinTrafficWithJfrt(bool use_jfrt) {
  Options opts;
  opts.num_nodes = 128;
  opts.algorithm = Algorithm::kSai;
  opts.use_jfrt = use_jfrt;
  opts.seed = 7;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);
  CJ_CHECK(net.SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
               .ok());
  // Repeatedly insert R tuples with the same join value: the rewritten
  // query always goes to the same evaluator, the JFRT's best case.
  uint64_t before = net.stats().hops(sim::MsgClass::kRewrittenQuery);
  for (int i = 0; i < 50; ++i) {
    CJ_CHECK(net.InsertTuple(1, "R", {Value::Int(i), Value::Int(7)}).ok());
  }
  return net.stats().hops(sim::MsgClass::kRewrittenQuery) - before;
}

TEST(JfrtIntegrationTest, CutsReindexingTraffic) {
  uint64_t without = JoinTrafficWithJfrt(false);
  uint64_t with = JoinTrafficWithJfrt(true);
  // With the JFRT every reindex after the first costs exactly 1 hop.
  EXPECT_LT(with, without);
  EXPECT_LE(with, 49u + without / 10);
}

TEST(JfrtIntegrationTest, DeadCachedEvaluatorFallsBackToRouting) {
  Options opts;
  opts.num_nodes = 32;
  opts.algorithm = Algorithm::kSai;
  opts.use_jfrt = true;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);

  // Find the evaluator responsible for S+E+7 and pick distinct nodes for
  // the subscriber/inserters so departures only affect the evaluator role.
  chord::NodeId vindex = ValueIndexId("S", "E", "7");
  chord::Node* evaluator = net.network()->OracleSuccessor(vindex);
  size_t ev_index = 0;
  std::vector<size_t> others;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    if (net.node(i) == evaluator) {
      ev_index = i;
    } else if (others.size() < 3) {
      others.push_back(i);
    }
  }
  // The rewriter for R+B must survive too for this scenario to make sense.
  ASSERT_NE(net.network()->OracleSuccessor(AttrIndexId("R", "B", 0)),
            evaluator);

  ASSERT_TRUE(net.SubmitQuery(others[0],
                              "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                  .ok());
  // Warm the cache.
  ASSERT_TRUE(
      net.InsertTuple(others[1], "R", {Value::Int(1), Value::Int(7)}).ok());
  // The evaluator departs: the cached entry is now dead.
  net.DisconnectNode(ev_index);
  // Further inserts detect the dead entry and fall back to routing; the
  // answer for the post-departure pair still flows.
  ASSERT_TRUE(
      net.InsertTuple(others[1], "R", {Value::Int(2), Value::Int(7)}).ok());
  ASSERT_TRUE(
      net.InsertTuple(others[2], "S", {Value::Int(5), Value::Int(7)}).ok());
  auto notifications = net.TakeNotifications(others[0]);
  ASSERT_GE(notifications.size(), 1u);
  // The pair (R.A=2, S.D=5) survived; the pre-departure rewritten query
  // (R.A=1) was lost with the evaluator — best-effort, as the paper leaves
  // failure handling to the DHT.
  bool found = false;
  for (const auto& n : notifications) {
    if (n.row[0] == Value::Int(2) && n.row[1] == Value::Int(5)) found = true;
  }
  EXPECT_TRUE(found);
}

// A join fingers hit is an ordinary typed delivery: the dispatcher counts
// it like a routed join, so the per-type receive counters and the
// evaluators' join counters agree.
TEST(JfrtIntegrationTest, DispatcherCountsDirectJoinDeliveries) {
  for (Algorithm algorithm : {Algorithm::kDaiT, Algorithm::kDaiV}) {
    Options opts;
    opts.num_nodes = 64;
    opts.algorithm = algorithm;
    opts.use_jfrt = true;
    opts.seed = 3;
    ContinuousQueryNetwork net(opts);
    workload::WorkloadOptions wopts;
    wopts.seed = 3;
    wopts.domain = 20;
    workload::WorkloadGenerator gen(wopts);
    ASSERT_TRUE(gen.RegisterSchemas(net.catalog()).ok());
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(net.SubmitQuery(i % opts.num_nodes, gen.NextQuerySql()).ok());
    }
    for (size_t i = 0; i < 200; ++i) {
      auto [relation, values] = gen.NextTuple();
      ASSERT_TRUE(
          net.InsertTuple(i % opts.num_nodes, relation, std::move(values))
              .ok());
    }

    uint64_t jfrt_hits = 0;
    for (size_t i = 0; i < net.num_nodes(); ++i) {
      jfrt_hits += net.state(i)->rewriter.jfrt.hits();
    }
    EXPECT_GT(jfrt_hits, 0u) << AlgorithmName(algorithm);
    const NodeMetrics m = net.TotalMetrics();
    EXPECT_EQ(m.received_by_type[static_cast<size_t>(CqMsgType::kJoin)] +
                  m.received_by_type[static_cast<size_t>(CqMsgType::kDaivJoin)],
              m.joins_received)
        << AlgorithmName(algorithm);
  }
}

// --- Attribute-level replication (§4.7) -----------------------------------------

TEST(ReplicationTest, SpreadsAttributeLevelFilteringLoad) {
  auto run = [](int replication) {
    Options opts;
    opts.num_nodes = 64;
    opts.algorithm = Algorithm::kDaiT;
    opts.attribute_replication = replication;
    opts.seed = 5;
    ContinuousQueryNetwork net(opts);
    RegisterRS(&net);
    CJ_CHECK(net.SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                 .ok());
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
      CJ_CHECK(net.InsertTuple(1, "R",
                               {Value::Int(i),
                                Value::Int(static_cast<int64_t>(
                                    rng.NextBelow(50)))})
                   .ok());
    }
    return net.AttrFilteringLoadDistribution();
  };
  LoadDistribution base = run(1);
  LoadDistribution replicated = run(4);
  // Replication lowers the hottest rewriter's load...
  EXPECT_LT(replicated.max(), base.max());
  // ...by spreading it over more nodes.
  EXPECT_LT(replicated.TopShare(0.02), base.TopShare(0.02));
}

TEST(ReplicationTest, MultipliesQueryStorage) {
  Options opts;
  opts.num_nodes = 64;
  opts.algorithm = Algorithm::kDaiQ;
  opts.attribute_replication = 3;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);
  ASSERT_TRUE(net.SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                  .ok());
  // DAI double-indexes; with k=3 replicas the query is stored 2*3 times.
  EXPECT_EQ(net.TotalStorage().alqt_queries, 6u);
}

// --- Off-line subscribers (§4.6) --------------------------------------------------

TEST(OfflineDeliveryTest, NotificationsStoredAndHandedBackOnReconnect) {
  Options opts;
  opts.num_nodes = 32;
  opts.algorithm = Algorithm::kDaiT;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);
  auto key = net.SubmitQuery(3, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());

  net.DisconnectNode(3);
  ASSERT_TRUE(net.InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net.InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
  // The notification is parked at Successor(Id(n)).
  EXPECT_EQ(net.PendingNotifications(3), 0u);
  EXPECT_GE(net.TotalStorage().stored_notifications, 1u);

  net.ReconnectNode(3, /*new_ip=*/false);
  auto notifications = net.TakeNotifications(3);
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].query_key, key.value());
  EXPECT_EQ(net.TotalStorage().stored_notifications, 0u);
}

TEST(OfflineDeliveryTest, ReconnectWithNewIpStillReceives) {
  Options opts;
  opts.num_nodes = 32;
  opts.algorithm = Algorithm::kSai;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);
  auto key = net.SubmitQuery(5, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
  ASSERT_TRUE(key.ok());

  net.DisconnectNode(5);
  net.ReconnectNode(5, /*new_ip=*/true);  // Back, but the stored IP is stale.

  ASSERT_TRUE(net.InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(net.InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
  // Delivery falls back to routing by Key(n); the subscriber still gets it.
  auto first = net.TakeNotifications(5);
  ASSERT_EQ(first.size(), 1u);

  // The IP-update control message taught the evaluator the new address, so
  // the next delivery is direct again.
  uint64_t notif_hops_before = net.stats().hops(sim::MsgClass::kNotification);
  ASSERT_TRUE(net.InsertTuple(2, "S", {Value::Int(6), Value::Int(7)}).ok());
  uint64_t notif_hops = net.stats().hops(sim::MsgClass::kNotification) -
                        notif_hops_before;
  EXPECT_EQ(notif_hops, 1u);
  EXPECT_EQ(net.TakeNotifications(5).size(), 1u);
}

// --- SAI index-attribute strategies (§4.3.6) ----------------------------------------

TEST(SaiStrategyTest, LowerRateStrategyCutsTraffic) {
  auto run = [](SaiStrategy strategy) {
    Options opts;
    opts.num_nodes = 64;
    opts.algorithm = Algorithm::kSai;
    opts.sai_strategy = strategy;
    opts.seed = 11;
    ContinuousQueryNetwork net(opts);
    RegisterRS(&net);
    Rng rng(17);
    // Warm-up: R arrives 9x as often as S, so rewriters learn the rates.
    auto insert_some = [&](int n) {
      for (int i = 0; i < n; ++i) {
        bool is_r = rng.NextBelow(10) < 9;
        int64_t v = static_cast<int64_t>(rng.NextBelow(30));
        CJ_CHECK(net.InsertTuple(1, is_r ? "R" : "S",
                                 {Value::Int(i), Value::Int(v)})
                     .ok());
      }
    };
    insert_some(120);
    for (int i = 0; i < 20; ++i) {
      CJ_CHECK(net.SubmitQuery(i % net.num_nodes(),
                               "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                   .ok());
    }
    uint64_t before = net.stats().hops(sim::MsgClass::kRewrittenQuery);
    insert_some(300);
    return net.stats().hops(sim::MsgClass::kRewrittenQuery) - before;
  };
  // Indexing by the slower relation (S) means only ~10% of tuples trigger
  // rewrites; random indexing triggers ~55%.
  uint64_t random_traffic = run(SaiStrategy::kRandom);
  uint64_t rate_traffic = run(SaiStrategy::kLowerRate);
  EXPECT_LT(rate_traffic, random_traffic / 2);
}

TEST(SaiStrategyTest, StrategiesStayCorrect) {
  for (SaiStrategy strategy :
       {SaiStrategy::kLowerRate, SaiStrategy::kLowerSkew,
        SaiStrategy::kSmallerDomain}) {
    Options opts;
    opts.num_nodes = 24;
    opts.algorithm = Algorithm::kSai;
    opts.sai_strategy = strategy;
    ContinuousQueryNetwork net(opts);
    RegisterRS(&net);
    auto key =
        net.SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E");
    ASSERT_TRUE(key.ok());
    ASSERT_TRUE(net.InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
    ASSERT_TRUE(net.InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
    EXPECT_EQ(net.TakeNotifications(0).size(), 1u)
        << SaiStrategyName(strategy);
  }
}

// --- Windows --------------------------------------------------------------------------

TEST(WindowTest, PruneExpiredShrinksStorage) {
  Options opts;
  opts.num_nodes = 24;
  opts.algorithm = Algorithm::kDaiQ;
  opts.window = 10;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);
  ASSERT_TRUE(net.SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.InsertTuple(1, "R", {Value::Int(i), Value::Int(i)}).ok());
  }
  uint64_t before = net.TotalStorage().vltt_tuples;
  EXPECT_EQ(before, 40u);  // 2 value-level copies per tuple (2 attributes).
  size_t dropped = net.PruneExpired();
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(net.TotalStorage().vltt_tuples, before);
}

TEST(WindowTest, ExpiredPairsDoNotNotify) {
  Options opts;
  opts.num_nodes = 24;
  opts.algorithm = Algorithm::kDaiQ;
  opts.window = 3;
  ContinuousQueryNetwork net(opts);
  RegisterRS(&net);
  ASSERT_TRUE(net.SubmitQuery(0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                  .ok());
  ASSERT_TRUE(net.InsertTuple(1, "R", {Value::Int(1), Value::Int(7)}).ok());
  // Burn virtual time with unrelated inserts.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.InsertTuple(1, "R", {Value::Int(i), Value::Int(99)}).ok());
  }
  ASSERT_TRUE(net.InsertTuple(2, "S", {Value::Int(5), Value::Int(7)}).ok());
  EXPECT_TRUE(net.TakeNotifications(0).empty());
}

// --- DAI-V key-prefixed variant (§4.5) ---------------------------------------------------

TEST(DaivPrefixTest, PrefixVariantCreatesMuchMoreTraffic) {
  auto run = [](bool prefix) {
    Options opts;
    opts.num_nodes = 64;
    opts.algorithm = Algorithm::kDaiV;
    opts.daiv_prefix_query_key = prefix;
    opts.seed = 13;
    ContinuousQueryNetwork net(opts);
    RegisterRS(&net);
    // Many queries with the same join condition: the plain variant groups
    // them into one message per value; the prefixed one cannot group.
    for (int i = 0; i < 60; ++i) {
      CJ_CHECK(net.SubmitQuery(static_cast<size_t>(i) % net.num_nodes(),
                               "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                   .ok());
    }
    uint64_t before = net.stats().hops(sim::MsgClass::kRewrittenQuery);
    for (int i = 0; i < 20; ++i) {
      CJ_CHECK(net.InsertTuple(1, "R", {Value::Int(i), Value::Int(7)}).ok());
    }
    return net.stats().hops(sim::MsgClass::kRewrittenQuery) - before;
  };
  uint64_t grouped = run(false);
  uint64_t prefixed = run(true);
  // The paper reports a blow-up factor around 250x at 1e5 queries; at this
  // scale we just require a large multiple.
  EXPECT_GT(prefixed, grouped * 10);
}

}  // namespace
}  // namespace contjoin::core
