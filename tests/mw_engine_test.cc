// Multi-way continuous joins (recursive-SAI extension): hand-checked
// scenarios in every arrival order plus randomized equivalence sweeps
// against the centralized multi-way oracle.

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "core/engine.h"
#include "reference/mw_reference.h"

namespace contjoin::core {
namespace {

using rel::Value;

class MwEngineTest : public ::testing::Test {
 protected:
  std::unique_ptr<ContinuousQueryNetwork> MakeNet(
      size_t nodes = 32, rel::Timestamp window = 0) {
    Options opts;
    opts.num_nodes = nodes;
    opts.algorithm = Algorithm::kSai;
    opts.window = window;
    auto net = std::make_unique<ContinuousQueryNetwork>(opts);
    for (const char* name : {"R", "S", "T", "U"}) {
      CJ_CHECK(net->catalog()
                   ->Register(rel::RelationSchema(
                       name, {{"a", rel::ValueType::kInt},
                              {"b", rel::ValueType::kInt}}))
                   .ok());
    }
    return net;
  }
};

TEST_F(MwEngineTest, ThreeWayChainAllArrivalOrders) {
  // R.a = S.a AND S.b = T.b; the matching triple is
  // R(1,_=10), S(10 joins R.a=10? ...) — concretely:
  //   R(10, 99), S(10, 20), T(77, 20): R.a=S.a=10, S.b=T.b=20.
  const std::vector<std::pair<std::string, std::vector<Value>>> tuples = {
      {"R", {Value::Int(10), Value::Int(99)}},
      {"S", {Value::Int(10), Value::Int(20)}},
      {"T", {Value::Int(77), Value::Int(20)}},
  };
  int permutation[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (auto& order : permutation) {
    auto net = MakeNet();
    auto key = net->SubmitMultiwayQuery(
        0, "SELECT R.b, S.a, T.a FROM R, S, T "
           "WHERE R.a = S.a AND S.b = T.b");
    ASSERT_TRUE(key.ok()) << key.status().ToString();
    for (int i : order) {
      auto& [relation, values] = tuples[static_cast<size_t>(i)];
      ASSERT_TRUE(net->InsertTuple(1, relation, values).ok());
    }
    auto notifications = net->TakeNotifications(0);
    ASSERT_EQ(notifications.size(), 1u)
        << "order " << order[0] << order[1] << order[2];
    EXPECT_EQ(notifications[0].row[0], Value::Int(99));
    EXPECT_EQ(notifications[0].row[1], Value::Int(10));
    EXPECT_EQ(notifications[0].row[2], Value::Int(77));
  }
}

TEST_F(MwEngineTest, NonMatchingTriplesProduceNothing) {
  auto net = MakeNet();
  ASSERT_TRUE(net->SubmitMultiwayQuery(
                     0, "SELECT R.b, T.a FROM R, S, T "
                        "WHERE R.a = S.a AND S.b = T.b")
                  .ok());
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(10), Value::Int(1)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "S", {Value::Int(10), Value::Int(20)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "T", {Value::Int(5), Value::Int(21)}).ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());
}

TEST_F(MwEngineTest, FourWayStar) {
  auto net = MakeNet();
  auto key = net->SubmitMultiwayQuery(
      0, "SELECT R.b, S.b, T.b, U.b FROM R, S, T, U "
         "WHERE R.a = S.a AND R.a = T.a AND R.b = U.b");
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  ASSERT_TRUE(net->InsertTuple(1, "S", {Value::Int(5), Value::Int(1)}).ok());
  ASSERT_TRUE(net->InsertTuple(2, "U", {Value::Int(0), Value::Int(9)}).ok());
  ASSERT_TRUE(net->InsertTuple(3, "R", {Value::Int(5), Value::Int(9)}).ok());
  ASSERT_TRUE(net->InsertTuple(4, "T", {Value::Int(5), Value::Int(3)}).ok());
  auto notifications = net->TakeNotifications(0);
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].row[0], Value::Int(9));  // R.b
  EXPECT_EQ(notifications[0].row[1], Value::Int(1));  // S.b
  EXPECT_EQ(notifications[0].row[2], Value::Int(3));  // T.b
  EXPECT_EQ(notifications[0].row[3], Value::Int(9));  // U.b
}

TEST_F(MwEngineTest, MultiplicityCountsCombinations) {
  auto net = MakeNet();
  ASSERT_TRUE(net->SubmitMultiwayQuery(
                     0, "SELECT R.b, S.b, T.a FROM R, S, T "
                        "WHERE R.a = S.a AND S.b = T.b")
                  .ok());
  // Two distinct R's, one S, two distinct T's: 4 combinations.
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(100)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(101)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "S", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "T", {Value::Int(200), Value::Int(2)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "T", {Value::Int(201), Value::Int(2)}).ok());
  auto notifications = net->TakeNotifications(0);
  std::set<std::string> contents;
  for (const auto& n : notifications) contents.insert(n.ContentKey());
  EXPECT_EQ(contents.size(), 4u);
}

TEST_F(MwEngineTest, PredicatesFilterPerRelation) {
  auto net = MakeNet();
  ASSERT_TRUE(net->SubmitMultiwayQuery(
                     0, "SELECT R.b, T.a FROM R, S, T "
                        "WHERE R.a = S.a AND S.b = T.b AND T.a > 50")
                  .ok());
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(9)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "S", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "T", {Value::Int(10), Value::Int(2)}).ok());
  EXPECT_TRUE(net->TakeNotifications(0).empty());  // T.a = 10 fails.
  ASSERT_TRUE(net->InsertTuple(1, "T", {Value::Int(60), Value::Int(2)}).ok());
  EXPECT_EQ(net->TakeNotifications(0).size(), 1u);
}

TEST_F(MwEngineTest, TimeSemanticsRespectQueryInsertion) {
  auto net = MakeNet();
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(9)}).ok());
  ASSERT_TRUE(net->SubmitMultiwayQuery(
                     0, "SELECT R.b, T.a FROM R, S, T "
                        "WHERE R.a = S.a AND S.b = T.b")
                  .ok());
  ASSERT_TRUE(net->InsertTuple(1, "S", {Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(net->InsertTuple(1, "T", {Value::Int(3), Value::Int(2)}).ok());
  // The R tuple predates the query: no complete combination may use it.
  EXPECT_TRUE(net->TakeNotifications(0).empty());
}

TEST_F(MwEngineTest, RequiresSaiAndNoReplication) {
  Options opts;
  opts.num_nodes = 8;
  opts.algorithm = Algorithm::kDaiT;
  ContinuousQueryNetwork net(opts);
  CJ_CHECK(net.catalog()
               ->Register(rel::RelationSchema(
                   "R", {{"a", rel::ValueType::kInt}}))
               .ok());
  EXPECT_TRUE(net.SubmitMultiwayQuery(0, "SELECT R.a FROM R WHERE R.a = 1")
                  .status()
                  .IsUnsupported());

  Options opts2;
  opts2.num_nodes = 8;
  opts2.algorithm = Algorithm::kSai;
  opts2.attribute_replication = 2;
  ContinuousQueryNetwork net2(opts2);
  EXPECT_TRUE(net2.SubmitMultiwayQuery(0, "SELECT R.a FROM R WHERE R.a = 1")
                  .status()
                  .IsUnsupported());
}

TEST_F(MwEngineTest, StorageAccountsPartials) {
  auto net = MakeNet();
  ASSERT_TRUE(net->SubmitMultiwayQuery(
                     0, "SELECT R.b, T.a FROM R, S, T "
                        "WHERE R.a = S.a AND S.b = T.b")
                  .ok());
  EXPECT_EQ(net->TotalStorage().mw_queries, 1u);
  ASSERT_TRUE(net->InsertTuple(1, "R", {Value::Int(1), Value::Int(9)}).ok());
  // One {R}-partial parked at the S-side evaluator.
  EXPECT_EQ(net->TotalStorage().mw_partials, 1u);
  ASSERT_TRUE(net->InsertTuple(1, "S", {Value::Int(1), Value::Int(2)}).ok());
  // Plus the {R,S}-partial parked at the T-side evaluator.
  EXPECT_EQ(net->TotalStorage().mw_partials, 2u);
}

// --- Randomized equivalence against the multi-way oracle ----------------------

// gtest prints a parameter that has no PrintTo as its raw bytes, and those
// bytes become part of the test names CTest registers. The struct therefore
// has no padding: the slots the compiler would pad are explicit fields, so
// the names are the same on every build instead of echoing stale stack
// contents. `name_bytes` holds the bytes earlier builds printed there, which
// keeps the registered names unchanged.
struct MwScenario {
  int m = 0;  // Number of relations.
  uint32_t name_bytes = 0xEFD00000u;
  uint64_t seed = 0;
  rel::Timestamp window = 0;
  bool star = false;  // Star topology instead of a chain.
  uint8_t tail_bytes[7] = {};
  size_t num_queries = 0;
  size_t num_tuples = 0;

  std::string Name() const {
    std::string out = "m" + std::to_string(m) + "_s" + std::to_string(seed);
    if (star) out += "_star";
    if (window > 0) out += "_w" + std::to_string(window);
    return out;
  }
};

static_assert(std::has_unique_object_representations_v<MwScenario>,
              "padding bytes would make the test names build-dependent");

class MwEquivalenceTest : public ::testing::TestWithParam<MwScenario> {};

TEST_P(MwEquivalenceTest, MatchesMwReference) {
  const MwScenario& sc = GetParam();
  Options opts;
  opts.num_nodes = 24;
  opts.algorithm = Algorithm::kSai;
  opts.window = sc.window;
  opts.seed = sc.seed;
  ContinuousQueryNetwork net(opts);
  const int kAttrs = 3;
  std::vector<std::string> rels;
  for (int i = 0; i < sc.m; ++i) {
    rels.push_back("T" + std::to_string(i));
    std::vector<rel::Attribute> attrs;
    for (int a = 0; a < kAttrs; ++a) {
      attrs.push_back({"a" + std::to_string(a), rel::ValueType::kInt});
    }
    CJ_CHECK(net.catalog()
                 ->Register(rel::RelationSchema(rels.back(), attrs))
                 .ok());
  }

  Rng rng(sc.seed);
  ref::MwReferenceEngine oracle(sc.window);
  uint64_t seq = 0;
  const int64_t kDomain = 6;  // Small domain so chains actually complete.

  auto gen_query = [&]() {
    std::ostringstream sql;
    sql << "SELECT ";
    for (int i = 0; i < sc.m; ++i) {
      if (i > 0) sql << ", ";
      sql << rels[static_cast<size_t>(i)] << ".a" << rng.NextBelow(kAttrs);
    }
    sql << " FROM ";
    for (int i = 0; i < sc.m; ++i) {
      if (i > 0) sql << ", ";
      sql << rels[static_cast<size_t>(i)];
    }
    sql << " WHERE ";
    for (int i = 1; i < sc.m; ++i) {
      if (i > 1) sql << " AND ";
      int anchor = sc.star ? 0 : i - 1;
      sql << rels[static_cast<size_t>(anchor)] << ".a"
          << rng.NextBelow(kAttrs) << " = " << rels[static_cast<size_t>(i)]
          << ".a" << rng.NextBelow(kAttrs);
    }
    if (rng.NextBernoulli(0.3)) {
      sql << " AND " << rels[rng.NextBelow(rels.size())] << ".a"
          << rng.NextBelow(kAttrs) << " >= " << rng.NextInRange(0, 2);
    }
    return sql.str();
  };

  for (size_t i = 0; i < sc.num_queries; ++i) {
    std::string sql = gen_query();
    auto key = net.SubmitMultiwayQuery(rng.NextBelow(net.num_nodes()), sql);
    ASSERT_TRUE(key.ok()) << sql << ": " << key.status().ToString();
    auto parsed = query::ParseMwQuery(sql, *net.catalog());
    ASSERT_TRUE(parsed.ok());
    parsed.value().set_key(key.value());
    parsed.value().set_insertion_time(net.now());
    oracle.AddQuery(
        std::make_shared<const query::MwQuery>(std::move(parsed).value()));
  }

  for (size_t i = 0; i < sc.num_tuples; ++i) {
    std::string relation = rels[rng.NextBelow(rels.size())];
    std::vector<Value> values;
    for (int a = 0; a < kAttrs; ++a) {
      values.push_back(
          Value::Int(static_cast<int64_t>(rng.NextBelow(kDomain))));
    }
    auto copy = values;
    ASSERT_TRUE(net.InsertTuple(rng.NextBelow(net.num_nodes()), relation,
                                std::move(values))
                    .ok());
    oracle.InsertTuple(std::make_shared<const rel::Tuple>(
        relation, std::move(copy), net.now(), seq++));
  }

  std::set<std::string> actual;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (const Notification& n : net.TakeNotifications(i)) {
      actual.insert(n.ContentKey());
    }
  }
  std::set<std::string> expected = oracle.ContentSet();
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  EXPECT_TRUE(missing.empty())
      << missing.size() << " missing, first: " << missing[0];
  EXPECT_TRUE(extra.empty())
      << extra.size() << " spurious, first: " << extra[0];
  EXPECT_FALSE(expected.empty()) << "vacuous scenario";
}

std::vector<MwScenario> MwScenarios() {
  std::vector<MwScenario> out;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    out.push_back({.m = 2, .seed = seed, .num_queries = 12, .num_tuples = 120});
    out.push_back({.m = 3, .seed = seed, .num_queries = 10, .num_tuples = 100});
    out.push_back({.m = 4, .seed = seed, .num_queries = 8, .num_tuples = 90});
    out.push_back({.m = 4, .seed = seed, .star = true, .num_queries = 8,
                   .num_tuples = 90});
    out.push_back({.m = 5, .seed = seed, .num_queries = 6, .num_tuples = 80});
  }
  out.push_back({.m = 3, .seed = 7, .window = 30, .num_queries = 8,
                 .num_tuples = 120});
  out.push_back({.m = 4, .seed = 7, .window = 40, .star = true,
                 .num_queries = 6, .num_tuples = 100});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MwEquivalenceTest,
                         ::testing::ValuesIn(MwScenarios()),
                         [](const auto& info) { return info.param.Name(); });

}  // namespace
}  // namespace contjoin::core
