#include "core/tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "query/parser.h"

namespace contjoin::core {
namespace {

class TablesTest : public ::testing::Test {
 protected:
  TablesTest() {
    CJ_CHECK(catalog_
                 .Register(rel::RelationSchema(
                     "R", {{"A", rel::ValueType::kInt},
                           {"B", rel::ValueType::kInt}}))
                 .ok());
    CJ_CHECK(catalog_
                 .Register(rel::RelationSchema(
                     "S", {{"D", rel::ValueType::kInt},
                           {"E", rel::ValueType::kInt}}))
                 .ok());
  }

  query::QueryPtr MakeQuery(const std::string& key) {
    auto parsed = query::ParseQuery(
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", catalog_);
    CJ_CHECK(parsed.ok());
    parsed.value().set_key(key);
    return std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value());
  }

  /// A rewritten query of `q` whose bound select value is `bound`: entries
  /// with equal `bound` share Key(q'), hence their id.
  RewrittenEntry MakeEntry(query::QueryPtr q, int64_t bound,
                           rel::Timestamp pub, uint64_t seq) {
    RewrittenEntry e;
    e.query = std::move(q);
    e.remaining_side = 1;
    e.required_value = rel::Value::Int(7);
    e.row = {rel::Value::Int(bound), std::nullopt};
    e.rewritten_id = RewriteIdOf(e.query->key(), e.remaining_side, e.row,
                                 e.required_value);
    e.trigger_pub = pub;
    e.trigger_seq = seq;
    return e;
  }

  rel::Catalog catalog_;
};

TEST_F(TablesTest, AlqtInsertFindRemove) {
  AttrLevelQueryTable alqt;
  auto q1 = MakeQuery("n1#0");
  auto q2 = MakeQuery("n2#0");
  alqt.Insert("R+B", q1->signature(), AlqtEntry{q1, 0});
  alqt.Insert("R+B", q2->signature(), AlqtEntry{q2, 0});
  alqt.Insert("S+E", q1->signature(), AlqtEntry{q1, 1});
  EXPECT_EQ(alqt.size(), 3u);

  const auto* groups = alqt.Find("R+B");
  ASSERT_NE(groups, nullptr);
  ASSERT_EQ(groups->size(), 1u);  // Same signature: one group.
  EXPECT_EQ(groups->begin()->second.size(), 2u);
  EXPECT_EQ(alqt.Find("R+A"), nullptr);

  // Removal touches the named bucket only: q1 stays under R+B.
  EXPECT_EQ(alqt.RemoveQuery("S+E", "n1#0").size(), 1u);
  EXPECT_EQ(alqt.size(), 2u);
  EXPECT_EQ(alqt.Find("S+E"), nullptr);  // Emptied level-1 pruned.
  EXPECT_TRUE(alqt.RemoveQuery("R+A", "n1#0").empty());  // No such bucket.
  EXPECT_EQ(alqt.RemoveQuery("R+B", "n1#0").size(), 1u);
  EXPECT_EQ(alqt.size(), 1u);
  ASSERT_NE(alqt.Find("R+B"), nullptr);
  EXPECT_EQ(alqt.Find("R+B")->begin()->second.size(), 1u);
}

// A duplicate (query key, index side) entry is not stored twice, but the
// evaluators its copy reached are kept: a handoff or a moved bucket that
// lands on a node still holding the entry loses no evaluator to clear.
TEST_F(TablesTest, AlqtDuplicateMergesEvaluators) {
  AttrLevelQueryTable alqt;
  auto q1 = MakeQuery("n1#0");
  const chord::NodeId a = HashKey("a"), b = HashKey("b"), c = HashKey("c");
  AlqtEntry stored(q1, 0);
  stored.AddEvaluator(a);
  stored.AddEvaluator(b);
  alqt.Insert("R+B", q1->signature(), stored);
  AlqtEntry retried(q1, 0);
  retried.AddEvaluator(c);
  retried.AddEvaluator(a);
  alqt.Insert("R+B", q1->signature(), retried);

  AttrLevelQueryTable::GroupMap handed_off;
  AlqtEntry copy(q1, 0);
  copy.AddEvaluator(c);
  copy.AddEvaluator(HashKey("d"));
  handed_off[q1->signature()].push_back(copy);
  alqt.AbsorbLevel1("R+B", std::move(handed_off));

  EXPECT_EQ(alqt.size(), 1u);
  std::vector<chord::NodeId> expected = {a, b, c, HashKey("d")};
  std::sort(expected.begin(), expected.end());
  const AttrLevelQueryTable::Group removed = alqt.RemoveQuery("R+B", "n1#0");
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].evaluators, expected);
}

TEST_F(TablesTest, VlqtDedupByRewrittenKey) {
  ValueLevelQueryTable vlqt;
  auto q = MakeQuery("n1#0");
  const RewrittenEntry first = MakeEntry(q, 1, 10, 1);
  const RewrittenEntry second = MakeEntry(q, 2, 15, 3);
  EXPECT_TRUE(vlqt.Insert("S+E", "7", first));
  EXPECT_FALSE(vlqt.Insert("S+E", "7", MakeEntry(q, 1, 20, 2)));
  EXPECT_TRUE(vlqt.Insert("S+E", "7", second));
  EXPECT_EQ(vlqt.size(), 2u);

  const auto* bucket = vlqt.Find("S+E", "7");
  ASSERT_NE(bucket, nullptr);
  // The duplicate only advanced the trigger time (§4.3.3).
  EXPECT_EQ(bucket->at(first.rewritten_id).latest_trigger_pub, 20u);
  EXPECT_EQ(bucket->at(second.rewritten_id).latest_trigger_pub, 15u);
}

TEST_F(TablesTest, VlqtRefreshNeverRewindsTime) {
  ValueLevelQueryTable vlqt;
  auto q = MakeQuery("n1#0");
  const RewrittenEntry later = MakeEntry(q, 1, 20, 5);
  vlqt.Insert("S+E", "7", later);
  vlqt.Insert("S+E", "7", MakeEntry(q, 1, 10, 1));
  EXPECT_EQ(vlqt.Find("S+E", "7")->at(later.rewritten_id).latest_trigger_pub,
            20u);
}

TEST_F(TablesTest, VlqtRemoveQuery) {
  ValueLevelQueryTable vlqt;
  auto q1 = MakeQuery("n1#0");
  auto q2 = MakeQuery("n2#0");
  vlqt.Insert("S+E", "7", MakeEntry(q1, 1, 1, 1));
  vlqt.Insert("S+E", "8", MakeEntry(q1, 2, 2, 2));
  vlqt.Insert("S+E", "7", MakeEntry(q2, 3, 3, 3));
  EXPECT_EQ(vlqt.RemoveQuery("n1#0"), 2u);
  EXPECT_EQ(vlqt.size(), 1u);
  EXPECT_EQ(vlqt.Find("S+E", "8"), nullptr);
}

// A bucket iterates in ascending id order whatever the arrival order, and
// a handed-off bucket merges by id like Insert.
TEST_F(TablesTest, VlqtBucketIsOrderedByIdAndAbsorbsById) {
  ValueLevelQueryTable vlqt;
  auto q = MakeQuery("n1#0");
  for (int64_t bound = 0; bound < 8; ++bound) {
    vlqt.Insert("S+E", "7", MakeEntry(q, bound, 10, 1));
  }
  const auto* bucket = vlqt.Find("S+E", "7");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 8u);
  RewriteId previous;
  for (const auto& [id, stored] : *bucket) {
    EXPECT_LT(previous, id);
    previous = id;
  }

  ValueLevelQueryTable::Bucket moved = vlqt.TakeBucket("S+E", "7");
  EXPECT_EQ(vlqt.size(), 0u);
  vlqt.Insert("S+E", "7", MakeEntry(q, 3, 30, 2));
  vlqt.AbsorbBucket("S+E", "7", std::move(moved));
  EXPECT_EQ(vlqt.size(), 8u);
  const RewrittenEntry three = MakeEntry(q, 3, 0, 0);
  EXPECT_EQ(vlqt.Find("S+E", "7")->at(three.rewritten_id).latest_trigger_pub,
            30u);
}

TEST_F(TablesTest, VlttInsertFindExpire) {
  ValueLevelTupleTable vltt;
  auto t1 = std::make_shared<const rel::Tuple>(
      "S", std::vector<rel::Value>{rel::Value::Int(1), rel::Value::Int(7)},
      10, 1);
  auto t2 = std::make_shared<const rel::Tuple>(
      "S", std::vector<rel::Value>{rel::Value::Int(2), rel::Value::Int(7)},
      30, 2);
  vltt.Insert("S+E", "7", StoredTuple{t1, 1});
  vltt.Insert("S+E", "7", StoredTuple{t2, 1});
  EXPECT_EQ(vltt.size(), 2u);
  ASSERT_NE(vltt.Find("S+E", "7"), nullptr);
  EXPECT_EQ(vltt.Find("S+E", "7")->size(), 2u);
  EXPECT_EQ(vltt.Find("S+E", "9"), nullptr);

  EXPECT_EQ(vltt.ExpireBefore(20), 1u);
  EXPECT_EQ(vltt.size(), 1u);
  EXPECT_EQ(vltt.Find("S+E", "7")->front().tuple->pub_time(), 30u);
  EXPECT_EQ(vltt.ExpireBefore(100), 1u);
  EXPECT_EQ(vltt.Find("S+E", "7"), nullptr);
}

TEST_F(TablesTest, DaivStoreSidesAreSeparate) {
  DaivStore store;
  auto q1 = MakeQuery("q1");
  auto q2 = MakeQuery("q2");
  store.Insert("25", DaivKey{"q1", 0},
               DaivStored{{rel::Value::Int(1)}, 10, 1, q1});
  store.Insert("25", DaivKey{"q1", 1},
               DaivStored{{rel::Value::Int(2)}, 11, 2, q1});
  store.Insert("25", DaivKey{"q2", 0},
               DaivStored{{rel::Value::Int(3)}, 12, 3, q2});
  EXPECT_EQ(store.size(), 3u);
  ASSERT_NE(store.Find("25", DaivKey{"q1", 0}), nullptr);
  EXPECT_EQ(store.Find("25", DaivKey{"q1", 0})->size(), 1u);
  EXPECT_EQ(store.Find("25", DaivKey{"q1", 1})->size(), 1u);
  EXPECT_EQ(store.Find("26", DaivKey{"q1", 0}), nullptr);
  EXPECT_EQ(store.Find("25", DaivKey{"q3", 0}), nullptr);
}

TEST_F(TablesTest, DaivStoreExpireAndRemove) {
  DaivStore store;
  auto q1 = MakeQuery("q1");
  store.Insert("25", DaivKey{"q1", 0}, DaivStored{{}, 10, 1, q1});
  store.Insert("25", DaivKey{"q1", 0}, DaivStored{{}, 30, 2, q1});
  store.Insert("30", DaivKey{"q1", 1}, DaivStored{{}, 40, 3, q1});
  EXPECT_EQ(store.ExpireBefore(20), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.RemoveQuery("q1"), 2u);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace contjoin::core
