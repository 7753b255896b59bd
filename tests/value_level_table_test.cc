// The same cases over every instantiation of the value-level table
// template (VLQT, VLTT, DAI-V store, multi-way partials): the insert rule,
// Find, a take/absorb round trip, sorted bucket keys, expiry, query
// removal, and size() after each step.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/tables.h"
#include "query/mw_query.h"
#include "query/parser.h"

namespace contjoin::core {
namespace {

/// Queries every instantiation draws its entries from.
class Queries {
 public:
  Queries() {
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

  query::QueryPtr Query(const std::string& key) {
    auto parsed = query::ParseQuery(
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", catalog_);
    CJ_CHECK(parsed.ok());
    parsed.value().set_key(key);
    return std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value());
  }

  query::MwQueryPtr MwQuery(const std::string& key) {
    auto parsed = query::ParseMwQuery(
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", catalog_);
    CJ_CHECK(parsed.ok());
    parsed.value().set_key(key);
    return std::make_shared<const query::MwQuery>(std::move(parsed).value());
  }

 private:
  rel::Catalog catalog_;
};

// Each traits struct builds entry `n` of query `key` at time `pub`. Entries
// with equal `n` are the same entry to the insert rule; `IdOf` recovers n.

/// Trigger tuple `n` at time `pub`: R.A = n binds the select row, and the
/// sequence number is n.
rel::TuplePtr Trigger(int n, rel::Timestamp pub) {
  return std::make_shared<const rel::Tuple>(
      "R", std::vector<rel::Value>{rel::Value::Int(n), rel::Value::Int(7)},
      pub, static_cast<uint64_t>(n));
}

struct VlqtTraits {
  using Policy = VlqtPolicy;
  using Table = ValueLevelQueryTable;
  static constexpr bool kRefreshes = true;
  static std::string Key(const std::string& s) { return s; }
  static RewrittenEntry Make(Queries& queries, const std::string& key, int n,
                             rel::Timestamp pub) {
    RewrittenEntry e;
    e.query = queries.Query(key);
    e.remaining_side = 1;
    e.required_value = rel::Value::Int(7);
    e.trigger = Trigger(n, pub);
    e.rewritten_id =
        RewriteIdOf(*e.query, e.remaining_side, *e.trigger, e.required_value);
    return e;
  }
  static uint64_t IdOf(const VlqtPolicy::Entry& e) {
    return e.second.trigger->seq();
  }
};

struct VlttTraits {
  using Policy = VlttPolicy;
  using Table = ValueLevelTupleTable;
  static constexpr bool kRefreshes = false;
  static std::string Key(const std::string& s) { return s; }
  static StoredTuple Make(Queries&, const std::string&, int n,
                          rel::Timestamp pub) {
    return StoredTuple{std::make_shared<const rel::Tuple>(
                           "S",
                           std::vector<rel::Value>{rel::Value::Int(n),
                                                   rel::Value::Int(7)},
                           pub, static_cast<uint64_t>(n)),
                       1};
  }
  static uint64_t IdOf(const StoredTuple& e) { return e.tuple->seq(); }
};

// Level 2 of the DAI-V store names a (query, side). Only the RemoveQuery
// case relies on that; elsewhere it is an opaque coordinate.
struct DaivTraits {
  using Policy = DaivPolicy;
  using Table = DaivStore;
  static constexpr bool kRefreshes = false;
  static DaivKey Key(const std::string& s) { return DaivKey{s, 1}; }
  static DaivStored Make(Queries& queries, const std::string& key, int n,
                         rel::Timestamp pub) {
    return DaivStored{Trigger(n, pub), queries.Query(key)};
  }
  static uint64_t IdOf(const DaivStored& e) { return e.tuple->seq(); }
};

struct MwTraits {
  using Policy = MwPartialPolicy;
  using Table = MwPartialTable;
  static constexpr bool kRefreshes = true;
  static std::string Key(const std::string& s) { return s; }
  static MwPartial Make(Queries& queries, const std::string& key, int n,
                        rel::Timestamp pub) {
    MwPartial partial;
    partial.query = queries.MwQuery(key);
    partial.min_pub = pub;
    partial.max_pub = pub;
    partial.last_seq = static_cast<uint64_t>(n);
    partial.partial_key = "p" + std::to_string(n);
    return partial;
  }
  static uint64_t IdOf(const MwPartialPolicy::Entry& e) {
    return e.second.last_seq;
  }
};

template <typename Traits>
class ValueLevelTableTest : public ::testing::Test {
 protected:
  using Table = typename Traits::Table;

  auto Make(int n, rel::Timestamp pub, const std::string& key = "q1") {
    return Traits::Make(queries_, key, n, pub);
  }
  static auto K(const std::string& s) { return Traits::Key(s); }

  /// Time of entry `n` in the bucket at (level1, key2); 0 if absent.
  rel::Timestamp TimeOf(const Table& table, const std::string& level1,
                        const std::string& key2, int n) {
    const auto* bucket = table.Find(level1, K(key2));
    if (bucket == nullptr) return 0;
    for (const auto& entry : *bucket) {
      if (Traits::IdOf(entry) == static_cast<uint64_t>(n)) {
        return Traits::Policy::TimeOf(entry);
      }
    }
    return 0;
  }

  Queries queries_;
};

using Instantiations =
    ::testing::Types<VlqtTraits, VlttTraits, DaivTraits, MwTraits>;

struct InstantiationNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, VlqtTraits>) return "Vlqt";
    if constexpr (std::is_same_v<T, VlttTraits>) return "Vltt";
    if constexpr (std::is_same_v<T, DaivTraits>) return "Daiv";
    return "MwPartials";
  }
};
TYPED_TEST_SUITE(ValueLevelTableTest, Instantiations, InstantiationNames);

TYPED_TEST(ValueLevelTableTest, InsertDedupsOrRefreshes) {
  typename TypeParam::Table table;
  EXPECT_TRUE(table.Insert("L", this->K("7"), this->Make(1, 10)));
  EXPECT_EQ(table.size(), 1u);
  // The same entry again, later: stored once.
  EXPECT_FALSE(table.Insert("L", this->K("7"), this->Make(1, 20)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Insert("L", this->K("7"), this->Make(2, 15)));
  EXPECT_EQ(table.size(), 2u);
  // Refreshing tables advance the stored time; deduplicating ones keep
  // the first copy.
  const rel::Timestamp kept = TypeParam::kRefreshes ? 20 : 10;
  EXPECT_EQ(this->TimeOf(table, "L", "7", 1), kept);
  // An older copy never rewinds it.
  EXPECT_FALSE(table.Insert("L", this->K("7"), this->Make(1, 5)));
  EXPECT_EQ(this->TimeOf(table, "L", "7", 1), kept);
  EXPECT_EQ(this->TimeOf(table, "L", "7", 2), 15u);
  EXPECT_EQ(table.size(), 2u);
}

TYPED_TEST(ValueLevelTableTest, FindNamesOneBucket) {
  typename TypeParam::Table table;
  EXPECT_EQ(table.Find("L", this->K("7")), nullptr);
  table.Insert("L", this->K("7"), this->Make(1, 10));
  table.Insert("L", this->K("8"), this->Make(2, 10));
  table.Insert("M", this->K("7"), this->Make(3, 10));
  EXPECT_EQ(table.size(), 3u);
  const auto* bucket = table.Find("L", this->K("7"));
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 1u);
  EXPECT_EQ(TypeParam::IdOf(*bucket->begin()), 1u);
  EXPECT_EQ(table.Find("L", this->K("9")), nullptr);
  EXPECT_EQ(table.Find("N", this->K("7")), nullptr);
}

TYPED_TEST(ValueLevelTableTest, TakeAbsorbRoundTrip) {
  typename TypeParam::Table table;
  for (int n = 1; n <= 3; ++n) {
    table.Insert("L", this->K("7"), this->Make(n, 10));
  }
  table.Insert("L", this->K("8"), this->Make(4, 10));
  EXPECT_EQ(table.size(), 4u);

  auto moved = table.TakeBucket("L", this->K("7"));
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find("L", this->K("7")), nullptr);
  EXPECT_TRUE(table.TakeBucket("L", this->K("7")).empty());

  // An entry stored meanwhile merges with its handed-off copy by the
  // insert rule: the later time survives either way.
  table.Insert("L", this->K("7"), this->Make(2, 30));
  EXPECT_EQ(table.size(), 2u);
  table.AbsorbBucket("L", this->K("7"), std::move(moved));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.Find("L", this->K("7"))->size(), 3u);
  EXPECT_EQ(this->TimeOf(table, "L", "7", 2), 30u);

  // Absorbing nothing creates no bucket.
  table.AbsorbBucket("M", this->K("7"), {});
  EXPECT_EQ(table.Find("M", this->K("7")), nullptr);
  EXPECT_EQ(table.BucketKeys().size(), 2u);
  EXPECT_EQ(table.size(), 4u);
}

TYPED_TEST(ValueLevelTableTest, BucketKeysAreSorted) {
  typename TypeParam::Table table;
  table.Insert("M", this->K("1"), this->Make(1, 10));
  table.Insert("L", this->K("9"), this->Make(2, 10));
  table.Insert("L", this->K("10"), this->Make(3, 10));
  table.Insert("M", this->K("0"), this->Make(4, 10));
  table.Insert("L", this->K("9"), this->Make(5, 10));
  EXPECT_EQ(table.size(), 5u);
  using Coord = typename TypeParam::Table::Coord;
  const std::vector<Coord> expected = {{"L", this->K("10")},
                                       {"L", this->K("9")},
                                       {"M", this->K("0")},
                                       {"M", this->K("1")}};
  EXPECT_EQ(table.BucketKeys(), expected);
}

TYPED_TEST(ValueLevelTableTest, ExpireBeforeDropsOlderEntries) {
  typename TypeParam::Table table;
  table.Insert("L", this->K("7"), this->Make(1, 10));
  table.Insert("L", this->K("7"), this->Make(2, 30));
  table.Insert("L", this->K("8"), this->Make(3, 12));
  EXPECT_EQ(table.size(), 3u);

  EXPECT_EQ(table.ExpireBefore(20), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find("L", this->K("8")), nullptr);  // Emptied, erased.
  EXPECT_EQ(this->TimeOf(table, "L", "7", 2), 30u);
  EXPECT_EQ(table.ExpireBefore(20), 0u);  // Idempotent at one cutoff.
  EXPECT_EQ(table.ExpireBefore(31), 1u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.BucketKeys().empty());
}

TYPED_TEST(ValueLevelTableTest, RemoveQueryDropsItsEntries) {
  typename TypeParam::Table table;
  if constexpr (requires { table.RemoveQuery(""); }) {
    // Level 2 is named after each entry's query, as the DAI-V store's is.
    table.Insert("7", this->K("q1"), this->Make(1, 10, "q1"));
    table.Insert("8", this->K("q1"), this->Make(2, 10, "q1"));
    table.Insert("7", this->K("q2"), this->Make(3, 10, "q2"));
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.RemoveQuery("q1"), 2u);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.Find("8", this->K("q1")), nullptr);
    ASSERT_NE(table.Find("7", this->K("q2")), nullptr);
    EXPECT_EQ(table.RemoveQuery("q1"), 0u);
    EXPECT_EQ(table.RemoveQuery("q2"), 1u);
    EXPECT_EQ(table.size(), 0u);
  } else {
    // Tuples are stored for no query.
    static_assert(std::is_same_v<typename TypeParam::Table,
                                 ValueLevelTupleTable>);
  }
}

}  // namespace
}  // namespace contjoin::core
