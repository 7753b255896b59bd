#include "core/jfrt.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/uint160.h"

namespace contjoin::core {
namespace {

chord::NodeId Evaluator(uint64_t v) {
  return chord::NodeId::FromUint64(v);
}

TEST(JfrtTest, MissThenHit) {
  Jfrt cache(4);
  chord::NodeId k = HashKey("v1");
  EXPECT_EQ(cache.Lookup(k), std::nullopt);
  cache.Insert(k, Evaluator(1));
  EXPECT_EQ(cache.Lookup(k), Evaluator(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(JfrtTest, UpdateOverwrites) {
  Jfrt cache(4);
  chord::NodeId k = HashKey("v1");
  cache.Insert(k, Evaluator(1));
  cache.Insert(k, Evaluator(2));
  EXPECT_EQ(cache.Lookup(k), Evaluator(2));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(JfrtTest, EvictsLeastRecentlyUsed) {
  Jfrt cache(2);
  chord::NodeId a = HashKey("a"), b = HashKey("b"), c = HashKey("c");
  cache.Insert(a, Evaluator(1));
  cache.Insert(b, Evaluator(2));
  EXPECT_NE(cache.Lookup(a), std::nullopt);  // a is now most recent.
  cache.Insert(c, Evaluator(3));          // Evicts b.
  EXPECT_EQ(cache.Lookup(b), std::nullopt);
  EXPECT_NE(cache.Lookup(a), std::nullopt);
  EXPECT_NE(cache.Lookup(c), std::nullopt);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(JfrtTest, EraseRemoves) {
  Jfrt cache(4);
  chord::NodeId k = HashKey("x");
  cache.Insert(k, Evaluator(1));
  cache.Erase(k);
  EXPECT_EQ(cache.Lookup(k), std::nullopt);
  cache.Erase(k);  // Idempotent.
}

TEST(JfrtTest, ZeroCapacityStoresNothing) {
  Jfrt cache(0);
  chord::NodeId k = HashKey("x");
  cache.Insert(k, Evaluator(1));
  EXPECT_EQ(cache.Lookup(k), std::nullopt);
}

TEST(JfrtTest, CapacityBound) {
  Jfrt cache(8);
  for (int i = 0; i < 100; ++i) {
    cache.Insert(HashKey("k" + std::to_string(i)), Evaluator(1));
  }
  EXPECT_EQ(cache.size(), 8u);
}

}  // namespace
}  // namespace contjoin::core
