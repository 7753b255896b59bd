// Sliding-window expiry bounds the evaluators' rewritten-query storage.
// SAI and DAI-T store rewritten queries at the value level (§4.3.3,
// §4.4.3); once a rewritten query's latest trigger has left the window,
// no later tuple can pair with it, so PruneExpired drops it like an
// expired tuple. A long windowed run with fresh join values must keep
// that storage flat after a warm-up, and deliver exactly what an
// unpruned run and the centralized oracle deliver.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "reference/reference_engine.h"

namespace contjoin::core {
namespace {

using rel::Value;

constexpr rel::Timestamp kWindow = 16;
constexpr int kWarmupRounds = 4;
constexpr int kRounds = 10 * kWarmupRounds;
constexpr int kValuesPerRound = 12;
constexpr char kSql[] = "SELECT R.A, S.D FROM R, S WHERE R.B = S.E";

struct WindowedRun {
  /// vlqt_rewritten after each round.
  std::vector<uint64_t> rewritten;
  /// Every delivered notification's content key, sorted.
  std::vector<std::string> delivered;
  std::set<std::string> oracle;
};

WindowedRun RunWindowed(Algorithm algorithm, bool prune) {
  Options opts;
  opts.num_nodes = 64;
  opts.algorithm = algorithm;
  opts.window = kWindow;
  opts.seed = 3;
  ContinuousQueryNetwork net(opts);
  CJ_CHECK(net.catalog()
               ->Register(rel::RelationSchema(
                   "R", {{"A", rel::ValueType::kInt},
                         {"B", rel::ValueType::kInt}}))
               .ok());
  CJ_CHECK(net.catalog()
               ->Register(rel::RelationSchema(
                   "S", {{"D", rel::ValueType::kInt},
                         {"E", rel::ValueType::kInt}}))
               .ok());
  ref::ReferenceEngine oracle(kWindow);
  auto key = net.SubmitQuery(0, kSql);
  CJ_CHECK(key.ok());
  auto parsed = query::ParseQuery(kSql, *net.catalog());
  CJ_CHECK(parsed.ok());
  parsed.value().set_key(key.value());
  parsed.value().set_insertion_time(net.now());
  oracle.AddQuery(std::make_shared<const query::ContinuousQuery>(
      std::move(parsed).value()));

  WindowedRun run;
  uint64_t seq = 0;
  std::vector<Notification> delivered;
  for (int round = 0; round < kRounds; ++round) {
    // Each join value is fresh to its round: an R tuple, then an S tuple.
    for (int i = 0; i < kValuesPerRound; ++i) {
      const int64_t value = int64_t{round} * kValuesPerRound + i;
      for (const char* relation : {"R", "S"}) {
        const int64_t payload = value * 2 + (relation[0] == 'S' ? 1 : 0);
        std::vector<Value> values = {Value::Int(payload), Value::Int(value)};
        std::vector<Value> copy = values;
        const size_t origin = static_cast<size_t>(payload) % net.num_nodes();
        CJ_CHECK(net.InsertTuple(origin, relation, std::move(values)).ok());
        oracle.InsertTuple(std::make_shared<const rel::Tuple>(
            relation, std::move(copy), net.now(), seq++));
      }
    }
    if (prune) net.PruneExpired();
    run.rewritten.push_back(net.TotalStorage().vlqt_rewritten);
    for (size_t n = 0; n < net.num_nodes(); ++n) {
      for (Notification& notification : net.TakeNotifications(n)) {
        delivered.push_back(std::move(notification));
      }
    }
  }
  for (const Notification& notification : delivered) {
    run.delivered.push_back(notification.ContentKey());
  }
  std::sort(run.delivered.begin(), run.delivered.end());
  run.oracle = oracle.ContentSet();
  return run;
}

class WindowExpiryTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(WindowExpiryTest, RewrittenQueriesStayFlatAndOutputIsExact) {
  const WindowedRun pruned = RunWindowed(GetParam(), /*prune=*/true);
  const WindowedRun unpruned = RunWindowed(GetParam(), /*prune=*/false);

  const uint64_t warm = pruned.rewritten[kWarmupRounds - 1];
  ASSERT_GT(warm, 0u) << "vacuous: no rewritten query stored";
  for (int round = kWarmupRounds; round < kRounds; ++round) {
    EXPECT_LE(pruned.rewritten[static_cast<size_t>(round)], warm)
        << "round " << round;
  }
  // Unpruned, the same run keeps every rewritten query it ever stored.
  EXPECT_GT(unpruned.rewritten.back(), 5 * warm);

  EXPECT_FALSE(pruned.delivered.empty()) << "vacuous: no joins fired";
  EXPECT_EQ(pruned.delivered, unpruned.delivered);
  EXPECT_EQ(std::set<std::string>(pruned.delivered.begin(),
                                  pruned.delivered.end()),
            pruned.oracle);
}

INSTANTIATE_TEST_SUITE_P(StoringAlgorithms, WindowExpiryTest,
                         ::testing::Values(Algorithm::kSai, Algorithm::kDaiT),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           return info.param == Algorithm::kSai ? "SAI"
                                                                : "DAIT";
                         });

}  // namespace
}  // namespace contjoin::core
