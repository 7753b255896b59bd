#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/net_stats.h"

namespace contjoin::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, CascadesAtZeroLatencyDrainBeforeLaterEvents) {
  Simulator sim;
  std::vector<std::string> order;
  sim.Schedule(1, [&] {
    order.push_back("a");
    sim.Schedule(0, [&] {
      order.push_back("a.child");
      sim.Schedule(0, [&] { order.push_back("a.grandchild"); });
    });
  });
  sim.Schedule(2, [&] { order.push_back("b"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a.child", "a.grandchild",
                                             "b"}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(5, [&] { ++ran; });
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(11, [&] { ++ran; });
  EXPECT_EQ(sim.RunUntil(10), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(100);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulatorTest, AdvanceTo) {
  Simulator sim;
  sim.AdvanceTo(42);
  EXPECT_EQ(sim.Now(), 42u);
}

TEST(SimulatorTest, ScheduledDuringRunExecutes) {
  Simulator sim;
  int count = 0;
  sim.Schedule(1, [&] {
    ++count;
    sim.Schedule(5, [&] { ++count; });
  });
  sim.Run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 6u);
  EXPECT_EQ(sim.total_events_run(), 2u);
}

TEST(SimulatorTest, RunUntilRunsEventExactlyAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  EXPECT_EQ(sim.RunUntil(10), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilRunsMidEpochChildrenUpToBoundary) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(5, [&] {
    order.push_back(1);
    // Same-epoch child, a child landing exactly on the boundary, and one
    // past it: the first two must run, the last must stay queued.
    sim.Schedule(0, [&] { order.push_back(2); });
    sim.Schedule(5, [&] { order.push_back(3); });
    sim.Schedule(6, [&] { order.push_back(4); });
  });
  EXPECT_EQ(sim.RunUntil(10), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// --- Parallel execution ------------------------------------------------------

namespace cascade {

/// A deterministic multi-shard cascade: every event appends its value to a
/// per-shard log, then fans out to other shards. Per-shard logs plus the
/// final clock form a complete execution digest: by the determinism
/// contract they must be bit-identical at every worker count.
struct Result {
  std::vector<std::vector<uint64_t>> logs;
  uint64_t events = 0;
  uint64_t parallel_batches = 0;
  SimTime end = 0;
};

Result Run(int workers) {
  constexpr uint64_t kShards = 8;
  Simulator sim;
  sim.SetWorkers(workers);
  Result r;
  r.logs.resize(kShards);
  std::function<void(uint64_t, uint64_t, int)> step = [&](uint64_t shard,
                                                          uint64_t value,
                                                          int depth) {
    // Only the worker owning `shard` appends here; cross-shard effects go
    // through ScheduleSharded, as the engine's Transmit does.
    r.logs[shard].push_back(value);
    if (depth == 0) return;
    uint64_t next_shard = (shard + value) % kShards;
    uint64_t next_value = value * 31 + shard;
    sim.ScheduleSharded(1, next_shard, [&step, next_shard, next_value,
                                        depth] {
      step(next_shard, next_value, depth - 1);
    });
    if (value % 3 == 0) {
      // A same-timestamp child exercises the micro-epoch path.
      uint64_t sib = (shard + 1) % kShards;
      sim.ScheduleSharded(0, sib,
                          [&step, sib, value] { step(sib, value + 7, 0); });
    }
  };
  for (uint64_t s = 0; s < kShards; ++s) {
    sim.ScheduleSharded(1, s, [&step, s] { step(s, s + 1, 6); });
  }
  r.events = sim.Run();
  r.parallel_batches = sim.parallel_batches_run();
  r.end = sim.Now();
  return r;
}

}  // namespace cascade

TEST(SimulatorTest, ParallelCascadeIsBitIdenticalToSerial) {
  cascade::Result serial = cascade::Run(1);
  cascade::Result parallel = cascade::Run(4);
  EXPECT_EQ(serial.parallel_batches, 0u);
  EXPECT_GT(parallel.parallel_batches, 0u);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.end, parallel.end);
  ASSERT_EQ(serial.logs.size(), parallel.logs.size());
  for (size_t s = 0; s < serial.logs.size(); ++s) {
    EXPECT_EQ(serial.logs[s], parallel.logs[s]) << "shard " << s;
  }
}

TEST(SimulatorTest, UnshardedEventsForceSerialExecution) {
  Simulator sim;
  sim.SetWorkers(4);
  int ran = 0;
  // Plain Schedule carries no shard, so the batch must not be handed to
  // the pool even though it is wide enough.
  for (int i = 0; i < 16; ++i) sim.Schedule(1, [&] { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 16);
  EXPECT_EQ(sim.parallel_batches_run(), 0u);
}

TEST(SimulatorTest, SetWorkersClampsToAtLeastOne) {
  Simulator sim;
  sim.SetWorkers(0);
  EXPECT_EQ(sim.workers(), 1);
  sim.SetWorkers(3);
  EXPECT_EQ(sim.workers(), 3);
}

TEST(NetStatsTest, HopAccounting) {
  NetStats stats;
  stats.AddHop(MsgClass::kLookup);
  for (int i = 0; i < 5; ++i) stats.AddHop(MsgClass::kTupleIndex);
  EXPECT_EQ(stats.total_hops(), 6u);
  EXPECT_EQ(stats.hops(MsgClass::kLookup), 1u);
  EXPECT_EQ(stats.hops(MsgClass::kTupleIndex), 5u);
  EXPECT_EQ(stats.hops(MsgClass::kNotification), 0u);
}

// The totals are sums over classes, so they must equal the per-class sums
// after mixed hops, drops and bytes, and survive Since and copying.
TEST(NetStatsTest, TotalsAreSumsOverClasses) {
  auto expect_totals_match = [](const NetStats& s) {
    uint64_t hops = 0, drops = 0, bytes = 0;
    for (int i = 0; i < static_cast<int>(MsgClass::kClassCount); ++i) {
      const MsgClass c = static_cast<MsgClass>(i);
      hops += s.hops(c);
      drops += s.dropped(c);
      bytes += s.bytes(c);
    }
    EXPECT_EQ(s.total_hops(), hops);
    EXPECT_EQ(s.dropped(), drops);
    EXPECT_EQ(s.total_bytes(), bytes);
  };
  NetStats stats;
  for (int i = 0; i < static_cast<int>(MsgClass::kClassCount); ++i) {
    const MsgClass c = static_cast<MsgClass>(i);
    for (int k = 0; k <= i; ++k) stats.AddHop(c);
    if (i % 2 == 0) stats.AddDrop(c);
    stats.AddBytes(c, 100 + i);
  }
  stats.AddShed();
  stats.AddDeferred();
  stats.AddDeferred();
  expect_totals_match(stats);
  EXPECT_EQ(stats.total_hops(), 36u);
  EXPECT_EQ(stats.dropped(), 4u);
  EXPECT_EQ(stats.total_bytes(), 828u);

  const NetStats snapshot = stats;
  expect_totals_match(snapshot);
  EXPECT_EQ(snapshot.Report(), stats.Report());
  EXPECT_EQ(snapshot.total_bytes(), 828u);
  EXPECT_EQ(snapshot.deferred(), 2u);

  stats.AddHop(MsgClass::kControl);
  stats.AddDrop(MsgClass::kLookup);
  stats.AddBytes(MsgClass::kOneTime, 7);
  stats.AddShed();
  const NetStats delta = stats.Since(snapshot);
  expect_totals_match(delta);
  EXPECT_EQ(delta.total_hops(), 1u);
  EXPECT_EQ(delta.hops(MsgClass::kControl), 1u);
  EXPECT_EQ(delta.dropped(), 1u);
  EXPECT_EQ(delta.dropped(MsgClass::kLookup), 1u);
  EXPECT_EQ(delta.total_bytes(), 7u);
  EXPECT_EQ(delta.bytes(MsgClass::kOneTime), 7u);
  EXPECT_EQ(delta.shed(), 1u);
  EXPECT_EQ(delta.deferred(), 0u);

  NetStats assigned;
  assigned.AddHop(MsgClass::kLookup);
  assigned = delta;
  expect_totals_match(assigned);
  EXPECT_EQ(assigned.Report(), delta.Report());
}

TEST(NetStatsTest, SinceComputesDelta) {
  NetStats stats;
  for (int i = 0; i < 3; ++i) stats.AddHop(MsgClass::kRewrittenQuery);
  NetStats snapshot = stats;
  for (int i = 0; i < 4; ++i) stats.AddHop(MsgClass::kRewrittenQuery);
  stats.AddHop(MsgClass::kNotification);
  NetStats delta = stats.Since(snapshot);
  EXPECT_EQ(delta.hops(MsgClass::kRewrittenQuery), 4u);
  EXPECT_EQ(delta.hops(MsgClass::kNotification), 1u);
  EXPECT_EQ(delta.total_hops(), 5u);
}

TEST(NetStatsTest, ResetClears) {
  NetStats stats;
  stats.AddHop(MsgClass::kControl);
  stats.AddDrop(MsgClass::kControl);
  stats.AddBytes(MsgClass::kControl, 9);
  stats.AddShed();
  stats.AddDeferred();
  stats.Reset();
  EXPECT_EQ(stats.total_hops(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.dropped(MsgClass::kControl), 0u);
  EXPECT_EQ(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.shed(), 0u);
  EXPECT_EQ(stats.deferred(), 0u);
}

TEST(NetStatsTest, ReportListsNonZeroClasses) {
  NetStats stats;
  stats.AddHop(MsgClass::kNotification);
  std::string report = stats.Report();
  EXPECT_NE(report.find("notification"), std::string::npos);
  EXPECT_EQ(report.find("maintenance"), std::string::npos);
}

}  // namespace
}  // namespace contjoin::sim
