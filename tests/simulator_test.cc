#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
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

// --- Cancellation and the queue's two tiers --------------------------------

TEST(SimulatorTest, CancelledTimestampNeverReachesTheClock) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(5, [&] { ++ran; });
  // Alone at their timestamps, one near and one beyond the next thousand
  // ticks: discarded at the head of the queue.
  CancelToken near = MakeCancelToken();
  CancelToken far = MakeCancelToken();
  sim.ScheduleCancellable(10, 0, near, [&] { ++ran; });
  sim.ScheduleCancellable(5000, 0, far, [&] { ++ran; });
  near->store(true);
  far->store(true);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 5u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CohortMembershipIsFixedBeforeTheBatchRuns) {
  Simulator sim;
  std::vector<int> order;
  CancelToken sibling = MakeCancelToken();
  CancelToken later = MakeCancelToken();
  CancelToken dropped = MakeCancelToken();
  sim.Schedule(3, [&] {
    order.push_back(1);
    // A sibling in this batch still runs; an event of a later batch at the
    // same timestamp does not.
    sibling->store(true);
    sim.ScheduleCancellable(0, 0, later, [&] { order.push_back(9); });
    later->store(true);
  });
  sim.ScheduleCancellable(3, 0, sibling, [&] { order.push_back(2); });
  // Cancelled before the batch formed, behind a live head: dropped.
  sim.ScheduleCancellable(3, 0, dropped, [&] { order.push_back(8); });
  dropped->store(true);
  sim.Schedule(3, [&] { order.push_back(3); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 3u);
}

// An event scheduled far ahead waits outside the wheel; one scheduled
// closer to the same timestamp later lands in the wheel. The far one was
// scheduled first, so it runs first.
TEST(SimulatorTest, OverflowEventsPrecedeWheelEventsAtOneTimestamp) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(5000, [&] { order.push_back(1); });
  sim.ScheduleAt(5000, [&] { order.push_back(2); });
  sim.ScheduleAt(4990, [&] {
    sim.Schedule(10, [&] { order.push_back(3); });
    sim.ScheduleAt(5000, [&] {
      order.push_back(4);
      sim.Schedule(0, [&] { order.push_back(5); });
    });
  });
  EXPECT_EQ(sim.RunUntil(4999), 1u);
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.Run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.Now(), 5000u);
}

TEST(SimulatorTest, PendingCountKeepsCancelledEventsUntilDropped) {
  Simulator sim;
  CancelToken head = MakeCancelToken();
  CancelToken behind = MakeCancelToken();
  sim.ScheduleCancellable(20, 0, head, [] {});
  sim.Schedule(30, [] {});
  sim.ScheduleCancellable(40, 0, behind, [] {});
  head->store(true);
  behind->store(true);
  EXPECT_EQ(sim.pending_events(), 3u);
  // The cancelled head goes; the one behind a live event stays counted.
  EXPECT_EQ(sim.RunUntil(25), 0u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.Now(), 25u);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, AdvanceToSkipsOnlyCancelledEvents) {
  Simulator sim;
  CancelToken cancel = MakeCancelToken();
  sim.ScheduleCancellable(10, 0, cancel, [] {});
  cancel->store(true);
  sim.AdvanceTo(20);
  EXPECT_EQ(sim.Now(), 20u);
  // The skipped event stays counted until a run drops it, and does not
  // stand in for events scheduled after the jump.
  int ran = 0;
  sim.Schedule(80, [&] { ++ran; });
  sim.ScheduleAt(1034, [&] { ++ran; });
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.RunUntil(50), 0u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), 1034u);

  Simulator live;
  live.Schedule(10, [] {});
  EXPECT_DEATH(live.AdvanceTo(20), "pending before 20");
}

// --- Differential property test ----------------------------------------------
//
// Seeded random schedules run on the simulator and on a reference written
// here: a plain vector kept sorted by (when, seq), executed batch by batch
// under the same contract. Every event runs a script that is a pure
// function of its id: it logs (id, Now()), cancels the siblings it was
// told to, and schedules children at delay 0, 1, a few ticks, or far
// beyond the next thousand ticks, some cancellable and some cancelled
// at once. The two must agree on every event's order and time, on the
// counts Run and RunUntil return, and on pending_events() after each
// RunUntil boundary.

namespace differential {

constexpr uint64_t kShards = 6;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Spec {
  uint64_t id = 0;
  uint64_t shard = 0;
  int depth = 0;
  std::vector<CancelToken> cancel_on_run;
};

struct Plan {
  SimTime delay = 0;
  uint64_t shard = 0;
  bool cancellable = false;
  bool cancel_now = false;
  int cancel_sibling = -1;
};

struct Draw {
  uint64_t h;
  uint64_t Below(uint64_t bound) {
    h = Mix(h);
    return h % bound;
  }
};

SimTime DrawDelay(Draw& d) {
  static constexpr SimTime kFar[] = {300, 1024, 1500, 2000};
  const uint64_t r = d.Below(20);
  if (r < 5) return 0;
  if (r < 10) return 1;
  if (r < 15) return 2 + d.Below(4);
  if (r < 18) return kFar[d.Below(4)];
  return 256 + d.Below(4000);
}

uint64_t DrawShard(Draw& d, bool unsharded) {
  if (unsharded && d.Below(8) == 0) return kNoShard;
  return d.Below(kShards);
}

std::vector<Plan> PlanFor(uint64_t id, int depth, bool unsharded) {
  if (depth == 0) return {};
  Draw d{id};
  std::vector<Plan> plan(d.Below(4));
  for (size_t i = 0; i < plan.size(); ++i) {
    Plan& p = plan[i];
    p.delay = DrawDelay(d);
    p.shard = DrawShard(d, unsharded);
    p.cancellable = d.Below(3) == 0;
    p.cancel_now = p.cancellable && d.Below(3) == 0;
    const uint64_t j = d.Below(plan.size());
    if (j != i && d.Below(2) == 0) p.cancel_sibling = static_cast<int>(j);
  }
  return plan;
}

using Record = std::pair<uint64_t, SimTime>;  // (event id, Now()).

// Per-shard logs (kNoShard last). Each shard's log is written only by the
// thread running that shard's group, so parallel runs need no lock.
struct Log {
  std::vector<std::vector<Record>> by_shard =
      std::vector<std::vector<Record>>(kShards + 1);
  std::vector<Record> global;  // Serial runs only.
  bool record_global = true;
};

template <typename Host>
void Fire(Host& host, const Spec& spec) {
  Log& log = host.log();
  const Record record{spec.id, host.Now()};
  log.by_shard[spec.shard == kNoShard ? kShards : spec.shard].push_back(
      record);
  if (log.record_global) log.global.push_back(record);
  for (const CancelToken& t : spec.cancel_on_run) t->store(true);
  const std::vector<Plan> plan = PlanFor(spec.id, spec.depth, host.unsharded());
  std::vector<CancelToken> tokens(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].cancellable) tokens[i] = MakeCancelToken();
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    Spec child;
    child.id = Mix(spec.id * 8 + i + 1);
    child.shard = plan[i].shard;
    child.depth = spec.depth - 1;
    if (plan[i].cancel_sibling >= 0 && tokens[plan[i].cancel_sibling]) {
      child.cancel_on_run.push_back(tokens[plan[i].cancel_sibling]);
    }
    host.ScheduleAt(host.Now() + plan[i].delay, std::move(child), tokens[i]);
    if (plan[i].cancel_now) tokens[i]->store(true);
  }
}

class SimHost {
 public:
  SimHost(int workers, bool unsharded) : unsharded_(unsharded) {
    sim_.SetWorkers(workers);
    log_.record_global = workers == 1;
  }
  Log& log() { return log_; }
  bool unsharded() const { return unsharded_; }
  SimTime Now() const { return sim_.Now(); }
  size_t pending() const { return sim_.pending_events(); }
  uint64_t parallel_batches() const { return sim_.parallel_batches_run(); }
  size_t RunUntil(SimTime until) { return sim_.RunUntil(until); }
  size_t Run() { return sim_.Run(); }
  void ScheduleAt(SimTime when, Spec spec, CancelToken token) {
    const uint64_t shard = spec.shard;
    Action fire = [this, spec = std::move(spec)] { Fire(*this, spec); };
    if (token != nullptr) {
      sim_.ScheduleCancellable(when - sim_.Now(), shard, std::move(token),
                               std::move(fire));
    } else {
      sim_.ScheduleShardedAt(when, shard, std::move(fire));
    }
  }

 private:
  Simulator sim_;
  Log log_;
  bool unsharded_;
};

class Reference {
 public:
  explicit Reference(bool unsharded) : unsharded_(unsharded) {}
  Log& log() { return log_; }
  bool unsharded() const { return unsharded_; }
  SimTime Now() const { return now_; }
  size_t pending() const { return queue_.size(); }
  size_t RunUntil(SimTime until) {
    const size_t ran = Drain(until);
    if (now_ < until) now_ = until;
    return ran;
  }
  size_t Run() { return Drain(~SimTime{0}); }
  void ScheduleAt(SimTime when, Spec spec, CancelToken token) {
    Entry e{when, seq_++, std::move(spec), std::move(token)};
    auto at = std::upper_bound(
        queue_.begin(), queue_.end(), e, [](const Entry& a, const Entry& b) {
          return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        });
    queue_.insert(at, std::move(e));
  }

  // Coverage of the cases the property is meant to exercise.
  size_t cancelled_only_timestamps() const {
    size_t n = 0;
    for (SimTime t : discarded_at_head_) n += ran_at_.count(t) == 0;
    return n;
  }
  size_t dropped_in_cohort = 0;
  size_t ran_after_sibling_cancel = 0;

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    Spec spec;
    CancelToken cancel;
  };
  static bool Cancelled(const Entry& e) {
    return e.cancel != nullptr && e.cancel->load();
  }

  size_t Drain(SimTime until) {
    size_t ran = 0;
    for (;;) {
      while (!queue_.empty() && Cancelled(queue_.front())) {
        discarded_at_head_.insert(queue_.front().when);
        queue_.erase(queue_.begin());
      }
      if (queue_.empty() || queue_.front().when > until) return ran;
      const SimTime t = queue_.front().when;
      now_ = t;
      ran_at_.insert(t);
      std::vector<Entry> batch;
      auto end = queue_.begin();
      for (; end != queue_.end() && end->when == t; ++end) {
        if (Cancelled(*end)) {
          ++dropped_in_cohort;
        } else {
          batch.push_back(std::move(*end));
        }
      }
      queue_.erase(queue_.begin(), end);
      for (const Entry& e : batch) {
        if (Cancelled(e)) ++ran_after_sibling_cancel;
        Fire(*this, e.spec);
        ++ran;
      }
    }
  }

  std::vector<Entry> queue_;
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  Log log_;
  bool unsharded_;
  std::set<SimTime> discarded_at_head_;
  std::set<SimTime> ran_at_;
};

struct Checkpoint {
  size_t ran;
  SimTime now;
  size_t pending;
  bool operator==(const Checkpoint&) const = default;
};

// Roots scheduled from outside, RunUntil over uneven boundaries (some on
// event timestamps, some between them) with more roots between runs, then
// a drain.
template <typename Host>
std::vector<Checkpoint> Drive(Host& host, uint64_t seed) {
  Draw d{seed};
  auto add_root = [&](SimTime when) {
    Spec root;
    root.id = d.Below(~uint64_t{0});
    root.shard = DrawShard(d, host.unsharded());
    root.depth = 4;
    CancelToken token;
    if (d.Below(4) == 0) token = MakeCancelToken();
    const bool cancel_now = token != nullptr && d.Below(2) == 0;
    host.ScheduleAt(when, std::move(root), token);
    if (cancel_now) token->store(true);
  };
  for (int r = 0; r < 16; ++r) add_root(d.Below(40));
  std::vector<Checkpoint> out;
  static constexpr SimTime kSteps[] = {1, 2, 3, 7, 40, 300};
  for (SimTime until = 0; until < 4000; until += kSteps[d.Below(6)]) {
    const size_t ran = host.RunUntil(until);
    out.push_back({ran, host.Now(), host.pending()});
    if (d.Below(4) == 0) add_root(host.Now() + d.Below(600));
  }
  const size_t ran = host.Run();
  out.push_back({ran, host.Now(), host.pending()});
  return out;
}

}  // namespace differential

TEST(SimulatorPropertyTest, MatchesASortedListReference) {
  using namespace differential;
  size_t events = 0, cancelled_only = 0, dropped_in_cohort = 0,
         ran_after_cancel = 0;
  uint64_t parallel_batches = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    for (int workers : {1, 4}) {
      // Unsharded events force serial batches, so the four-worker runs
      // schedule sharded events only.
      const bool unsharded = workers == 1;
      Reference ref(unsharded);
      SimHost sim(workers, unsharded);
      const std::vector<Checkpoint> expected = Drive(ref, seed);
      const std::vector<Checkpoint> actual = Drive(sim, seed);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].ran, actual[i].ran)
            << "seed " << seed << " workers " << workers << " step " << i;
        EXPECT_EQ(expected[i].now, actual[i].now)
            << "seed " << seed << " workers " << workers << " step " << i;
        EXPECT_EQ(expected[i].pending, actual[i].pending)
            << "seed " << seed << " workers " << workers << " step " << i;
      }
      for (uint64_t s = 0; s <= kShards; ++s) {
        EXPECT_EQ(ref.log().by_shard[s], sim.log().by_shard[s])
            << "seed " << seed << " workers " << workers << " shard " << s;
      }
      if (workers == 1) {
        EXPECT_EQ(ref.log().global, sim.log().global) << "seed " << seed;
      }
      for (const Checkpoint& c : expected) events += c.ran;
      cancelled_only += ref.cancelled_only_timestamps();
      dropped_in_cohort += ref.dropped_in_cohort;
      ran_after_cancel += ref.ran_after_sibling_cancel;
      parallel_batches += sim.parallel_batches();
    }
  }
  // The seeds reach every case the contract names.
  EXPECT_GT(events, 10000u);
  EXPECT_GT(cancelled_only, 0u);
  EXPECT_GT(dropped_in_cohort, 0u);
  EXPECT_GT(ran_after_cancel, 0u);
  EXPECT_GT(parallel_batches, 0u);
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
