// Unit tests for the fault-injection layer: deterministic FaultPlan
// decisions, per-class targeting, scripted churn schedules, per-class drop
// accounting in NetStats, and the TransmitFrame integration (drop /
// duplicate / extra-delay behaviour of a planned typed hop).

#include <string>
#include <vector>

#include "chord/network.h"
#include "chord/node.h"
#include "chord/types.h"
#include "chord_test_util.h"
#include "faults/churn.h"
#include "faults/fault_plan.h"
#include "gtest/gtest.h"
#include "sim/net_stats.h"
#include "sim/simulator.h"

namespace contjoin {
namespace {

using chord::Network;
using chord::NetworkOptions;
using chord::Node;
using faults::ChurnEvent;
using faults::ChurnScript;
using faults::FaultDecision;
using faults::FaultOptions;
using faults::FaultPlan;
using faults::FaultProfile;
using sim::MsgClass;

FaultOptions LossyOptions(double drop, uint64_t seed) {
  FaultOptions opts;
  opts.seed = seed;
  FaultProfile p;
  p.drop_prob = drop;
  p.duplicate_prob = drop / 2;
  p.delay_prob = drop / 2;
  p.max_extra_delay = 5;
  opts.SetProfiles(
      std::vector<MsgClass>{MsgClass::kQueryIndex, MsgClass::kTupleIndex,
                            MsgClass::kRewrittenQuery, MsgClass::kNotification},
      p);
  return opts;
}

TEST(FaultPlan, InactiveByDefault) {
  FaultOptions opts;
  EXPECT_FALSE(opts.active());
  EXPECT_FALSE(opts.profile(MsgClass::kNotification).active());

  // A plan over all-zero profiles never touches a transmission.
  FaultPlan plan(opts);
  for (int i = 0; i < 100; ++i) {
    FaultDecision d = plan.Decide(MsgClass::kNotification);
    EXPECT_FALSE(d.drop);
    EXPECT_EQ(d.duplicates, 0);
    EXPECT_EQ(d.extra_delay, 0u);
  }
  EXPECT_EQ(plan.injected_drops(), 0u);
  EXPECT_EQ(plan.injected_duplicates(), 0u);
  EXPECT_EQ(plan.injected_delays(), 0u);
}

TEST(FaultPlan, SameSeedSameDecisionSequence) {
  FaultPlan a(LossyOptions(0.3, 42));
  FaultPlan b(LossyOptions(0.3, 42));
  for (int i = 0; i < 500; ++i) {
    MsgClass c = (i % 2 == 0) ? MsgClass::kTupleIndex : MsgClass::kNotification;
    FaultDecision da = a.Decide(c);
    FaultDecision db = b.Decide(c);
    EXPECT_EQ(da.drop, db.drop) << "decision " << i;
    EXPECT_EQ(da.duplicates, db.duplicates) << "decision " << i;
    EXPECT_EQ(da.extra_delay, db.extra_delay) << "decision " << i;
  }
  EXPECT_EQ(a.injected_drops(), b.injected_drops());
  EXPECT_EQ(a.injected_duplicates(), b.injected_duplicates());
  EXPECT_EQ(a.injected_delays(), b.injected_delays());
  EXPECT_GT(a.injected_drops(), 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan a(LossyOptions(0.3, 1));
  FaultPlan b(LossyOptions(0.3, 2));
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    FaultDecision da = a.Decide(MsgClass::kNotification);
    FaultDecision db = b.Decide(MsgClass::kNotification);
    if (da.drop != db.drop || da.duplicates != db.duplicates ||
        da.extra_delay != db.extra_delay) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, TargetsOnlyConfiguredClasses) {
  FaultOptions opts;
  opts.profile(MsgClass::kNotification).drop_prob = 1.0;
  FaultPlan plan(opts);

  // Maintenance and lookups are untouched; every notification is lost.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(plan.Decide(MsgClass::kMaintenance).drop);
    EXPECT_FALSE(plan.Decide(MsgClass::kLookup).drop);
    EXPECT_TRUE(plan.Decide(MsgClass::kNotification).drop);
  }
  EXPECT_EQ(plan.injected_drops(), 50u);
}

TEST(FaultPlan, CertainDuplicateAndDelayBounds) {
  FaultOptions opts;
  FaultProfile& p = opts.profile(MsgClass::kControl);
  p.duplicate_prob = 1.0;
  p.delay_prob = 1.0;
  p.max_extra_delay = 7;
  FaultPlan plan(opts);
  for (int i = 0; i < 200; ++i) {
    FaultDecision d = plan.Decide(MsgClass::kControl);
    EXPECT_FALSE(d.drop);
    EXPECT_EQ(d.duplicates, 1);
    EXPECT_GE(d.extra_delay, 1u);
    EXPECT_LE(d.extra_delay, 7u);
  }
  EXPECT_EQ(plan.injected_duplicates(), 200u);
  EXPECT_EQ(plan.injected_delays(), 200u);
}

TEST(ChurnScript, IsSortedAcceptsNonDecreasingTimes) {
  ChurnScript script;
  EXPECT_TRUE(script.IsSorted());  // Empty is trivially sorted.
  script.events = {{10, ChurnEvent::Kind::kCrash, 0},
                   {10, ChurnEvent::Kind::kJoin, 0},
                   {25, ChurnEvent::Kind::kCrash, 3}};
  EXPECT_TRUE(script.IsSorted());
  script.events.push_back({5, ChurnEvent::Kind::kJoin, 0});
  EXPECT_FALSE(script.IsSorted());
}

TEST(ChurnScript, AlternatingBuilderIsSortedAndSpread) {
  ChurnScript script = ChurnScript::Alternating(/*start=*/100, /*period=*/50,
                                                /*crashes=*/3, /*joins=*/2);
  ASSERT_EQ(script.events.size(), 5u);
  EXPECT_TRUE(script.IsSorted());
  EXPECT_EQ(script.events.front().at, 100u);
  size_t crashes = 0;
  size_t joins = 0;
  for (const ChurnEvent& ev : script.events) {
    (ev.kind == ChurnEvent::Kind::kCrash ? crashes : joins)++;
  }
  EXPECT_EQ(crashes, 3u);
  EXPECT_EQ(joins, 2u);
  // Crash ordinals differ so the victims are spread over the ring.
  EXPECT_NE(script.events[0].ordinal, script.events[2].ordinal);
}

TEST(NetStats, PerClassDropAccounting) {
  sim::NetStats stats;
  stats.AddDrop(MsgClass::kNotification);
  stats.AddDrop(MsgClass::kNotification);
  stats.AddDrop(MsgClass::kTupleIndex);
  EXPECT_EQ(stats.dropped(), 3u);
  EXPECT_EQ(stats.dropped(MsgClass::kNotification), 2u);
  EXPECT_EQ(stats.dropped(MsgClass::kTupleIndex), 1u);
  EXPECT_EQ(stats.dropped(MsgClass::kControl), 0u);

  std::string report = stats.Report();
  EXPECT_NE(report.find("(dropped: 3)"), std::string::npos);
  EXPECT_NE(report.find("(dropped: 2)"), std::string::npos);

  sim::NetStats later = stats;
  later.AddDrop(MsgClass::kNotification);
  sim::NetStats delta = later.Since(stats);
  EXPECT_EQ(delta.dropped(), 1u);
  EXPECT_EQ(delta.dropped(MsgClass::kNotification), 1u);
}

TEST(AppMessage, ReliableFieldsDefaultToUnarmed) {
  chord::AppMessage msg;
  EXPECT_EQ(msg.reliable_id, 0u);
  EXPECT_EQ(msg.reliable_origin, chord::NodeId{});
}

// --- TransmitFrame integration -----------------------------------------------

struct PlannedRing {
  sim::Simulator simulator;
  Network network;
  std::vector<Node*> nodes;
  chord::CaptureApp app;

  explicit PlannedRing(size_t n, NetworkOptions options = {})
      : network(&simulator, options) {
    nodes = network.BuildIdealRing(n);
    for (Node* node : nodes) node->set_app(&app);
  }

  /// One typed direct hop nodes[0] -> nodes[1] of class `cls`.
  void SendDirect(MsgClass cls) {
    chord::HopFrame frame;
    frame.kind = chord::HopFrame::Kind::kDeliver;
    frame.cls = cls;
    frame.msgs.push_back(chord::MakeMsg(nodes[1]->id(), /*tag=*/1, cls));
    network.TransmitFrame(nodes[0], nodes[1], std::move(frame));
  }
};

/// Records the virtual time of every delivery.
class TimingApp : public chord::Application {
 public:
  explicit TimingApp(const sim::Simulator* simulator)
      : simulator_(simulator) {}
  void HandleMessage(Node&, const chord::AppMessage&) override {
    delivered_at.push_back(simulator_->Now());
  }
  std::vector<sim::SimTime> delivered_at;

 private:
  const sim::Simulator* simulator_;
};

TEST(TransmitWithPlan, CertainDropLosesActionAndCounts) {
  PlannedRing ring(4);
  FaultOptions opts;
  opts.profile(MsgClass::kNotification).drop_prob = 1.0;
  FaultPlan plan(opts);
  ring.network.set_fault_plan(&plan);

  ring.SendDirect(MsgClass::kNotification);
  ring.simulator.Run();
  EXPECT_TRUE(ring.app.deliveries.empty());
  EXPECT_EQ(ring.network.stats().dropped(MsgClass::kNotification), 1u);
  EXPECT_EQ(plan.injected_drops(), 1u);
  // The hop is still paid for: the message left the sender before it died.
  EXPECT_EQ(ring.network.stats().hops(MsgClass::kNotification), 1u);
}

TEST(TransmitWithPlan, CertainDuplicateDeliversTwice) {
  PlannedRing ring(4);
  FaultOptions opts;
  opts.profile(MsgClass::kControl).duplicate_prob = 1.0;
  FaultPlan plan(opts);
  ring.network.set_fault_plan(&plan);

  ring.SendDirect(MsgClass::kControl);
  ring.simulator.Run();
  ASSERT_EQ(ring.app.deliveries.size(), 2u);
  EXPECT_EQ(ring.app.deliveries[0].node, ring.nodes[1]);
  EXPECT_EQ(ring.app.deliveries[1].node, ring.nodes[1]);
  EXPECT_EQ(plan.injected_duplicates(), 1u);
  // The duplicate is real traffic: two hops, nothing dropped.
  EXPECT_EQ(ring.network.stats().hops(MsgClass::kControl), 2u);
  EXPECT_EQ(ring.network.stats().dropped(), 0u);
}

TEST(TransmitWithPlan, ExtraDelayPostponesDelivery) {
  PlannedRing ring(4, NetworkOptions{4, /*hop_latency=*/2, 512});
  TimingApp timing(&ring.simulator);
  ring.nodes[1]->set_app(&timing);

  FaultOptions opts;
  FaultProfile& p = opts.profile(MsgClass::kControl);
  p.delay_prob = 1.0;
  p.max_extra_delay = 3;
  FaultPlan plan(opts);
  ring.network.set_fault_plan(&plan);

  ring.SendDirect(MsgClass::kControl);
  ring.simulator.Run();
  ASSERT_EQ(timing.delivered_at.size(), 1u);
  EXPECT_GE(timing.delivered_at[0], 3u);  // hop_latency + at least 1 extra.
  EXPECT_LE(timing.delivered_at[0], 5u);  // hop_latency + at most max_extra.
  EXPECT_EQ(plan.injected_delays(), 1u);
}

TEST(TransmitWithPlan, NoPlanIsLossFree) {
  PlannedRing ring(4);
  for (int i = 0; i < 20; ++i) ring.SendDirect(MsgClass::kNotification);
  ring.simulator.Run();
  EXPECT_EQ(ring.app.deliveries.size(), 20u);
  EXPECT_EQ(ring.network.stats().hops(MsgClass::kNotification), 20u);
  EXPECT_EQ(ring.network.stats().dropped(), 0u);
}

}  // namespace
}  // namespace contjoin
