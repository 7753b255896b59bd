// Ideal-ring construction, oracle, responsibility and routed send().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chord_test_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace contjoin::chord {
namespace {

// Reference routing: the plain scan of all 160 finger slots, highest
// first, with the subtraction-based ring interval test, then the
// successor-list fallback. Node's routing must pick the same nodes.
bool ReferenceInOpenOpen(const NodeId& x, const NodeId& a, const NodeId& b) {
  if (a == b) return x != a;
  const Uint160 dx = x - a;
  return dx != Uint160() && dx < b - a;
}

bool ReferenceInOpenClosed(const NodeId& x, const NodeId& a,
                           const NodeId& b) {
  if (a == b) return true;
  const Uint160 dx = x - a;
  return dx != Uint160() && dx <= b - a;
}

struct ReferenceCounts {
  int dead_fingers = 0;        // Alive-check rejections in finger scans.
  int successor_fallbacks = 0; // Answers taken from the successor list.
};

Node* ReferenceClosestPrecedingFinger(const Node& n, const NodeId& target,
                                      ReferenceCounts* counts) {
  for (int i = Uint160::kBits - 1; i >= 0; --i) {
    Node* f = n.finger(i);
    if (f == nullptr || f == &n) continue;
    if (!f->alive()) {
      ++counts->dead_fingers;
      continue;
    }
    if (ReferenceInOpenOpen(f->id(), n.id(), target)) return f;
  }
  Node* best = nullptr;
  Uint160 best_dist;
  for (Node* s : n.successor_list()) {
    if (s == nullptr || !s->alive() || s == &n) continue;
    if (!ReferenceInOpenOpen(s->id(), n.id(), target)) continue;
    const Uint160 dist = s->id() - n.id();
    if (best == nullptr || dist > best_dist) {
      best = s;
      best_dist = dist;
    }
  }
  if (best != nullptr) ++counts->successor_fallbacks;
  return best;
}

Node* ReferenceNextHop(const Node& n, const NodeId& target,
                       ReferenceCounts* counts) {
  Node* succ = n.FirstAliveSuccessor();
  if (succ == nullptr) return nullptr;
  if (ReferenceInOpenClosed(target, n.id(), succ->id())) return succ;
  Node* f = ReferenceClosestPrecedingFinger(n, target, counts);
  return f != nullptr ? f : succ;
}

// Iterative lookup over the reference scan; `hops` counts remote probes.
Node* ReferenceFindSuccessor(Node* start, const NodeId& target, int max_steps,
                             ReferenceCounts* counts, uint64_t* hops) {
  Node* cur = start;
  for (int steps = 0; steps <= max_steps; ++steps) {
    Node* succ = cur->FirstAliveSuccessor();
    if (succ == nullptr) return nullptr;
    if (ReferenceInOpenClosed(target, cur->id(), succ->id())) return succ;
    Node* next = ReferenceClosestPrecedingFinger(*cur, target, counts);
    if (next == nullptr || next == cur) next = succ;
    ++*hops;
    cur = next;
  }
  return nullptr;
}

class IdealRingTest : public ::testing::Test {
 protected:
  void Build(size_t n) {
    network_ = std::make_unique<Network>(&sim_);
    nodes_ = network_->BuildIdealRing(n);
    app_ = std::make_unique<CaptureApp>();
    for (Node* node : nodes_) node->set_app(app_.get());
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> network_;
  std::vector<Node*> nodes_;
  std::unique_ptr<CaptureApp> app_;
};

TEST_F(IdealRingTest, SingletonRing) {
  Build(1);
  Node* n = nodes_[0];
  EXPECT_EQ(n->successor(), n);
  EXPECT_EQ(n->predecessor(), n);
  EXPECT_TRUE(n->IsResponsibleFor(HashKey("anything")));
  EXPECT_TRUE(network_->RingIsFullyConsistent());
}

TEST_F(IdealRingTest, IdealRingIsFullyConsistent) {
  Build(64);
  EXPECT_TRUE(network_->RingIsConsistent());
  EXPECT_TRUE(network_->RingIsFullyConsistent());
  EXPECT_EQ(network_->alive_count(), 64u);
}

TEST_F(IdealRingTest, ExactlyOneNodeResponsiblePerKey) {
  Build(50);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    NodeId key = HashKey("key-" + std::to_string(rng.Next()));
    int responsible = 0;
    for (Node* node : nodes_) {
      if (node->IsResponsibleFor(key)) ++responsible;
    }
    EXPECT_EQ(responsible, 1) << "key " << key.ToShortString();
  }
}

TEST_F(IdealRingTest, OracleMatchesResponsibility) {
  Build(40);
  for (int i = 0; i < 100; ++i) {
    NodeId key = HashKey("probe-" + std::to_string(i));
    Node* oracle = network_->OracleSuccessor(key);
    ASSERT_NE(oracle, nullptr);
    EXPECT_TRUE(oracle->IsResponsibleFor(key));
  }
}

TEST_F(IdealRingTest, SendReachesResponsibleNode) {
  Build(128);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    NodeId target = HashKey("send-" + std::to_string(i));
    Node* origin = nodes_[rng.NextBelow(nodes_.size())];
    origin->Send(MakeMsg(target, i));
    sim_.Run();
    ASSERT_EQ(app_->deliveries.size(), static_cast<size_t>(i + 1));
    EXPECT_EQ(app_->deliveries.back().node,
              network_->OracleSuccessor(target));
    EXPECT_EQ(app_->deliveries.back().tag, i);
  }
}

TEST_F(IdealRingTest, SendToOwnRangeCostsNoHops) {
  Build(32);
  Node* origin = nodes_[0];
  uint64_t before = network_->stats().total_hops();
  origin->Send(MakeMsg(origin->id(), 0));
  sim_.Run();
  EXPECT_EQ(network_->stats().total_hops(), before);
  ASSERT_EQ(app_->deliveries.size(), 1u);
  EXPECT_EQ(app_->deliveries[0].node, origin);
}

TEST_F(IdealRingTest, SendCostIsLogarithmic) {
  Build(512);
  Rng rng(3);
  const int kSends = 300;
  uint64_t before = network_->stats().total_hops();
  for (int i = 0; i < kSends; ++i) {
    NodeId target = HashKey("cost-" + std::to_string(i));
    nodes_[rng.NextBelow(nodes_.size())]->Send(MakeMsg(target, i));
    sim_.Run();
  }
  double avg_hops =
      static_cast<double>(network_->stats().total_hops() - before) / kSends;
  // Chord expects ~0.5 * log2(N) = 4.5 hops for N=512; allow generous slack.
  EXPECT_GT(avg_hops, 1.0);
  EXPECT_LT(avg_hops, 2.0 * std::log2(512.0));
}

TEST_F(IdealRingTest, FindSuccessorAgreesWithOracle) {
  Build(256);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    NodeId target = HashKey("fs-" + std::to_string(i));
    Node* origin = nodes_[rng.NextBelow(nodes_.size())];
    EXPECT_EQ(origin->FindSuccessor(target, sim::MsgClass::kLookup),
              network_->OracleSuccessor(target));
  }
}

TEST_F(IdealRingTest, RewireIdealAfterFailuresRestoresConsistency) {
  Build(64);
  Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    nodes_[rng.NextBelow(nodes_.size())]->Fail();
  }
  network_->RewireIdeal();
  EXPECT_TRUE(network_->RingIsFullyConsistent());
  // Routing still works.
  Node* origin = nullptr;
  for (Node* n : nodes_) {
    if (n->alive()) {
      origin = n;
      break;
    }
  }
  ASSERT_NE(origin, nullptr);
  NodeId target = HashKey("after-churn");
  origin->Send(MakeMsg(target, 42));
  sim_.Run();
  ASSERT_FALSE(app_->deliveries.empty());
  EXPECT_EQ(app_->deliveries.back().node, network_->OracleSuccessor(target));
}

TEST_F(IdealRingTest, RoutingMatchesFullFingerScanAfterUnrepairedCrashes) {
  Build(1024);
  Rng rng(20);
  // Crash ~20% of the ring and repair nothing: finger tables and successor
  // lists keep pointing at the dead.
  for (Node* n : nodes_) {
    if (rng.NextBelow(5) == 0) n->Fail();
  }
  std::vector<Node*> alive = network_->AliveNodes();
  ASSERT_GT(alive.size(), 700u);
  const int max_steps = network_->options().max_route_hops;
  ReferenceCounts counts;
  for (int i = 0; i < 10000; ++i) {
    Node* origin = alive[rng.NextBelow(alive.size())];
    // Half the targets land a few nodes past the origin (the average gap
    // is 2^150), where dead near fingers push answers onto the successor
    // list; the rest anywhere on the ring.
    NodeId target =
        i % 2 == 0
            ? origin->id() + Uint160::PowerOfTwo(148 + static_cast<int>(
                                                     rng.NextBelow(5))) +
                  Uint160::FromUint64(rng.Next())
            : HashKey("route-" + std::to_string(i));
    Node* expected_next = ReferenceNextHop(*origin, target, &counts);
    ASSERT_EQ(origin->NextHopFor(target), expected_next)
        << "target " << target.ToShortString();
    uint64_t expected_hops = 0;
    Node* expected = ReferenceFindSuccessor(origin, target, max_steps,
                                            &counts, &expected_hops);
    const uint64_t hops_before = network_->stats().total_hops();
    ASSERT_EQ(origin->FindSuccessor(target, sim::MsgClass::kLookup), expected)
        << "target " << target.ToShortString();
    EXPECT_EQ(network_->stats().total_hops() - hops_before, expected_hops);
  }
  // Both repair-free paths were actually taken.
  EXPECT_GT(counts.dead_fingers, 0);
  EXPECT_GT(counts.successor_fallbacks, 0);
}

TEST_F(IdealRingTest, HopLatencyDelaysDelivery) {
  sim::Simulator sim;
  NetworkOptions opts;
  opts.hop_latency = 10;
  Network network(&sim, opts);
  auto nodes = network.BuildIdealRing(64);
  CaptureApp app;
  for (Node* n : nodes) n->set_app(&app);
  NodeId target = HashKey("latent");
  Node* origin = nodes[0];
  if (origin->IsResponsibleFor(target)) origin = nodes[1];
  origin->Send(MakeMsg(target, 1));
  EXPECT_TRUE(app.deliveries.empty());
  sim.Run();
  ASSERT_EQ(app.deliveries.size(), 1u);
  EXPECT_GE(sim.Now(), 10u);
}

}  // namespace
}  // namespace contjoin::chord
