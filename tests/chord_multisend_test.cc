// The extended API of paper §2.3: recursive multisend vs the iterative
// baseline — correctness (exact recipient sets) and relative cost.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chord/transport.h"
#include "chord_test_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace contjoin::chord {
namespace {

/// Captures shipped hops instead of delivering them, so a test can inspect
/// the exact frame a node forwards.
class RecordingTransport : public Transport {
 public:
  struct Sent {
    Node* from;
    NodeId to;
    HopFrame frame;
  };
  void SendHop(Node* from, const NodeId& to, HopFrame frame) override {
    sent.push_back(Sent{from, to, std::move(frame)});
  }
  std::vector<Sent> sent;
};

std::vector<int> TagsOf(const std::vector<AppMessage>& msgs) {
  std::vector<int> tags;
  for (const AppMessage& msg : msgs) {
    tags.push_back(static_cast<const TaggedPayload*>(msg.payload.get())->tag);
  }
  return tags;
}

class MultisendTest : public ::testing::Test {
 protected:
  void Build(size_t n) {
    network_ = std::make_unique<Network>(&sim_);
    nodes_ = network_->BuildIdealRing(n);
    app_ = std::make_unique<CaptureApp>();
    for (Node* node : nodes_) node->set_app(app_.get());
  }

  std::vector<AppMessage> MakeBatch(int k, int seed) {
    std::vector<AppMessage> batch;
    Rng rng(static_cast<uint64_t>(seed));
    for (int i = 0; i < k; ++i) {
      batch.push_back(
          MakeMsg(HashKey("t-" + std::to_string(seed) + "-" +
                          std::to_string(i)),
                  i));
    }
    return batch;
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> network_;
  std::vector<Node*> nodes_;
  std::unique_ptr<CaptureApp> app_;
};

TEST_F(MultisendTest, RecursiveDeliversToExactRecipients) {
  Build(128);
  auto batch = MakeBatch(20, 1);
  std::map<std::string, Node*> expected;
  for (const auto& msg : batch) {
    expected[msg.target.ToHex()] = network_->OracleSuccessor(msg.target);
  }
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  ASSERT_EQ(app_->deliveries.size(), batch.size());
  for (const auto& d : app_->deliveries) {
    EXPECT_EQ(d.node, expected[d.target.ToHex()]);
  }
}

TEST_F(MultisendTest, RecursiveDeliversEveryTagExactlyOnce) {
  Build(64);
  auto batch = MakeBatch(40, 2);
  nodes_[5]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  std::multiset<int> tags;
  for (const auto& d : app_->deliveries) tags.insert(d.tag);
  EXPECT_EQ(tags.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(tags.count(i), 1u) << "tag " << i;
}

TEST_F(MultisendTest, IterativeDeliversToExactRecipients) {
  Build(128);
  auto batch = MakeBatch(20, 3);
  std::map<std::string, Node*> expected;
  for (const auto& msg : batch) {
    expected[msg.target.ToHex()] = network_->OracleSuccessor(msg.target);
  }
  nodes_[0]->MultisendIterative(batch);
  sim_.Run();
  ASSERT_EQ(app_->deliveries.size(), batch.size());
  for (const auto& d : app_->deliveries) {
    EXPECT_EQ(d.node, expected[d.target.ToHex()]);
  }
}

TEST_F(MultisendTest, RecursiveCheaperThanIterativeInPractice) {
  // The paper's claim for Figure "recursive vs iterative": same O(k log N)
  // bound, but the recursive design shares the clockwise path and wins.
  Build(512);
  const int kTrials = 20;
  uint64_t recursive_hops = 0, iterative_hops = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto batch = MakeBatch(32, 100 + t);
    auto before = network_->stats().total_hops();
    nodes_[t % nodes_.size()]->Multisend(batch, sim::MsgClass::kTupleIndex);
    sim_.Run();
    recursive_hops += network_->stats().total_hops() - before;

    before = network_->stats().total_hops();
    nodes_[t % nodes_.size()]->MultisendIterative(MakeBatch(32, 100 + t));
    sim_.Run();
    iterative_hops += network_->stats().total_hops() - before;
  }
  EXPECT_LT(recursive_hops, iterative_hops);
}

TEST_F(MultisendTest, EmptyBatchIsNoOp) {
  Build(16);
  uint64_t before = network_->stats().total_hops();
  nodes_[0]->Multisend({}, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(network_->stats().total_hops(), before);
  EXPECT_TRUE(app_->deliveries.empty());
}

TEST_F(MultisendTest, DuplicateTargetsEachDelivered) {
  Build(32);
  NodeId target = HashKey("dup");
  std::vector<AppMessage> batch{MakeMsg(target, 1), MakeMsg(target, 2)};
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(app_->deliveries.size(), 2u);
}

TEST_F(MultisendTest, BatchToOwnRangeDeliversLocallyFree) {
  Build(32);
  Node* origin = nodes_[0];
  std::vector<AppMessage> batch{MakeMsg(origin->id(), 9)};
  uint64_t before = network_->stats().total_hops();
  origin->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(network_->stats().total_hops(), before);
  ASSERT_EQ(app_->deliveries.size(), 1u);
  EXPECT_EQ(app_->deliveries[0].node, origin);
}

TEST_F(MultisendTest, LargeBatchOnSmallRingTouchesAllNodes) {
  Build(8);
  auto batch = MakeBatch(200, 4);
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(app_->deliveries.size(), 200u);
  std::set<Node*> receivers;
  for (const auto& d : app_->deliveries) receivers.insert(d.node);
  EXPECT_EQ(receivers.size(), 8u);  // 200 random keys over 8 nodes.
}

TEST_F(MultisendTest, MultisendCostScalesWithBatchNotNaively) {
  // Batch of k messages should cost less than k separate sends.
  Build(256);
  auto batch = MakeBatch(64, 5);
  uint64_t before = network_->stats().total_hops();
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  uint64_t batched = network_->stats().total_hops() - before;

  before = network_->stats().total_hops();
  for (auto& msg : MakeBatch(64, 5)) {
    nodes_[0]->Send(std::move(msg));
    sim_.Run();
  }
  uint64_t separate = network_->stats().total_hops() - before;
  EXPECT_LT(batched, separate);
}

TEST_F(MultisendTest, MixedBatchDeliversLocalInOrderAndForwardsRestInOrder) {
  Build(32);
  Node* origin = nodes_[0];
  const NodeId own = origin->id();
  const NodeId just_after_pred =
      origin->predecessor()->id() + Uint160::FromUint64(1);
  std::vector<AppMessage> batch{
      MakeMsg(nodes_[5]->id(), 0), MakeMsg(own, 1),
      MakeMsg(nodes_[17]->id(), 2), MakeMsg(just_after_pred, 3),
      MakeMsg(nodes_[9]->id(), 4), MakeMsg(own - Uint160::FromUint64(1), 5)};
  for (size_t i : {0u, 2u, 4u}) {
    ASSERT_FALSE(origin->IsResponsibleFor(batch[i].target));
  }

  RecordingTransport recorder;
  network_->set_transport(&recorder);
  origin->Multisend(batch, sim::MsgClass::kTupleIndex);
  network_->set_transport(nullptr);

  // Local targets are consumed at once, in batch order.
  ASSERT_EQ(app_->deliveries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(app_->deliveries[i].node, origin);
    EXPECT_EQ(app_->deliveries[i].tag, static_cast<int>(2 * i + 1));
  }
  // The rest leave in one frame, in their original order, one hop spent.
  ASSERT_EQ(recorder.sent.size(), 1u);
  HopFrame& frame = recorder.sent[0].frame;
  EXPECT_EQ(frame.kind, HopFrame::Kind::kBatch);
  EXPECT_EQ(frame.cls, sim::MsgClass::kTupleIndex);
  EXPECT_EQ(frame.ttl, network_->options().max_route_hops - 1);
  EXPECT_EQ(TagsOf(frame.msgs), (std::vector<int>{0, 2, 4}));

  // Shipping the forwarded frame completes the multisend at the oracle.
  network_->sim_transport()->SendHop(origin, recorder.sent[0].to,
                                     std::move(frame));
  sim_.Run();
  ASSERT_EQ(app_->deliveries.size(), 6u);
  for (size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(app_->deliveries[i].node,
              network_->OracleSuccessor(app_->deliveries[i].target));
  }
}

TEST_F(MultisendTest, RouteWhoseTtlRunsOutDropsOnce) {
  Build(64);
  Node* origin = nodes_[0];
  const NodeId target = origin->id() + Uint160::PowerOfTwo(159);
  ASSERT_FALSE(origin->IsResponsibleFor(target));

  HopFrame frame;
  frame.kind = HopFrame::Kind::kRoute;
  frame.cls = sim::MsgClass::kControl;
  frame.ttl = 1;
  frame.msgs.push_back(MakeMsg(target, 7));
  RecordingTransport recorder;
  network_->set_transport(&recorder);
  origin->ApplyHop(std::move(frame));
  network_->set_transport(nullptr);

  // The last hop of budget is spent forwarding the same message.
  ASSERT_EQ(recorder.sent.size(), 1u);
  HopFrame& forwarded = recorder.sent[0].frame;
  EXPECT_EQ(forwarded.kind, HopFrame::Kind::kRoute);
  EXPECT_EQ(forwarded.ttl, 0);
  ASSERT_EQ(forwarded.msgs.size(), 1u);
  EXPECT_EQ(forwarded.msgs[0].target, target);
  EXPECT_EQ(TagsOf(forwarded.msgs), std::vector<int>{7});

  // The receiver does not own the target and has no budget left: exactly
  // one drop, no further hop, no delivery.
  Node* next = network_->FindById(recorder.sent[0].to);
  ASSERT_NE(next, nullptr);
  ASSERT_FALSE(next->IsResponsibleFor(target));
  const uint64_t hops_before = network_->stats().total_hops();
  const uint64_t drops_before = network_->stats().dropped();
  next->ApplyHop(std::move(forwarded));
  sim_.Run();
  EXPECT_EQ(network_->stats().dropped() - drops_before, 1u);
  EXPECT_EQ(network_->stats().dropped(sim::MsgClass::kControl), 1u);
  EXPECT_EQ(network_->stats().total_hops(), hops_before);
  EXPECT_TRUE(app_->deliveries.empty());
}

}  // namespace
}  // namespace contjoin::chord
