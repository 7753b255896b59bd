// The put half of the classic DHT interface (paper §2.1): items land at,
// and follow, the node responsible for their key.

#include <gtest/gtest.h>

#include "chord_test_util.h"
#include "sim/simulator.h"

namespace contjoin::chord {
namespace {

class DhtApiTest : public ::testing::Test {
 protected:
  void Build(size_t n) {
    network_ = std::make_unique<Network>(&sim_);
    nodes_ = network_->BuildIdealRing(n);
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> network_;
  std::vector<Node*> nodes_;
};

/// Tags of the items `node` stores under `key`, taken out of its store.
std::vector<int> TakeTags(Node* node, const NodeId& key) {
  std::vector<int> tags;
  for (const PayloadPtr& item : node->store().Take(key)) {
    tags.push_back(static_cast<const TaggedPayload*>(item.get())->tag);
  }
  return tags;
}

TEST_F(DhtApiTest, PutLandsAtResponsibleNode) {
  Build(64);
  NodeId key = HashKey("item-1");
  nodes_[3]->DhtPut(key, std::make_shared<TaggedPayload>(42));
  sim_.Run();
  Node* owner = network_->OracleSuccessor(key);
  EXPECT_EQ(owner->store().size(), 1u);
  EXPECT_EQ(TakeTags(owner, key), std::vector<int>{42});
}

TEST_F(DhtApiTest, MultiplePutsAccumulate) {
  Build(32);
  NodeId key = HashKey("multi");
  for (int i = 0; i < 3; ++i) {
    nodes_[static_cast<size_t>(i)]->DhtPut(
        key, std::make_shared<TaggedPayload>(i));
    sim_.Run();
  }
  EXPECT_EQ(TakeTags(network_->OracleSuccessor(key), key),
            (std::vector<int>{0, 1, 2}));
}

TEST_F(DhtApiTest, ItemsFollowResponsibilityOnJoin) {
  // put() + protocol join: the Chord transfer rule moves stored items.
  sim::Simulator sim;
  Network network(&sim);
  Node* a = network.CreateAndJoin("a", nullptr);
  Node* b = network.CreateAndJoin("b", a);
  network.StabilizeUntilConsistent(100);
  NodeId key = HashKey("wanderer");
  a->DhtPut(key, std::make_shared<TaggedPayload>(7));
  sim.Run();
  // A third node whose range covers the key joins.
  Node* c = network.CreateAndJoin("c", a);
  network.StabilizeUntilConsistent(100);
  sim.Run();
  (void)b;
  Node* owner = network.OracleSuccessor(key);
  EXPECT_EQ(owner->store().size(), 1u) << "item did not follow ownership";
  (void)c;
}

}  // namespace
}  // namespace contjoin::chord
