// Shared helpers for Chord-layer tests.

#ifndef CONTJOIN_TESTS_CHORD_TEST_UTIL_H_
#define CONTJOIN_TESTS_CHORD_TEST_UTIL_H_

#include <mutex>
#include <string>
#include <vector>

#include "chord/network.h"
#include "chord/node.h"
#include "chord/types.h"

namespace contjoin::chord {

/// Payload carrying a tag so tests can tell deliveries apart.
struct TaggedPayload : Payload {
  explicit TaggedPayload(int t) : tag(t) {}
  int tag;
};

/// Records every delivery (node, target, tag) and stored-item hand-off.
/// Deliveries to different nodes may run on different worker threads
/// (CONTJOIN_THREADS), so recording is serialized.
class CaptureApp : public Application {
 public:
  struct Delivery {
    Node* node;
    NodeId target;
    int tag;
  };

  void HandleMessage(Node& node, const AppMessage& msg) override {
    int tag = -1;
    if (const auto* p = dynamic_cast<const TaggedPayload*>(msg.payload.get())) {
      tag = p->tag;
    }
    std::lock_guard<std::mutex> lock(mu_);
    deliveries.push_back(Delivery{&node, msg.target, tag});
  }

  void HandleStoredItems(Node& node, const NodeId& key,
                         std::vector<PayloadPtr> items) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (PayloadPtr& item : items) {
      stored_handoffs.push_back({&node, key, -1});
      node.store().Put(key, std::move(item));
    }
  }

  std::vector<Delivery> deliveries;
  std::vector<Delivery> stored_handoffs;

 private:
  std::mutex mu_;
};

inline AppMessage MakeMsg(const NodeId& target, int tag,
                          sim::MsgClass cls = sim::MsgClass::kControl) {
  return AppMessage{target, cls, std::make_shared<TaggedPayload>(tag)};
}

}  // namespace contjoin::chord

#endif  // CONTJOIN_TESTS_CHORD_TEST_UTIL_H_
