#include "chord/network.h"

#include <algorithm>

#include "chord/transport.h"
#include "common/logging.h"
#include "faults/fault_plan.h"

namespace contjoin::chord {

Network::Network(sim::Simulator* simulator, NetworkOptions options)
    : simulator_(simulator),
      options_(options),
      sim_transport_(std::make_unique<SimTransport>(this)),
      transport_(sim_transport_.get()) {
  CJ_CHECK(simulator_ != nullptr);
  CJ_CHECK(options_.successor_list_size >= 1);
}

Network::~Network() = default;

void Network::set_transport(Transport* transport) {
  transport_ = transport != nullptr ? transport : sim_transport_.get();
}

Transport* Network::sim_transport() const { return sim_transport_.get(); }

void Network::TransmitHop(Node* from, const NodeId& to, HopFrame frame) {
  if (frame_sizer_) stats_.AddBytes(frame.cls, frame_sizer_(frame));
  transport_->SendHop(from, to, std::move(frame));
}

Node* Network::CreateNode(const std::string& key) {
  auto node = std::make_unique<Node>(this, key, AssignIp(), nodes_.size());
  Node* raw = node.get();
  auto [it, inserted] = by_id_.emplace(raw->id(), raw);
  CJ_CHECK(inserted) << "identifier collision for key '" << key << "'";
  id_index_.emplace(raw->id(), raw);
  nodes_.push_back(std::move(node));
  return raw;
}

Node* Network::CreateAndJoin(const std::string& key, Node* bootstrap) {
  Node* node = CreateNode(key);
  if (bootstrap == nullptr) {
    node->CreateRing();
  } else {
    node->Join(bootstrap);
  }
  return node;
}

std::vector<Node*> Network::BuildIdealRing(size_t n) {
  CJ_CHECK(n >= 1);
  std::vector<Node*> created;
  created.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Node* node = CreateNode("node-" + std::to_string(next_key_serial_++));
    node->SetAliveDirect(true);
    OnNodeBirth();
    created.push_back(node);
  }
  RewireIdeal();
  return created;
}

void Network::RewireIdeal() {
  std::vector<Node*> sorted = AliveNodes();
  std::sort(sorted.begin(), sorted.end(),
            [](const Node* a, const Node* b) { return a->id() < b->id(); });
  WireIdeal(sorted);
}

void Network::WireIdeal(const std::vector<Node*>& sorted) {
  if (sorted.empty()) return;
  const size_t n = sorted.size();
  auto successor_of = [&](const NodeId& target) -> Node* {
    // First node with id >= target, wrapping.
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), target,
        [](const Node* node, const NodeId& id) { return node->id() < id; });
    return it == sorted.end() ? sorted.front() : *it;
  };
  const size_t r = static_cast<size_t>(options_.successor_list_size);
  for (size_t i = 0; i < n; ++i) {
    Node* node = sorted[i];
    std::vector<Node*> list;
    for (size_t k = 1; k <= std::min(r, n - 1); ++k) {
      list.push_back(sorted[(i + k) % n]);
    }
    if (list.empty()) list.push_back(node);  // Singleton ring.
    node->SetSuccessorListDirect(std::move(list));
    node->SetPredecessorDirect(sorted[(i + n - 1) % n]);
    for (int j = 0; j < Uint160::kBits; ++j) {
      node->SetFingerDirect(j,
                            successor_of(node->id() + Uint160::PowerOfTwo(j)));
    }
  }
}

Node* Network::OracleSuccessor(const NodeId& id) const {
  if (alive_count_ == 0) return nullptr;
  auto it = by_id_.lower_bound(id);
  // Scan clockwise (wrapping once) for the first alive node.
  for (size_t scanned = 0; scanned < by_id_.size(); ++scanned) {
    if (it == by_id_.end()) it = by_id_.begin();
    if (it->second->alive()) return it->second;
    ++it;
  }
  return nullptr;
}

std::vector<Node*> Network::AliveNodes() const {
  std::vector<Node*> out;
  out.reserve(alive_count_);
  for (const auto& node : nodes_) {
    if (node->alive()) out.push_back(node.get());
  }
  return out;
}

bool Network::RingIsConsistent() const {
  static const Uint160 kOne = Uint160::FromUint64(1);
  for (const auto& node : nodes_) {
    if (!node->alive()) continue;
    Node* expected = OracleSuccessor(node->id() + kOne);
    Node* actual = node->successor();
    if (actual != expected) return false;
  }
  return true;
}

bool Network::RingIsFullyConsistent() const {
  if (!RingIsConsistent()) return false;
  std::vector<Node*> sorted = AliveNodes();
  std::sort(sorted.begin(), sorted.end(),
            [](const Node* a, const Node* b) { return a->id() < b->id(); });
  const size_t n = sorted.size();
  for (size_t i = 0; i < n; ++i) {
    Node* node = sorted[i];
    Node* expected_pred = sorted[(i + n - 1) % n];
    if (n > 1 && node->predecessor() != expected_pred) return false;
    for (int j = 0; j < Uint160::kBits; ++j) {
      Node* expected = OracleSuccessor(node->id() + Uint160::PowerOfTwo(j));
      if (node->finger(j) != expected) return false;
    }
  }
  return true;
}

void Network::RunMaintenanceRound(int fingers_per_round) {
  std::vector<Node*> alive = AliveNodes();
  for (Node* node : alive) {
    if (!node->alive()) continue;  // May have died mid-round.
    node->CheckPredecessor();
    node->Stabilize();
    for (int k = 0; k < fingers_per_round; ++k) node->FixNextFinger();
  }
}

int Network::StabilizeUntilConsistent(int max_rounds) {
  for (int round = 1; round <= max_rounds; ++round) {
    RunMaintenanceRound(/*fingers_per_round=*/8);
    if (RingIsFullyConsistent()) return round;
  }
  return max_rounds;
}

void Network::ScheduleDelivery(Node* to, sim::SimTime latency,
                               HopFrame frame) {
  auto deliver = [this, to, frame = std::move(frame)]() mutable {
    if (!to->alive()) {
      stats_.AddDrop(frame.cls);
      return;
    }
    to->ApplyHop(std::move(frame));
  };
  static_assert(sizeof(deliver) <= sim::Action::kInlineSize,
                "one event per hop: the delivery must not allocate");
  simulator_->ScheduleSharded(latency, to->serial(), std::move(deliver));
}

void Network::TransmitFrame(Node* from, Node* to, HopFrame frame) {
  const sim::MsgClass cls = frame.cls;
  stats_.AddHop(cls);
  if (to == nullptr || !to->alive()) {
    stats_.AddDrop(cls);
    return;
  }
  sim::SimTime latency = options_.hop_latency;
  if (fault_plan_ != nullptr) {
    // Keyed per sender: the destination-shard execution model guarantees
    // only `from`'s shard advances its counter, so the decision stream a
    // sender sees is identical at any worker count.
    faults::FaultDecision fate =
        from != nullptr ? fault_plan_->Decide(cls, from->serial() + 1,
                                              from->NextFaultSeq())
                        : fault_plan_->Decide(cls);
    if (fate.drop) {
      stats_.AddDrop(cls);
      return;
    }
    latency += fate.extra_delay;
    for (int i = 0; i < fate.duplicates; ++i) {
      // The duplicate is real traffic: one more hop, delivered at the same
      // time as the original (delivery still re-checks liveness).
      stats_.AddHop(cls);
      ScheduleDelivery(to, latency, frame);
    }
  }
  ScheduleDelivery(to, latency, std::move(frame));
}

}  // namespace contjoin::chord
