#include "chord/node.h"

#include <algorithm>

#include "chord/network.h"
#include "common/logging.h"

namespace contjoin::chord {

Node::Node(Network* network, std::string key, uint64_t ip, uint64_t serial)
    : network_(network),
      key_(std::move(key)),
      id_(HashKey(key_)),
      ip_(ip),
      serial_(serial) {}

Node* Node::successor() {
  // Prune dead entries from the front; the list self-heals via stabilize.
  while (!successor_list_.empty() && !successor_list_.front()->alive()) {
    successor_list_.erase(successor_list_.begin());
  }
  return successor_list_.empty() ? nullptr : successor_list_.front();
}

Node* Node::FirstAliveSuccessor() const {
  for (Node* s : successor_list_) {
    if (s->alive()) return s;
  }
  return nullptr;
}

// contjoin-check: hot
bool Node::IsResponsibleFor(const NodeId& target) const {
  if (predecessor_ != nullptr && predecessor_->alive()) {
    return target.InOpenClosed(predecessor_->id(), id_);
  }
  // Unknown predecessor: accept (best-effort). Routing only hands us
  // messages it believes we own.
  return true;
}

void Node::CreateRing() {
  CJ_CHECK(!alive_) << "node already in a ring";
  alive_ = true;
  predecessor_ = this;
  successor_list_.assign(1, this);
  network_->OnNodeBirth();
}

void Node::Join(Node* bootstrap) {
  CJ_CHECK(!alive_) << "node already in a ring";
  CJ_CHECK(bootstrap != nullptr && bootstrap->alive())
      << "join requires an alive bootstrap node";
  alive_ = true;
  network_->OnNodeBirth();
  predecessor_ = nullptr;
  Node* succ = bootstrap->FindSuccessor(id_, sim::MsgClass::kMaintenance);
  CJ_CHECK(succ != nullptr) << "bootstrap could not resolve a successor";
  successor_list_.assign(1, succ);
  // One immediate stabilize completes the link and triggers key transfer.
  Stabilize();
}

void Node::LeaveGracefully() {
  if (!alive_) return;
  Node* succ = this;
  // Find the first alive successor other than ourselves.
  for (Node* s : successor_list_) {
    if (s != this && s->alive()) {
      succ = s;
      break;
    }
  }
  if (succ != this) {
    if (!store_.empty()) {
      network_->CountHop(sim::MsgClass::kMaintenance);
      succ->AcceptStoredItems(store_.ExtractAll());
    }
    if (predecessor_ != nullptr && predecessor_->alive() &&
        predecessor_ != this) {
      // Splice: predecessor adopts our successor.
      network_->CountHop(sim::MsgClass::kMaintenance);
      auto& plist = predecessor_->successor_list_;
      plist.erase(std::remove(plist.begin(), plist.end(), this), plist.end());
      plist.insert(plist.begin(), succ);
    }
    if (succ->predecessor_ == this) {
      network_->CountHop(sim::MsgClass::kMaintenance);
      succ->predecessor_ = (predecessor_ != nullptr && predecessor_->alive() &&
                            predecessor_ != this)
                               ? predecessor_
                               : nullptr;
    }
  }
  alive_ = false;
  predecessor_ = nullptr;
  successor_list_.clear();
  network_->OnNodeDeath();
}

void Node::Fail() {
  if (!alive_) return;
  alive_ = false;
  network_->OnNodeDeath();
}

void Node::Reconnect(Node* bootstrap, bool new_ip) {
  CJ_CHECK(!alive_) << "Reconnect on an alive node";
  if (new_ip) ip_ = network_->AssignIp();
  fingers_.fill(nullptr);
  Join(bootstrap);
}

void Node::Stabilize() {
  if (!alive_) return;
  Node* s = successor();
  if (s == nullptr) {
    // All known successors failed; fall back on the predecessor to keep the
    // ring connected (it will be corrected by future rounds).
    if (predecessor_ != nullptr && predecessor_->alive() &&
        predecessor_ != this) {
      successor_list_.assign(1, predecessor_);
      s = predecessor_;
    } else {
      successor_list_.assign(1, this);
      s = this;
    }
  }
  if (s != this) network_->CountHop(sim::MsgClass::kMaintenance);
  Node* x = s->predecessor_;
  if (x != nullptr && x != this && x->alive() &&
      x->id().InOpenOpen(id_, s->id())) {
    successor_list_.insert(successor_list_.begin(), x);
    s = x;
  }
  if (s != this) {
    network_->CountHop(sim::MsgClass::kMaintenance);
    s->NotifyFrom(this);
  }
  RefreshSuccessorList();
}

void Node::RefreshSuccessorList() {
  Node* s = successor();
  if (s == nullptr || s == this) return;
  std::vector<Node*> list;
  list.push_back(s);
  for (Node* entry : s->successor_list_) {
    if (static_cast<int>(list.size()) >=
        network_->options().successor_list_size) {
      break;
    }
    if (entry == this) break;  // Wrapped all the way around.
    if (!entry->alive()) continue;
    if (std::find(list.begin(), list.end(), entry) != list.end()) continue;
    list.push_back(entry);
  }
  successor_list_ = std::move(list);
}

void Node::CheckPredecessor() {
  if (predecessor_ != nullptr && !predecessor_->alive()) {
    predecessor_ = nullptr;
  }
}

void Node::NotifyFrom(Node* candidate) {
  if (!alive_ || candidate == this) return;
  bool adopt = predecessor_ == nullptr || !predecessor_->alive() ||
               candidate->id().InOpenOpen(predecessor_->id(), id_);
  if (!adopt) return;
  predecessor_ = candidate;
  // Chord key-transfer rule: everything outside our new range (candidate,
  // self] belongs closer to the new predecessor.
  auto moved = store_.ExtractRange(id_, candidate->id());
  if (!moved.empty()) {
    network_->CountHop(sim::MsgClass::kMaintenance);
    candidate->AcceptStoredItems(std::move(moved));
  }
}

void Node::FixNextFinger() {
  if (!alive_) return;
  int i = next_finger_to_fix_;
  next_finger_to_fix_ = (next_finger_to_fix_ + 1) % Uint160::kBits;
  NodeId target = id_ + Uint160::PowerOfTwo(i);
  fingers_[static_cast<size_t>(i)] =
      FindSuccessor(target, sim::MsgClass::kMaintenance);
}

void Node::FixAllFingers() {
  if (!alive_) return;
  for (int i = 0; i < Uint160::kBits; ++i) {
    NodeId target = id_ + Uint160::PowerOfTwo(i);
    fingers_[static_cast<size_t>(i)] =
        FindSuccessor(target, sim::MsgClass::kMaintenance);
  }
}

Node* Node::FindSuccessor(const NodeId& target, sim::MsgClass cls) {
  Node* cur = this;
  for (int steps = 0; steps <= network_->options().max_route_hops; ++steps) {
    // Probing a remote node must not mutate it (other shards may be
    // executing it concurrently); pruning our own list is safe.
    Node* succ = cur == this ? cur->successor() : cur->FirstAliveSuccessor();
    if (succ == nullptr) return nullptr;
    if (target.InOpenClosed(cur->id(), succ->id())) return succ;
    Node* next = cur->ClosestPrecedingFinger(target);
    if (next == nullptr || next == cur) next = succ;
    network_->CountHop(cls);  // Probe RPC to the next node.
    cur = next;
  }
  network_->CountDrop(cls);
  return nullptr;
}

// contjoin-check: hot
Node* Node::ClosestPrecedingFinger(const NodeId& target) {
  // Runs of adjacent slots usually hold the same node (in an N-node ring
  // only ~log2 N of the 160 are distinct), so a slot equal to the one just
  // rejected is skipped: each distinct finger is tested once per run.
  Node* rejected = nullptr;
  for (int i = Uint160::kBits - 1; i >= 0; --i) {
    Node* f = fingers_[static_cast<size_t>(i)];
    if (f == rejected) continue;
    if (f != nullptr && f->alive() && f != this &&
        f->id().InOpenOpen(id_, target)) {
      return f;
    }
    rejected = f;
  }
  // Fall back on the farthest qualifying successor-list entry.
  Node* best = nullptr;
  Uint160 best_dist;
  for (Node* s : successor_list_) {
    if (s == nullptr || !s->alive() || s == this) continue;
    if (!s->id().InOpenOpen(id_, target)) continue;
    Uint160 dist = s->id() - id_;
    if (best == nullptr || dist > best_dist) {
      best = s;
      best_dist = dist;
    }
  }
  return best;
}

// contjoin-check: hot
Node* Node::NextHopFor(const NodeId& target) {
  Node* succ = successor();
  if (succ == nullptr) return nullptr;
  if (target.InOpenClosed(id_, succ->id())) return succ;
  Node* f = ClosestPrecedingFinger(target);
  return f != nullptr ? f : succ;
}

void Node::Send(AppMessage msg) {
  const int ttl = network_->options().max_route_hops;
  Node* next = RouteStep(msg, ttl);
  if (next == nullptr) return;
  HopFrame frame;
  frame.kind = HopFrame::Kind::kRoute;
  frame.cls = msg.cls;
  frame.ttl = ttl - 1;
  frame.msgs.push_back(std::move(msg));
  network_->TransmitHop(this, next->id(), std::move(frame));
}

Node* Node::RouteStep(const AppMessage& msg, int ttl) {
  if (!alive_) {
    network_->CountDrop(msg.cls);
    return nullptr;
  }
  if (IsResponsibleFor(msg.target)) {
    DeliverLocal(msg);
    return nullptr;
  }
  if (ttl <= 0) {
    network_->CountDrop(msg.cls);
    return nullptr;
  }
  Node* next = NextHopFor(msg.target);
  if (next == nullptr || next == this) {
    network_->CountDrop(msg.cls);
    return nullptr;
  }
  return next;
}

void Node::Multisend(std::vector<AppMessage> msgs, sim::MsgClass cls) {
  if (msgs.empty()) return;
  HopFrame frame;
  frame.kind = HopFrame::Kind::kBatch;
  frame.cls = cls;
  frame.ttl = network_->options().max_route_hops;
  frame.msgs = std::move(msgs);
  HandleBatch(std::move(frame));
}

// contjoin-check: hot
void Node::HandleBatch(HopFrame frame) {
  if (!alive_) {
    network_->CountDrop(frame.cls);
    return;
  }
  // Consume every message we are responsible for and compact the rest to
  // the front, in their original order.
  std::vector<AppMessage>& batch = frame.msgs;
  size_t kept = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (IsResponsibleFor(batch[i].target)) {
      DeliverLocal(batch[i]);
    } else {
      if (kept != i) batch[kept] = std::move(batch[i]);
      ++kept;
    }
  }
  batch.resize(kept);
  if (batch.empty()) return;
  if (frame.ttl <= 0) {
    network_->CountDrop(frame.cls);
    return;
  }
  // Head = the remaining target nearest clockwise from here (the batch was
  // implicitly sorted by consumption; recomputing keeps this robust).
  size_t head = 0;
  Uint160 head_dist = batch[0].target - id_;
  for (size_t i = 1; i < batch.size(); ++i) {
    Uint160 dist = batch[i].target - id_;
    if (dist < head_dist) {
      head_dist = dist;
      head = i;
    }
  }
  Node* next = NextHopFor(batch[head].target);
  if (next == nullptr || next == this) {
    network_->CountDrop(frame.cls);
    return;
  }
  --frame.ttl;
  network_->TransmitHop(this, next->id(), std::move(frame));
}

void Node::MultisendIterative(std::vector<AppMessage> msgs) {
  for (AppMessage& msg : msgs) {
    Node* dest = FindSuccessor(msg.target, msg.cls);
    if (dest == nullptr) {
      network_->CountDrop(msg.cls);
      continue;
    }
    HopFrame frame;
    frame.kind = HopFrame::Kind::kDeliver;
    frame.cls = msg.cls;
    frame.msgs.push_back(std::move(msg));
    network_->TransmitHop(this, dest->id(), std::move(frame));
  }
}

// contjoin-check: hot
void Node::ApplyHop(HopFrame frame) {
  switch (frame.kind) {
    case HopFrame::Kind::kRoute: {
      // Forward the received frame itself, one hop of budget spent.
      Node* next = RouteStep(frame.msgs[0], frame.ttl);
      if (next == nullptr) return;
      --frame.ttl;
      network_->TransmitHop(this, next->id(), std::move(frame));
      return;
    }
    case HopFrame::Kind::kDeliver:
      DeliverLocal(frame.msgs[0]);
      return;
    case HopFrame::Kind::kBatch:
      HandleBatch(std::move(frame));
      return;
    case HopFrame::Kind::kBroadcast: {
      AppMessage local;
      local.target = id_;
      local.cls = frame.cls;
      local.payload = frame.broadcast_payload;
      DeliverLocal(local);
      BroadcastRange(frame.broadcast_payload, frame.cls,
                     frame.broadcast_limit);
      return;
    }
  }
}

void Node::DeliverLocal(const AppMessage& msg) {
  if (!alive_) {
    network_->CountDrop(msg.cls);
    return;
  }
  switch (msg.kind) {
    case MsgKind::kApp:
      if (app_ != nullptr) app_->HandleMessage(*this, msg);
      return;
    case MsgKind::kDhtStore: {
      const auto* p = static_cast<const DhtStorePayload*>(msg.payload.get());
      store_.Put(p->key, p->item);
      return;
    }
  }
}

void Node::Broadcast(PayloadPtr payload, sim::MsgClass cls) {
  if (!alive_) return;
  // Deliver locally first, then cover the rest of the ring (self, self) ==
  // the full circle minus this node.
  AppMessage local;
  local.target = id_;
  local.cls = cls;
  local.payload = payload;
  DeliverLocal(local);
  BroadcastRange(payload, cls, id_);
}

void Node::BroadcastRange(const PayloadPtr& payload, sim::MsgClass cls,
                          const NodeId& limit) {
  // Collect the distinct alive fingers in clockwise order from this node;
  // the successor guarantees coverage when finger entries are sparse.
  std::vector<Node*> hops;
  Node* succ = successor();
  if (succ != nullptr && succ != this) hops.push_back(succ);
  for (int i = 0; i < Uint160::kBits; ++i) {
    Node* f = fingers_[static_cast<size_t>(i)];
    if (f == nullptr || !f->alive() || f == this) continue;
    if (std::find(hops.begin(), hops.end(), f) == hops.end()) {
      hops.push_back(f);
    }
  }
  std::sort(hops.begin(), hops.end(), [this](Node* a, Node* b) {
    return (a->id() - id_) < (b->id() - id_);
  });
  for (size_t i = 0; i < hops.size(); ++i) {
    Node* next = hops[i];
    if (!next->id().InOpenOpen(id_, limit)) break;  // Outside our interval.
    // This branch covers up to the following finger (or our own limit).
    NodeId sub_limit = limit;
    if (i + 1 < hops.size() && hops[i + 1]->id().InOpenOpen(id_, limit)) {
      sub_limit = hops[i + 1]->id();
    }
    HopFrame frame;
    frame.kind = HopFrame::Kind::kBroadcast;
    frame.cls = cls;
    frame.broadcast_payload = payload;
    frame.broadcast_limit = sub_limit;
    network_->TransmitHop(this, next->id(), std::move(frame));
  }
}

void Node::DhtPut(const NodeId& key, PayloadPtr item) {
  auto payload = std::make_shared<DhtStorePayload>();
  payload->key = key;
  payload->item = std::move(item);
  AppMessage msg;
  msg.target = key;
  msg.cls = sim::MsgClass::kLookup;
  msg.payload = std::move(payload);
  msg.kind = MsgKind::kDhtStore;
  Send(std::move(msg));
}

void Node::AcceptStoredItems(
    std::vector<std::pair<NodeId, std::vector<PayloadPtr>>> batch) {
  for (auto& [key, items] : batch) {
    if (app_ != nullptr) {
      app_->HandleStoredItems(*this, key, std::move(items));
    } else {
      for (PayloadPtr& item : items) store_.Put(key, std::move(item));
    }
  }
}

}  // namespace contjoin::chord
