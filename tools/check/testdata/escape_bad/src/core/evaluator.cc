// Shard-escape fixture: a role module whose functions reach across node
// shards. Violations: a StateOf(<other node>) write outside any deferred
// closure, an unordered-container iteration feeding a send directly, and
// one feeding a send through a helper call (one hop).
#include <unordered_map>

namespace fixture {

struct Node {};
struct State {
  int count = 0;
};
struct Callback {};

struct Ctx {
  State& StateOf(Node& n);
  void ScheduleAfter(Node& n, int delay, Callback cb);
  void Send(int target, int payload);
};

// BAD: writes another node's state on this shard.
void Evaluate(Ctx& ctx, Node& node, Node& peer) {
  ctx.StateOf(node).count += 1;
  ctx.StateOf(peer).count += 1;
}

// OK: the closure handed to ScheduleAfter executes on the peer's shard.
void Forward(Ctx& ctx, Node& node, Node& peer) {
  ctx.ScheduleAfter(peer, 1, [&ctx, &peer] { ctx.StateOf(peer).count += 1; });
}

// BAD: hash-table order reaches the wire directly.
void Flush(Ctx& ctx, Node& node) {
  std::unordered_map<int, int> pending;
  for (const auto& entry : pending) {
    ctx.Send(entry.first, entry.second);
  }
}

void EmitOne(Ctx& ctx, int key, int value) { ctx.Send(key, value); }

// BAD: the send lives one helper call away, but the order still leaks.
void FlushViaHelper(Ctx& ctx, Node& node) {
  std::unordered_map<int, int> backlog;
  for (const auto& entry : backlog) {
    EmitOne(ctx, entry.first, entry.second);
  }
}

// OK: pure aggregation, nothing reaches the wire.
int Count(Ctx& ctx, Node& node) {
  std::unordered_map<int, int> tallies;
  int total = 0;
  for (const auto& entry : tallies) total += entry.second;
  return total;
}

// Waived: acks are idempotent and order-insensitive.
void FlushWaived(Ctx& ctx, Node& node) {
  std::unordered_map<int, int> acked;
  // contjoin-check: shard-ok(idempotent acks, order-insensitive)
  for (const auto& entry : acked) {
    ctx.Send(entry.first, entry.second);
  }
}

}  // namespace fixture
