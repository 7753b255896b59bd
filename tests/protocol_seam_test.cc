// Unit tests for the protocol role handlers exercised through a mock
// ProtocolContext — no simulator, no ring. Covers the §4.7 moved-identifier
// forwarding path of the rewriter, sliding-window expiry of the evaluator
// tables, and the dispatch registry's handling of unregistered types.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chord/node.h"
#include "chord/types.h"
#include "core/algorithm.h"
#include "core/context.h"
#include "core/dispatch.h"
#include "core/evaluator.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/rewriter.h"
#include "core/state.h"
#include "query/parser.h"
#include "relational/schema.h"

namespace contjoin::core {
namespace {

/// Minimal ProtocolContext: records every transport call; resolves only
/// the nodes registered with AddNode.
class MockContext : public ProtocolContext {
 public:
  explicit MockContext(Options options)
      : options_(std::move(options)), rng_(options_.seed) {}

  const Options& options() const override { return options_; }
  const AlgorithmStrategy& strategy() const override {
    return AlgorithmStrategy::For(options_.algorithm);
  }
  rel::Catalog& GetCatalog() override { return catalog_; }
  Rng& GetRng() override { return rng_; }
  rel::Timestamp now() const override { return now_time; }

  NodeState& StateOf(chord::Node& node) override {
    auto it = states_.find(&node);
    if (it == states_.end()) {
      it = states_
               .emplace(&node,
                        std::make_unique<NodeState>(options_.jfrt_capacity))
               .first;
    }
    return *it->second;
  }

  void Send(chord::Node&, chord::AppMessage msg) override {
    sent.push_back(std::move(msg));
  }
  void Multisend(chord::Node&, std::vector<chord::AppMessage> msgs,
                 sim::MsgClass) override {
    for (auto& m : msgs) sent.push_back(std::move(m));
  }
  void TransmitMessage(chord::Node& from, const chord::NodeId& to,
                       chord::AppMessage msg) override {
    transmitted.push_back({&from, to, std::move(msg)});
  }
  void CountHop(sim::MsgClass) override { ++hops; }
  chord::Node* NodeByKey(const std::string&) override { return nullptr; }
  chord::Node* NodeById(const chord::NodeId& id) override {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }
  void DepositNotification(chord::Node&, Notification n) override {
    inbox.push_back(std::move(n));
  }
  void AppendOtjResults(uint64_t, std::vector<Notification>) override {}
  uint64_t NextReliableId(chord::Node&) override {
    return ++next_reliable_id;
  }
  void ScheduleAfter(chord::Node&, sim::SimTime, sim::Action fn) override {
    scheduled.push_back(std::move(fn));
  }

  void AddNode(chord::Node* node) { by_id_[node->id()] = node; }

  struct TransmitMessageRecord {
    chord::Node* from;
    chord::NodeId to;
    chord::AppMessage msg;
  };

  rel::Timestamp now_time = 0;
  std::vector<chord::AppMessage> sent;
  std::vector<TransmitMessageRecord> transmitted;
  std::vector<Notification> inbox;
  std::vector<sim::Action> scheduled;
  uint64_t hops = 0;
  uint64_t next_reliable_id = 0;

 private:
  Options options_;
  rel::Catalog catalog_;
  Rng rng_;
  std::unordered_map<chord::Node*, std::unique_ptr<NodeState>> states_;
  std::unordered_map<chord::NodeId, chord::Node*> by_id_;
};

chord::AppMessage AlTupleMessage(const std::string& level1) {
  auto p = std::make_shared<TupleIndexPayload>(/*value_level=*/false);
  p->tuple = std::make_shared<rel::Tuple>(
      "R", std::vector<rel::Value>{rel::Value::Int(1)}, /*pub_time=*/1,
      /*seq=*/1);
  p->level1 = level1;
  chord::AppMessage msg;
  msg.target = HashKey(level1);
  msg.cls = sim::MsgClass::kTupleIndex;
  msg.payload = std::move(p);
  return msg;
}

// --- Rewriter: §4.7 moved identifiers -----------------------------------------

TEST(RewriterForwardIfMoved, ForwardsToHolderAndRedelivers) {
  MockContext ctx{Options{}};
  chord::Node base(nullptr, "base", 0);
  chord::Node holder(nullptr, "holder", 0);
  holder.SetAliveDirect(true);
  ctx.AddNode(&holder);

  const std::string mkey = rewriter::MKey("R+A", 0);
  rewriter::State& state = ctx.StateOf(base).rewriter;
  state.moved_attrs[mkey] = rewriter::State::MovedAttr{1, holder.id()};

  chord::AppMessage msg = AlTupleMessage("R+A");
  EXPECT_TRUE(rewriter::ForwardIfMoved(ctx, base, state, mkey, msg));

  // One typed point-to-point message base -> holder, addressed by the
  // holder's identifier (no raw pointer crosses the hop) and keeping the
  // original class and payload so it re-enters dispatch unchanged.
  ASSERT_EQ(ctx.transmitted.size(), 1u);
  EXPECT_EQ(ctx.transmitted[0].from, &base);
  EXPECT_EQ(ctx.transmitted[0].to, holder.id());
  EXPECT_EQ(ctx.transmitted[0].msg.cls, sim::MsgClass::kTupleIndex);
  EXPECT_EQ(ctx.transmitted[0].msg.payload, msg.payload);
}

TEST(RewriterForwardIfMoved, FallsBackToBaseWhenHolderIsDead) {
  MockContext ctx{Options{}};
  chord::Node base(nullptr, "base", 0);
  chord::Node holder(nullptr, "holder", 0);  // Never joined: not alive.
  ctx.AddNode(&holder);

  const std::string mkey = rewriter::MKey("R+A", 0);
  rewriter::State& state = ctx.StateOf(base).rewriter;
  state.moved_attrs[mkey] = rewriter::State::MovedAttr{1, holder.id()};

  chord::AppMessage msg = AlTupleMessage("R+A");
  EXPECT_FALSE(rewriter::ForwardIfMoved(ctx, base, state, mkey, msg));
  // The stale pointer is dropped; the base node resumes the role.
  EXPECT_TRUE(state.moved_attrs.empty());
  EXPECT_TRUE(ctx.transmitted.empty());
}

TEST(RewriterForwardIfMoved, IgnoresUnmovedKeys) {
  MockContext ctx{Options{}};
  chord::Node base(nullptr, "base", 0);
  rewriter::State& state = ctx.StateOf(base).rewriter;

  chord::AppMessage msg = AlTupleMessage("R+A");
  EXPECT_FALSE(
      rewriter::ForwardIfMoved(ctx, base, state, rewriter::MKey("R+A", 0), msg));
  EXPECT_TRUE(ctx.transmitted.empty());
}

// --- Evaluator: sliding-window expiry ------------------------------------------

TEST(EvaluatorExpiry, DropsOnlyTuplesOlderThanCutoff) {
  evaluator::State state;
  auto stored_at = [](rel::Timestamp pub, uint64_t seq) {
    StoredTuple s;
    s.tuple = std::make_shared<rel::Tuple>(
        "R", std::vector<rel::Value>{rel::Value::Int(7)}, pub, seq);
    return s;
  };
  rel::Catalog catalog;
  ASSERT_TRUE(catalog
                  .Register(rel::RelationSchema(
                      "R", {{"A", rel::ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .Register(rel::RelationSchema(
                      "S", {{"E", rel::ValueType::kInt}}))
                  .ok());
  auto parsed =
      query::ParseQuery("SELECT R.A, S.E FROM R, S WHERE R.A = S.E", catalog);
  ASSERT_TRUE(parsed.ok());
  parsed.value().set_key("q1");
  auto q1 = std::make_shared<const query::ContinuousQuery>(
      std::move(parsed).value());
  // A rewritten query expires with its latest trigger.
  auto rewritten_at = [&](rel::Timestamp pub, uint64_t seq, int64_t bound) {
    RewrittenEntry e;
    e.query = q1;
    e.remaining_side = 1;
    e.required_value = rel::Value::Int(7);
    e.trigger = std::make_shared<const rel::Tuple>(
        "R", std::vector<rel::Value>{rel::Value::Int(bound)}, pub, seq);
    e.rewritten_id =
        RewriteIdOf(*q1, e.remaining_side, *e.trigger, e.required_value);
    return e;
  };
  state.vltt.Insert("R+A", "7", stored_at(5, 1));
  state.vltt.Insert("R+A", "7", stored_at(50, 2));
  state.daiv.Insert("7", DaivKey{"q1", 0},
                    DaivStored{stored_at(/*pub=*/5, /*seq=*/3).tuple, q1});
  state.daiv.Insert("7", DaivKey{"q1", 0},
                    DaivStored{stored_at(/*pub=*/50, /*seq=*/4).tuple, q1});
  state.vlqt.Insert("S+E", "7", rewritten_at(/*pub=*/5, /*seq=*/5, 1));
  state.vlqt.Insert("S+E", "7", rewritten_at(/*pub=*/50, /*seq=*/6, 2));
  // Refreshed past the cutoff: the refresh keeps it.
  state.vlqt.Insert("S+E", "7", rewritten_at(/*pub=*/8, /*seq=*/7, 3));
  state.vlqt.Insert("S+E", "7", rewritten_at(/*pub=*/40, /*seq=*/8, 3));

  EXPECT_EQ(evaluator::ExpireBefore(state, /*cutoff=*/20), 3u);
  EXPECT_EQ(state.vltt.size(), 1u);
  EXPECT_EQ(state.daiv.size(), 1u);
  EXPECT_EQ(state.vlqt.size(), 2u);
  const auto* rewritten = state.vlqt.Find("S+E", "7");
  ASSERT_NE(rewritten, nullptr);
  for (const auto& [id, stored] : *rewritten) {
    EXPECT_GE(stored.trigger->pub_time(), 20u);
  }

  // Survivors are the fresh ones.
  const auto* bucket = state.vltt.Find("R+A", "7");
  ASSERT_NE(bucket, nullptr);
  ASSERT_EQ(bucket->size(), 1u);
  EXPECT_EQ((*bucket)[0].tuple->pub_time(), 50u);

  // Expiring again at the same cutoff is a no-op.
  EXPECT_EQ(evaluator::ExpireBefore(state, /*cutoff=*/20), 0u);
}

// --- Dispatch registry ----------------------------------------------------------

int g_seam_handler_calls = 0;

void CountingHandler(ProtocolContext&, chord::Node&,
                     const chord::AppMessage&) {
  ++g_seam_handler_calls;
}

TEST(MessageDispatch, RejectsUnregisteredTypes) {
  MockContext ctx{Options{}};
  chord::Node node(nullptr, "n", 0);

  MessageDispatcher table;  // Nothing registered.
  chord::AppMessage msg = AlTupleMessage("R+A");
  EXPECT_FALSE(table.Dispatch(ctx, node, msg));

  const NodeMetrics& m = ctx.StateOf(node).metrics;
  EXPECT_EQ(m.msgs_unhandled, 1u);
  for (uint64_t count : m.received_by_type) EXPECT_EQ(count, 0u);
}

TEST(MessageDispatch, IgnoresNullPayloads) {
  MockContext ctx{Options{}};
  chord::Node node(nullptr, "n", 0);

  chord::AppMessage msg;  // No payload at all.
  EXPECT_FALSE(MessageDispatcher::Default().Dispatch(ctx, node, msg));
  EXPECT_EQ(ctx.StateOf(node).metrics.msgs_unhandled, 0u);
}

/// One default-constructed message of every CqMsgType, in enum order.
std::vector<chord::AppMessage> OneMessagePerType() {
  std::vector<std::shared_ptr<CqPayload>> payloads = {
      std::make_shared<QueryIndexPayload>(),
      std::make_shared<TupleIndexPayload>(/*value_level=*/false),
      std::make_shared<TupleIndexPayload>(/*value_level=*/true),
      std::make_shared<JoinPayload>(),
      std::make_shared<DaivJoinPayload>(),
      std::make_shared<NotificationPayload>(),
      std::make_shared<UnsubscribePayload>(),
      std::make_shared<IpUpdatePayload>(),
      std::make_shared<JfrtAckPayload>(),
      std::make_shared<MigrateCmdPayload>(),
      std::make_shared<MwQueryIndexPayload>(),
      std::make_shared<MwJoinPayload>(),
      std::make_shared<OtjScanPayload>(),
      std::make_shared<OtjRehashPayload>(),
      std::make_shared<DeliveryAckPayload>(),
      std::make_shared<NotificationDigestPayload>(),
      std::make_shared<AdaptReplicatePayload>(),
      std::make_shared<AdaptSplitPayload>(),
      std::make_shared<OtjResultPayload>(),
      std::make_shared<MigrateBucketPayload>(),
      std::make_shared<MovedPointerPayload>(),
  };
  std::vector<chord::AppMessage> msgs;
  for (auto& p : payloads) {
    chord::AppMessage msg;
    msg.payload = std::move(p);
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

TEST(MessageDispatch, DuplicateRegistrationIsRejected) {
  MessageDispatcher table;
  EXPECT_TRUE(table.Register(CqMsgType::kTupleAl, CountingHandler));
  // Second registration for the same type is refused and the original
  // handler keeps routing.
  EXPECT_FALSE(table.Register(CqMsgType::kTupleAl, nullptr));
  EXPECT_FALSE(table.Register(CqMsgType::kTupleAl, CountingHandler));

  MockContext ctx{Options{}};
  chord::Node node(nullptr, "n", 0);
  g_seam_handler_calls = 0;
  chord::AppMessage msg = AlTupleMessage("R+A");
  EXPECT_TRUE(table.Dispatch(ctx, node, msg));
  EXPECT_EQ(g_seam_handler_calls, 1);
}

TEST(MessageDispatch, DefaultTableCoversEveryEnumerator) {
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    EXPECT_TRUE(
        MessageDispatcher::Default().HasHandler(static_cast<CqMsgType>(i)))
        << "no default handler for CqMsgType " << i;
  }
}

TEST(MessageDispatch, CountsReceivedByTypeForEveryEnumerator) {
  MockContext ctx{Options{}};
  chord::Node node(nullptr, "n", 0);

  MessageDispatcher table;
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    EXPECT_TRUE(table.Register(static_cast<CqMsgType>(i), CountingHandler));
  }

  g_seam_handler_calls = 0;
  std::vector<chord::AppMessage> msgs = OneMessagePerType();
  ASSERT_EQ(msgs.size(), kCqMsgTypeCount);
  for (const chord::AppMessage& msg : msgs) {
    EXPECT_TRUE(table.Dispatch(ctx, node, msg));
  }
  EXPECT_EQ(g_seam_handler_calls, static_cast<int>(kCqMsgTypeCount));

  const NodeMetrics& m = ctx.StateOf(node).metrics;
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    EXPECT_EQ(m.received_by_type[i], 1u) << "type " << i;
  }
  EXPECT_EQ(m.msgs_unhandled, 0u);
}

TEST(MessageDispatch, CountsUnhandledForEveryEnumerator) {
  MockContext ctx{Options{}};
  chord::Node node(nullptr, "n", 0);

  MessageDispatcher empty;
  std::vector<chord::AppMessage> msgs = OneMessagePerType();
  for (const chord::AppMessage& msg : msgs) {
    EXPECT_FALSE(empty.Dispatch(ctx, node, msg));
  }

  const NodeMetrics& m = ctx.StateOf(node).metrics;
  EXPECT_EQ(m.msgs_unhandled, kCqMsgTypeCount);
  for (uint64_t count : m.received_by_type) EXPECT_EQ(count, 0u);
}

TEST(MessageDispatch, RoutesAndCountsRegisteredTypes) {
  MockContext ctx{Options{}};
  chord::Node node(nullptr, "n", 0);

  MessageDispatcher table;
  table.Register(CqMsgType::kTupleAl, CountingHandler);

  g_seam_handler_calls = 0;
  chord::AppMessage msg = AlTupleMessage("R+A");
  EXPECT_TRUE(table.Dispatch(ctx, node, msg));
  EXPECT_TRUE(table.Dispatch(ctx, node, msg));
  EXPECT_EQ(g_seam_handler_calls, 2);

  const NodeMetrics& m = ctx.StateOf(node).metrics;
  EXPECT_EQ(
      m.received_by_type[static_cast<size_t>(CqMsgType::kTupleAl)], 2u);
  EXPECT_EQ(m.msgs_unhandled, 0u);
}

// Every NodeMetrics slot goes through the table loops: each row names a
// distinct field, and folding, differencing and resetting touch each slot.
TEST(NodeMetricsTable, FoldDiffAndResetCoverEverySlot) {
  NodeMetrics m;
  uint64_t next = 1;
  for (const auto& f : kNodeMetricsFields) m.*f.member = next++;
  for (uint64_t& n : m.received_by_type) n = next++;
  std::set<uint64_t> distinct;
  for (const auto& f : kNodeMetricsFields) distinct.insert(m.*f.member);
  for (uint64_t n : m.received_by_type) distinct.insert(n);
  EXPECT_EQ(distinct.size(), kNodeMetricsSlots);

  NodeMetrics sum;
  sum.Accumulate(m);
  EXPECT_EQ(sum, m);
  sum.Accumulate(m);
  for (const auto& f : kNodeMetricsFields) {
    EXPECT_EQ(sum.*f.member, 2 * (m.*f.member)) << f.name;
  }
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    EXPECT_EQ(sum.received_by_type[i], 2 * m.received_by_type[i]) << i;
  }
  EXPECT_EQ(sum.Since(m), m);
  EXPECT_EQ(sum.Since(sum), NodeMetrics());
  EXPECT_NE(sum.Report(), m.Report());
  EXPECT_EQ(sum.Since(m).Report(), m.Report());
  sum.Reset();
  EXPECT_EQ(sum, NodeMetrics());
}

}  // namespace
}  // namespace contjoin::core
