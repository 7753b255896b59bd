// Every overlay hop crosses the transport seam as a typed frame that
// survives the wire codec. A loopback Transport encodes each frame, decodes
// it again and hands the decoded copy to the in-simulator transport, so a
// run through it sees exactly what a socket peer would. With the join
// fingers routing table, reliable delivery, churn (which leaves stale table
// entries behind), a §4.7 identifier move and a one-time join all active,
// the notification content must match the oracle, every frame must decode,
// the network's hop count must equal the frames the transport shipped, and
// the byte meter must equal the bytes the transport encoded.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chord/network.h"
#include "chord/node.h"
#include "chord/transport.h"
#include "core/codec.h"
#include "core/engine.h"
#include "faults/churn.h"
#include "query/parser.h"
#include "reference/reference_engine.h"
#include "workload/workload.h"

namespace contjoin::core {
namespace {

/// Encode -> decode -> in-simulator delivery of every hop. Handlers on any
/// shard may send, so the counters are atomic.
class CodecLoopbackTransport : public chord::Transport {
 public:
  CodecLoopbackTransport(chord::Network* network, const rel::Catalog* catalog)
      : network_(network), catalog_(catalog) {}

  void SendHop(chord::Node* from, const chord::NodeId& to,
               chord::HopFrame frame) override {
    frames_.fetch_add(1, std::memory_order_relaxed);
    frames_by_class_[static_cast<size_t>(frame.cls)].fetch_add(
        1, std::memory_order_relaxed);
    if (IsStaleJoinDelivery(to, frame)) {
      stale_joins_.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<uint8_t> bytes = EncodeHopFrame(frame);
    bytes_by_class_[static_cast<size_t>(frame.cls)].fetch_add(
        bytes.size(), std::memory_order_relaxed);
    chord::HopFrame decoded;
    if (bytes.empty() ||
        !DecodeHopFrame(bytes.data(), bytes.size(), *catalog_, &decoded)) {
      undecodable_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    network_->sim_transport()->SendHop(from, to, std::move(decoded));
  }

  uint64_t frames() const { return frames_.load(); }
  uint64_t frames(sim::MsgClass cls) const {
    return frames_by_class_[static_cast<size_t>(cls)].load();
  }
  uint64_t bytes(sim::MsgClass cls) const {
    return bytes_by_class_[static_cast<size_t>(cls)].load();
  }
  uint64_t undecodable() const { return undecodable_.load(); }
  uint64_t stale_joins() const { return stale_joins_.load(); }

 private:
  /// A join sent straight to a node that no longer owns its target: a
  /// stale join-fingers entry, which the receiver must re-route.
  bool IsStaleJoinDelivery(const chord::NodeId& to,
                           const chord::HopFrame& frame) const {
    if (frame.kind != chord::HopFrame::Kind::kDeliver) return false;
    const auto* p =
        dynamic_cast<const CqPayload*>(frame.msgs[0].payload.get());
    if (p == nullptr ||
        (p->type != CqMsgType::kJoin && p->type != CqMsgType::kDaivJoin)) {
      return false;
    }
    const chord::Node* dest = network_->FindById(to);
    return dest != nullptr && !dest->IsResponsibleFor(frame.msgs[0].target);
  }

  chord::Network* network_;
  const rel::Catalog* catalog_;
  std::atomic<uint64_t> frames_{0};
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(sim::MsgClass::kClassCount)>
      frames_by_class_{};
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(sim::MsgClass::kClassCount)>
      bytes_by_class_{};
  std::atomic<uint64_t> undecodable_{0};
  std::atomic<uint64_t> stale_joins_{0};
};

/// Content of a one-time-join row without its per-execution query key.
std::set<std::string> RowSet(const std::vector<Notification>& rows) {
  std::set<std::string> out;
  for (const Notification& n : rows) {
    std::string key;
    for (const rel::Value& v : n.row) key += v.ToKeyString() + '\x1f';
    out.insert(std::move(key));
  }
  return out;
}

constexpr size_t kNumNodes = 24;

class CodecLoopbackTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CodecLoopbackTest, EveryHopCrossesTheCodecAndStaysExact) {
  Options opts;
  opts.num_nodes = kNumNodes;
  opts.algorithm = GetParam();
  opts.seed = 4;
  opts.use_jfrt = true;
  opts.reliability.enabled = true;
  opts.count_wire_bytes = true;
  ContinuousQueryNetwork net(opts);
  CodecLoopbackTransport loopback(net.network(), net.catalog());
  net.network()->set_transport(&loopback);

  workload::WorkloadOptions wopts;
  wopts.seed = 4;
  wopts.attrs_per_relation = 3;
  wopts.domain = 12;
  wopts.num_relation_pairs = 1;  // Relations R(a0..a2) and S(b0..b2).
  workload::WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.RegisterSchemas(net.catalog()).ok());

  ref::ReferenceEngine oracle;
  Rng placement(11);
  uint64_t ref_seq = 0;
  std::vector<rel::TuplePtr> published;
  auto alive_node = [&]() {
    size_t node = placement.NextBelow(kNumNodes);
    while (!net.node(node)->alive()) node = (node + 1) % net.num_nodes();
    return node;
  };
  auto insert_one = [&]() {
    auto [relation, values] = gen.NextTuple();
    std::vector<rel::Value> copy = values;
    CJ_CHECK(net.InsertTuple(alive_node(), relation, std::move(values)).ok());
    published.push_back(std::make_shared<const rel::Tuple>(
        relation, std::move(copy), net.now(), ref_seq++));
    oracle.InsertTuple(published.back());
  };

  std::string otj_sql;
  for (size_t i = 0; i < 12; ++i) {
    std::string sql = gen.NextQuerySql();
    auto key = net.SubmitQuery(alive_node(), sql);
    ASSERT_TRUE(key.ok()) << sql << ": " << key.status().ToString();
    auto parsed = query::ParseQuery(sql, *net.catalog());
    ASSERT_TRUE(parsed.ok());
    parsed.value().set_key(key.value());
    parsed.value().set_insertion_time(net.now());
    oracle.AddQuery(std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value()));
    if (otj_sql.empty()) otj_sql = sql;
  }

  // §4.7: move every attribute-level key of the first relation, the first
  // one twice (the second move repoints its base with a typed message).
  for (const char* attr : {"a0", "a1", "a2", "a0"}) {
    ASSERT_TRUE(net.MigrateAttribute(alive_node(), "R", attr).ok());
  }

  // Churn while tuples flow: crashes wipe state (repaired from the origin
  // logs), joins displace responsibility and leave stale JFRT entries.
  rel::Timestamp before_first = net.now();
  insert_one();
  sim::SimTime dt = std::max<rel::Timestamp>(1, net.now() - before_first);
  net.InstallChurnScript(faults::ChurnScript::Alternating(
      net.now() + 8 * dt, 8 * dt, /*crashes=*/2, /*joins=*/3));
  for (int i = 0; i < 300 && (i < 60 || net.PendingChurnEvents() > 0); ++i) {
    insert_one();
  }
  ASSERT_EQ(net.PendingChurnEvents(), 0u);

  // From here on no probe or repair hop is accounted inline, so every hop
  // the network counts is a frame the transport shipped.
  const uint64_t hops_before = net.stats().total_hops();
  const uint64_t frames_before = loopback.frames();
  for (int i = 0; i < 30; ++i) insert_one();
  const bool stores_tuples =
      opts.algorithm == Algorithm::kSai || opts.algorithm == Algorithm::kDaiQ;
  if (stores_tuples) {
    auto rows = net.OneTimeJoin(alive_node(), otj_sql);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ref::ReferenceEngine snapshot;
    auto parsed = query::ParseQuery(otj_sql, *net.catalog());
    ASSERT_TRUE(parsed.ok());
    parsed.value().set_key("otj");
    snapshot.AddQuery(std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value()));
    for (const rel::TuplePtr& t : published) snapshot.InsertTuple(t);
    EXPECT_EQ(RowSet(rows.value()), RowSet(snapshot.notifications()));
    EXPECT_FALSE(rows->empty()) << "vacuous one-time join";
  } else {
    auto refused = net.OneTimeJoin(alive_node(), otj_sql);
    EXPECT_TRUE(refused.status().IsUnsupported());
  }
  EXPECT_EQ(net.stats().total_hops() - hops_before,
            loopback.frames() - frames_before);

  for (size_t i = 0; i < net.num_nodes(); ++i) {
    if (!net.node(i)->alive()) net.ReconnectNode(i, /*new_ip=*/false);
  }
  std::vector<Notification> delivered;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (Notification& n : net.TakeNotifications(i)) {
      delivered.push_back(std::move(n));
    }
  }
  EXPECT_EQ(ref::ReferenceEngine::ContentSet(delivered), oracle.ContentSet());
  EXPECT_FALSE(oracle.ContentSet().empty()) << "vacuous scenario";

  // Over the whole run, every class without inline probe or repair
  // accounting (those are control and maintenance hops) is frames only.
  for (sim::MsgClass cls :
       {sim::MsgClass::kQueryIndex, sim::MsgClass::kTupleIndex,
        sim::MsgClass::kRewrittenQuery, sim::MsgClass::kNotification,
        sim::MsgClass::kOneTime}) {
    EXPECT_EQ(net.stats().hops(cls), loopback.frames(cls))
        << sim::MsgClassName(cls);
  }
  // Every hop leaves through the transport, so the meter, which sizes
  // frames without encoding them, matches the encoder in every class.
  for (int c = 0; c < static_cast<int>(sim::MsgClass::kClassCount); ++c) {
    const auto cls = static_cast<sim::MsgClass>(c);
    EXPECT_EQ(net.stats().bytes(cls), loopback.bytes(cls))
        << sim::MsgClassName(cls);
  }
  EXPECT_GT(net.stats().total_bytes(), 0u);
  EXPECT_EQ(loopback.undecodable(), 0u);
  EXPECT_GT(loopback.stale_joins(), 0u) << "no stale JFRT entry was hit";
  const NodeMetrics totals = net.TotalMetrics();
  auto received = [&totals](CqMsgType type) {
    return totals.received_by_type[static_cast<size_t>(type)];
  };
  EXPECT_GE(received(CqMsgType::kMigrateBucket), 2u);
  EXPECT_GE(received(CqMsgType::kMovedPointer), 1u);
  if (stores_tuples) {
    EXPECT_GE(received(CqMsgType::kOtjResult), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CodecLoopbackTest,
                         ::testing::Values(Algorithm::kSai, Algorithm::kDaiQ,
                                           Algorithm::kDaiT,
                                           Algorithm::kDaiV),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           name.erase(std::remove(name.begin(), name.end(),
                                                  '-'),
                                      name.end());
                           return name;
                         });

}  // namespace
}  // namespace contjoin::core
