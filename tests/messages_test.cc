// Exhaustiveness of the CqMsgType enum ↔ payload-struct mapping: every
// enumerator has a payload struct whose constructor tags it, and the
// count constant tracks the enum. tools/check/contjoin_check enforces the
// same invariant textually; this test enforces it at the type level, so a
// new message type cannot land without both a payload and (via
// protocol_seam_test) a dispatch handler.

#include "core/messages.h"

#include <bitset>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/logging.h"
#include "common/rng.h"
#include "common/wire.h"
#include "core/codec.h"
#include "query/mw_query.h"
#include "query/parser.h"
#include "relational/schema.h"

namespace contjoin::core {
namespace {

static_assert(kCqMsgTypeCount == 18,
              "CqMsgType changed: update the payload coverage below, the "
              "dispatch registry, and this count");

static_assert(static_cast<size_t>(CqMsgType::kAdaptSplit) + 1 ==
                  kCqMsgTypeCount,
              "kCqMsgTypeCount must be derived from the last enumerator");

// Payload structs default to their own tag and stay cheap to slice-copy
// through the dispatch layer.
static_assert(std::is_base_of_v<chord::Payload, CqPayload>);

TEST(MessagesTest, EveryEnumeratorHasExactlyOnePayloadTag) {
  std::bitset<kCqMsgTypeCount> tagged;
  auto tag = [&tagged](CqMsgType t) {
    size_t index = static_cast<size_t>(t);
    ASSERT_LT(index, kCqMsgTypeCount);
    EXPECT_FALSE(tagged.test(index))
        << "two payload structs tag enumerator " << index;
    tagged.set(index);
  };

  tag(QueryIndexPayload().type);
  tag(TupleIndexPayload(/*value_level=*/false).type);  // kTupleAl
  tag(TupleIndexPayload(/*value_level=*/true).type);   // kTupleVl
  tag(JoinPayload().type);
  tag(DaivJoinPayload().type);
  tag(NotificationPayload().type);
  tag(UnsubscribePayload().type);
  tag(IpUpdatePayload().type);
  tag(JfrtAckPayload().type);
  tag(MigrateCmdPayload().type);
  tag(MwQueryIndexPayload().type);
  tag(MwJoinPayload().type);
  tag(OtjScanPayload().type);
  tag(OtjRehashPayload().type);
  tag(DeliveryAckPayload().type);
  tag(NotificationDigestPayload().type);
  tag(AdaptReplicatePayload().type);
  tag(AdaptSplitPayload().type);

  EXPECT_TRUE(tagged.all()) << "untagged enumerators: " << tagged.to_string();
}

TEST(MessagesTest, PayloadTagsMatchTheIntendedEnumerator) {
  EXPECT_EQ(QueryIndexPayload().type, CqMsgType::kQueryIndex);
  EXPECT_EQ(TupleIndexPayload(false).type, CqMsgType::kTupleAl);
  EXPECT_EQ(TupleIndexPayload(true).type, CqMsgType::kTupleVl);
  EXPECT_EQ(JoinPayload().type, CqMsgType::kJoin);
  EXPECT_EQ(DaivJoinPayload().type, CqMsgType::kDaivJoin);
  EXPECT_EQ(NotificationPayload().type, CqMsgType::kNotification);
  EXPECT_EQ(UnsubscribePayload().type, CqMsgType::kUnsubscribe);
  EXPECT_EQ(IpUpdatePayload().type, CqMsgType::kIpUpdate);
  EXPECT_EQ(JfrtAckPayload().type, CqMsgType::kJfrtAck);
  EXPECT_EQ(MigrateCmdPayload().type, CqMsgType::kMigrateCmd);
  EXPECT_EQ(MwQueryIndexPayload().type, CqMsgType::kMwQueryIndex);
  EXPECT_EQ(MwJoinPayload().type, CqMsgType::kMwJoin);
  EXPECT_EQ(OtjScanPayload().type, CqMsgType::kOtjScan);
  EXPECT_EQ(OtjRehashPayload().type, CqMsgType::kOtjRehash);
  EXPECT_EQ(DeliveryAckPayload().type, CqMsgType::kDeliveryAck);
  EXPECT_EQ(NotificationDigestPayload().type,
            CqMsgType::kNotificationDigest);
  EXPECT_EQ(AdaptReplicatePayload().type, CqMsgType::kAdaptReplicate);
  EXPECT_EQ(AdaptSplitPayload().type, CqMsgType::kAdaptSplit);
}

// --- Wire-codec round trips ---------------------------------------------------
//
// Property: every payload that can travel survives Encode → Decode → Encode
// with a byte-identical second encoding. The fields are drawn from a seeded
// Rng (several seeds per type) and the edge cases that have bitten binary
// formats before are pinned explicitly: empty strings, null values, the
// zero and maximum 160-bit identifiers, and extreme integers/doubles.

class CodecRoundTripTest : public ::testing::Test {
 protected:
  CodecRoundTripTest() {
    for (const char* name : {"R", "S", "T"}) {
      CJ_CHECK(catalog_
                   .Register(rel::RelationSchema(
                       name, {{"a", rel::ValueType::kInt},
                              {"b", rel::ValueType::kInt},
                              {"c", rel::ValueType::kInt}}))
                   .ok());
    }
    CJ_CHECK(catalog_
                 .Register(rel::RelationSchema(
                     "Doc", {{"id", rel::ValueType::kInt},
                             {"title", rel::ValueType::kString}}))
                 .ok());
    CJ_CHECK(catalog_
                 .Register(rel::RelationSchema(
                     "Auth", {{"name", rel::ValueType::kString},
                              {"id", rel::ValueType::kInt}}))
                 .ok());
  }

  // -- Random field generators -------------------------------------------------

  static std::string RandomString(Rng& rng) {
    size_t len = rng.NextBelow(12);  // 0 is reachable: empty strings count.
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    return s;
  }

  static rel::Value RandomValue(Rng& rng) {
    switch (rng.NextBelow(6)) {
      case 0:
        return rel::Value::Null();
      case 1:
        return rel::Value::Int(static_cast<int64_t>(rng.Next()));
      case 2:
        return rel::Value::Int(std::numeric_limits<int64_t>::min());
      case 3:
        return rel::Value::Double(rng.NextDouble() * 2e9 - 1e9);
      case 4:
        return rel::Value::Str("");
      default:
        return rel::Value::Str(RandomString(rng));
    }
  }

  static Uint160 RandomId(Rng& rng) {
    switch (rng.NextBelow(4)) {
      case 0:
        return Uint160();  // Zero (the "no node" sentinel).
      case 1:
        return Uint160::Max();
      default: {
        Sha1Digest d;
        for (uint8_t& b : d) b = static_cast<uint8_t>(rng.Next());
        return Uint160::FromDigest(d);
      }
    }
  }

  static RowTemplate RandomRow(Rng& rng) {
    RowTemplate row(1 + rng.NextBelow(4));
    for (auto& slot : row) {
      if (rng.NextBelow(3) == 0) continue;  // Leave unbound.
      slot = RandomValue(rng);
    }
    return row;
  }

  static rel::TuplePtr RandomTuple(Rng& rng) {
    if (rng.NextBelow(2) == 0) {
      return std::make_shared<const rel::Tuple>(
          "R",
          std::vector<rel::Value>{
              rel::Value::Int(static_cast<int64_t>(rng.Next())),
              rel::Value::Int(rng.NextInRange(-5, 5)),
              rel::Value::Int(std::numeric_limits<int64_t>::max())},
          rng.Next(), rng.Next());
    }
    return std::make_shared<const rel::Tuple>(
        "Doc",
        std::vector<rel::Value>{
            rel::Value::Int(static_cast<int64_t>(rng.Next())),
            rel::Value::Str(RandomString(rng))},
        rng.Next(), rng.Next());
  }

  query::QueryPtr MakeQuery(Rng& rng, const std::string& sql) {
    StatusOr<query::ContinuousQuery> parsed = query::ParseQuery(sql, catalog_);
    CJ_CHECK(parsed.ok());
    query::ContinuousQuery q = std::move(parsed).value();
    q.set_key(RandomString(rng));
    q.set_subscriber_key(RandomString(rng));
    q.set_subscriber_ip(rng.Next());
    q.set_insertion_time(rng.Next());
    return std::make_shared<const query::ContinuousQuery>(std::move(q));
  }

  query::QueryPtr RandomQuery(Rng& rng) {
    return MakeQuery(rng, rng.NextBelow(2) == 0
                              ? "SELECT R.a, S.b FROM R, S WHERE R.b = S.a"
                              : "SELECT Doc.id, Auth.id FROM Doc, Auth "
                                "WHERE Doc.title = Auth.name");
  }

  query::MwQueryPtr RandomMwQuery(Rng& rng) {
    StatusOr<query::MwQuery> parsed = query::ParseMwQuery(
        "SELECT R.a, S.b, T.c FROM R, S, T WHERE R.a = S.a AND S.b = T.b",
        catalog_);
    CJ_CHECK(parsed.ok());
    query::MwQuery q = std::move(parsed).value();
    q.set_key(RandomString(rng));
    q.set_subscriber_key(RandomString(rng));
    q.set_subscriber_ip(rng.Next());
    q.set_insertion_time(rng.Next());
    return std::make_shared<const query::MwQuery>(std::move(q));
  }

  // -- The property ------------------------------------------------------------

  void ExpectRoundTrip(const CqPayload& payload) {
    const PayloadCodec& codec = PayloadCodec::Default();
    wire::Writer first;
    ASSERT_TRUE(codec.Encode(payload, first))
        << "type " << static_cast<int>(payload.type) << " did not encode";
    wire::Reader r(first.bytes());
    std::shared_ptr<const CqPayload> decoded = codec.Decode(r, catalog_);
    ASSERT_NE(decoded, nullptr)
        << "type " << static_cast<int>(payload.type) << " did not decode";
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded->type, payload.type);
    wire::Writer second;
    ASSERT_TRUE(codec.Encode(*decoded, second));
    EXPECT_EQ(first.bytes(), second.bytes())
        << "type " << static_cast<int>(payload.type)
        << " re-encoded differently";
  }

  rel::Catalog catalog_;
};

TEST_F(CodecRoundTripTest, EveryMsgTypeHasARegisteredCodec) {
  for (size_t i = 0; i < kCqMsgTypeCount; ++i) {
    EXPECT_TRUE(PayloadCodec::Default().HasCodec(static_cast<CqMsgType>(i)))
        << "no codec registered for enumerator " << i;
  }
}

TEST_F(CodecRoundTripTest, AllPayloadTypesSurviveSeededRoundTrips) {
  for (uint64_t seed : {1u, 7u, 424242u}) {
    Rng rng(seed);

    {
      QueryIndexPayload p;
      p.query = RandomQuery(rng);
      p.index_side = static_cast<int>(rng.NextBelow(2));
      p.level1 = RandomString(rng);
      p.replica = static_cast<int>(rng.NextBelow(4));
      ExpectRoundTrip(p);
    }
    {
      TupleIndexPayload p(/*value_level=*/false);
      p.tuple = RandomTuple(rng);
      p.attr_index = rng.NextBelow(3);
      p.level1 = RandomString(rng);
      p.replica = static_cast<int>(rng.NextBelow(4));
      ExpectRoundTrip(p);
    }
    {
      TupleIndexPayload p(/*value_level=*/true);
      p.tuple = RandomTuple(rng);
      p.attr_index = rng.NextBelow(3);
      p.level1 = RandomString(rng);
      p.value_key = RandomString(rng);
      ExpectRoundTrip(p);
    }
    {
      JoinPayload p;
      p.level1 = RandomString(rng);
      p.value_key = RandomString(rng);
      for (size_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
        RewrittenEntry e;
        e.query = RandomQuery(rng);
        e.remaining_side = static_cast<int>(rng.NextBelow(2));
        e.rewritten_key = RandomString(rng);
        e.required_value = RandomValue(rng);
        e.row = RandomRow(rng);
        e.trigger_pub = rng.Next();
        e.trigger_seq = rng.Next();
        p.entries.push_back(std::move(e));
      }
      p.rewriter = RandomId(rng);
      p.vindex = RandomId(rng);
      p.want_ack = rng.NextBelow(2) == 0;
      p.known_split = 1 << rng.NextBelow(4);
      p.split_version = rng.NextBelow(1000);
      ExpectRoundTrip(p);
    }
    {
      DaivJoinPayload p;
      p.value_key = RandomString(rng);
      for (size_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
        DaivEntry e;
        e.query = RandomQuery(rng);
        e.trigger_side = static_cast<int>(rng.NextBelow(2));
        e.row = RandomRow(rng);
        e.trigger_pub = rng.Next();
        e.trigger_seq = rng.Next();
        p.entries.push_back(std::move(e));
      }
      p.rewriter = RandomId(rng);
      p.vindex = RandomId(rng);
      p.want_ack = rng.NextBelow(2) == 0;
      p.known_split = 1 << rng.NextBelow(4);
      p.split_version = rng.NextBelow(1000);
      ExpectRoundTrip(p);
    }
    {
      NotificationPayload p;
      p.notification.query_key = RandomString(rng);
      for (size_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
        p.notification.row.push_back(RandomValue(rng));
      }
      p.notification.earlier_pub = rng.Next();
      p.notification.later_pub = rng.Next();
      p.notification.created_at = rng.Next();
      p.subscriber_key = RandomString(rng);
      p.evaluator = RandomId(rng);
      ExpectRoundTrip(p);
    }
    {
      UnsubscribePayload p;
      p.query_key = RandomString(rng);
      p.at_evaluator = rng.NextBelow(2) == 0;
      p.level1 = RandomString(rng);
      p.replica = static_cast<int>(rng.NextBelow(4));
      ExpectRoundTrip(p);
    }
    {
      IpUpdatePayload p;
      p.subscriber_key = RandomString(rng);
      p.node = RandomId(rng);
      p.ip = rng.Next();
      ExpectRoundTrip(p);
    }
    {
      JfrtAckPayload p;
      p.vindex = RandomId(rng);
      p.evaluator = RandomId(rng);
      ExpectRoundTrip(p);
    }
    {
      MigrateCmdPayload p;
      p.level1 = RandomString(rng);
      p.replica = static_cast<int>(rng.NextBelow(4));
      p.base = RandomId(rng);
      ExpectRoundTrip(p);
    }
    {
      MwQueryIndexPayload p;
      p.query = RandomMwQuery(rng);
      p.level1 = RandomString(rng);
      ExpectRoundTrip(p);
    }
    {
      MwJoinPayload p;
      p.level1 = RandomString(rng);
      p.value_key = RandomString(rng);
      for (size_t i = 0, n = 1 + rng.NextBelow(2); i < n; ++i) {
        MwPartial e;
        e.query = RandomMwQuery(rng);
        e.bound_mask = static_cast<uint32_t>(rng.Next());
        e.row = RandomRow(rng);
        e.pending[static_cast<int>(rng.NextBelow(3))] = RandomValue(rng);
        e.pending[-1] = rel::Value::Str("");
        e.target_condition = static_cast<int>(rng.NextBelow(3)) - 1;
        e.min_pub = rng.Next();
        e.max_pub = rng.Next();
        e.last_seq = rng.Next();
        e.partial_key = RandomString(rng);
        p.entries.push_back(std::move(e));
      }
      ExpectRoundTrip(p);
    }
    {
      OtjScanPayload p;
      p.query = RandomQuery(rng);
      p.otj_id = rng.Next();
      p.issuer = RandomId(rng);
      ExpectRoundTrip(p);
    }
    {
      OtjRehashPayload p;
      p.query = RandomQuery(rng);
      p.otj_id = rng.Next();
      p.issuer = RandomId(rng);
      p.value_key = RandomString(rng);
      for (size_t i = 0, n = rng.NextBelow(3); i < n; ++i) {
        OtjTuple t;
        t.side = static_cast<int>(rng.NextBelow(2));
        t.row = RandomRow(rng);
        t.pub_time = rng.Next();
        t.seq = rng.Next();
        p.entries.push_back(std::move(t));
      }
      ExpectRoundTrip(p);
    }
    {
      DeliveryAckPayload p;
      p.msg_id = rng.Next();
      ExpectRoundTrip(p);
    }
    {
      NotificationDigestPayload p;
      p.subscriber_key = RandomString(rng);
      p.evaluator = RandomId(rng);
      for (size_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
        Notification note;
        note.query_key = RandomString(rng);
        for (size_t j = 0, m = rng.NextBelow(4); j < m; ++j) {
          note.row.push_back(RandomValue(rng));
        }
        note.earlier_pub = rng.Next();
        note.later_pub = rng.Next();
        note.created_at = rng.Next();
        p.notifications.push_back(std::move(note));
      }
      ExpectRoundTrip(p);
    }
    {
      AdaptReplicatePayload p;
      p.level1 = RandomString(rng);
      p.replicas = 1 + static_cast<int>(rng.NextBelow(4));
      p.version = rng.Next();
      ExpectRoundTrip(p);
    }
    {
      AdaptSplitPayload p;
      p.level1 = RandomString(rng);
      p.value = RandomString(rng);
      p.split = 1 << rng.NextBelow(4);
      p.version = rng.Next();
      ExpectRoundTrip(p);
    }
  }
}

TEST_F(CodecRoundTripTest, EmptyStringsAndSentinelIdsSurvive) {
  Rng rng(99);
  JoinPayload p;
  p.level1 = "";
  p.value_key = "";
  RewrittenEntry e;
  e.query = RandomQuery(rng);
  e.remaining_side = 1;
  e.rewritten_key = "";
  e.required_value = rel::Value::Str("");
  e.row = {std::nullopt, rel::Value::Str(""), rel::Value::Null()};
  p.entries.push_back(std::move(e));
  p.rewriter = Uint160();       // "no rewriter" sentinel.
  p.vindex = Uint160::Max();    // Largest representable identifier.
  ExpectRoundTrip(p);

  NotificationPayload n;
  n.notification.query_key = "";
  n.subscriber_key = "";
  n.evaluator = Uint160();
  ExpectRoundTrip(n);
}

// Notifications are routed to HashKey(subscriber_key). The query caches
// that identifier, so it must hold wherever a query comes from: the parser
// (empty key), the engine stamping the key on, and a decoded wire frame
// (the TCP ring rebuilds every query it receives).
TEST_F(CodecRoundTripTest, SubscriberIdIsCachedThroughParseSetAndDecode) {
  query::ContinuousQuery q =
      query::ParseQuery("SELECT R.a, S.b FROM R, S WHERE R.b = S.a", catalog_)
          .value();
  EXPECT_EQ(q.subscriber_id(), HashKey(""));
  q.set_subscriber_key("node-17");
  EXPECT_EQ(q.subscriber_id(), HashKey("node-17"));

  query::MwQuery mw =
      query::ParseMwQuery(
          "SELECT R.a, S.b, T.c FROM R, S, T WHERE R.a = S.a AND S.b = T.b",
          catalog_)
          .value();
  EXPECT_EQ(mw.subscriber_id(), HashKey(""));
  mw.set_subscriber_key("node-4");
  EXPECT_EQ(mw.subscriber_id(), HashKey("node-4"));

  const PayloadCodec& codec = PayloadCodec::Default();
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    QueryIndexPayload p;
    p.query = RandomQuery(rng);
    p.level1 = RandomString(rng);
    wire::Writer w;
    ASSERT_TRUE(codec.Encode(p, w));
    wire::Reader r(w.bytes());
    auto decoded = std::static_pointer_cast<const QueryIndexPayload>(
        codec.Decode(r, catalog_));
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->query->subscriber_key(), p.query->subscriber_key());
    EXPECT_EQ(decoded->query->subscriber_id(),
              HashKey(p.query->subscriber_key()));

    MwQueryIndexPayload mp;
    mp.query = RandomMwQuery(rng);
    mp.level1 = RandomString(rng);
    wire::Writer mw_w;
    ASSERT_TRUE(codec.Encode(mp, mw_w));
    wire::Reader mw_r(mw_w.bytes());
    auto mw_decoded = std::static_pointer_cast<const MwQueryIndexPayload>(
        codec.Decode(mw_r, catalog_));
    ASSERT_NE(mw_decoded, nullptr);
    EXPECT_EQ(mw_decoded->query->subscriber_id(),
              HashKey(mp.query->subscriber_key()));
  }
}

TEST_F(CodecRoundTripTest, AppMessageEnvelopeRoundTrips) {
  Rng rng(5);
  chord::AppMessage msg;
  msg.target = RandomId(rng);
  msg.cls = sim::MsgClass::kNotification;
  auto ack = std::make_shared<DeliveryAckPayload>();
  ack->msg_id = 0xdeadbeefcafe1234ull;
  msg.payload = ack;
  msg.reliable_id = rng.Next() | 1;
  msg.reliable_origin = RandomId(rng);

  wire::Writer first;
  ASSERT_TRUE(EncodeAppMessage(msg, first));
  wire::Reader r(first.bytes());
  chord::AppMessage out;
  ASSERT_TRUE(DecodeAppMessage(r, catalog_, &out));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out.target, msg.target);
  EXPECT_EQ(out.cls, msg.cls);
  EXPECT_EQ(out.kind, msg.kind);
  EXPECT_EQ(out.reliable_id, msg.reliable_id);
  EXPECT_EQ(out.reliable_origin, msg.reliable_origin);
  wire::Writer second;
  ASSERT_TRUE(EncodeAppMessage(out, second));
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST_F(CodecRoundTripTest, DhtStoreOfACqPayloadRoundTrips) {
  Rng rng(13);
  auto store = std::make_shared<chord::DhtStorePayload>();
  store->key = RandomId(rng);
  auto item = std::make_shared<TupleIndexPayload>(/*value_level=*/true);
  item->tuple = RandomTuple(rng);
  item->level1 = "R+a";
  item->value_key = "7";
  store->item = item;

  chord::AppMessage msg;
  msg.target = store->key;
  msg.kind = chord::MsgKind::kDhtStore;
  msg.payload = store;

  wire::Writer first;
  ASSERT_TRUE(EncodeAppMessage(msg, first));
  wire::Reader r(first.bytes());
  chord::AppMessage out;
  ASSERT_TRUE(DecodeAppMessage(r, catalog_, &out));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out.kind, chord::MsgKind::kDhtStore);
  wire::Writer second;
  ASSERT_TRUE(EncodeAppMessage(out, second));
  EXPECT_EQ(first.bytes(), second.bytes());
}

TEST_F(CodecRoundTripTest, DhtFetchIsUnencodableByDesign) {
  auto fetch = std::make_shared<chord::DhtFetchPayload>();
  chord::AppMessage msg;
  msg.kind = chord::MsgKind::kDhtFetch;
  msg.payload = fetch;

  wire::Writer w;
  EXPECT_FALSE(EncodeAppMessage(msg, w));
  EXPECT_EQ(w.size(), 0u) << "failed encode must leave the buffer untouched";

  chord::HopFrame frame;
  frame.kind = chord::HopFrame::Kind::kDeliver;
  frame.msgs.push_back(msg);
  EXPECT_TRUE(EncodeHopFrame(frame).empty());
  EXPECT_EQ(EncodedFrameSize(frame), 0u);
}

TEST_F(CodecRoundTripTest, HopFramesOfEveryKindRoundTrip) {
  Rng rng(21);
  auto make_msg = [&](sim::MsgClass cls) {
    chord::AppMessage m;
    m.target = RandomId(rng);
    m.cls = cls;
    auto p = std::make_shared<IpUpdatePayload>();
    p->subscriber_key = RandomString(rng);
    p->node = RandomId(rng);
    p->ip = rng.Next();
    m.payload = p;
    return m;
  };

  auto round_trip = [&](const chord::HopFrame& frame) {
    std::vector<uint8_t> first = EncodeHopFrame(frame);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(EncodedFrameSize(frame), first.size());
    chord::HopFrame out;
    ASSERT_TRUE(DecodeHopFrame(first.data(), first.size(), catalog_, &out));
    EXPECT_EQ(out.kind, frame.kind);
    EXPECT_EQ(out.cls, frame.cls);
    EXPECT_EQ(out.ttl, frame.ttl);
    EXPECT_EQ(out.msgs.size(), frame.msgs.size());
    std::vector<uint8_t> second = EncodeHopFrame(out);
    EXPECT_EQ(first, second);
  };

  chord::HopFrame route;
  route.kind = chord::HopFrame::Kind::kRoute;
  route.cls = sim::MsgClass::kControl;
  route.ttl = 17;
  route.msgs.push_back(make_msg(sim::MsgClass::kControl));
  round_trip(route);

  chord::HopFrame deliver;
  deliver.kind = chord::HopFrame::Kind::kDeliver;
  deliver.cls = sim::MsgClass::kNotification;
  deliver.msgs.push_back(make_msg(sim::MsgClass::kNotification));
  round_trip(deliver);

  chord::HopFrame batch;
  batch.kind = chord::HopFrame::Kind::kBatch;
  batch.cls = sim::MsgClass::kRewrittenQuery;
  batch.ttl = 160;
  for (int i = 0; i < 3; ++i) {
    batch.msgs.push_back(make_msg(sim::MsgClass::kRewrittenQuery));
  }
  round_trip(batch);

  chord::HopFrame broadcast;
  broadcast.kind = chord::HopFrame::Kind::kBroadcast;
  broadcast.cls = sim::MsgClass::kOneTime;
  broadcast.ttl = 160;
  auto scan = std::make_shared<OtjScanPayload>();
  scan->query = RandomQuery(rng);
  scan->otj_id = 7;
  scan->issuer = RandomId(rng);
  broadcast.broadcast_payload = scan;
  broadcast.broadcast_limit = RandomId(rng);
  round_trip(broadcast);
}

TEST_F(CodecRoundTripTest, MalformedHopFramesAreRejected) {
  Rng rng(34);
  chord::HopFrame frame;
  frame.kind = chord::HopFrame::Kind::kDeliver;
  chord::AppMessage m;
  m.target = RandomId(rng);
  auto p = std::make_shared<DeliveryAckPayload>();
  p->msg_id = 42;
  m.payload = p;
  frame.msgs.push_back(m);

  std::vector<uint8_t> buf = EncodeHopFrame(frame);
  ASSERT_FALSE(buf.empty());

  chord::HopFrame out;
  // Truncation anywhere must fail, not read out of bounds.
  for (size_t cut : {buf.size() - 1, buf.size() / 2, size_t{1}, size_t{0}}) {
    EXPECT_FALSE(DecodeHopFrame(buf.data(), cut, catalog_, &out))
        << "accepted a frame truncated to " << cut << " bytes";
  }
  // Trailing garbage is rejected (a frame must consume its whole buffer).
  std::vector<uint8_t> padded = buf;
  padded.push_back(0);
  EXPECT_FALSE(DecodeHopFrame(padded.data(), padded.size(), catalog_, &out));
  // Unknown wire-format version is rejected.
  std::vector<uint8_t> wrong_version = buf;
  wrong_version[0] = 0xee;
  EXPECT_FALSE(
      DecodeHopFrame(wrong_version.data(), wrong_version.size(), catalog_,
                     &out));
}

}  // namespace
}  // namespace contjoin::core
