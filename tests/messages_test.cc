// Exhaustiveness of the CqMsgType enum ↔ payload-struct mapping: every
// enumerator has a payload struct whose constructor tags it, and the
// count constant tracks the enum. tools/check/contjoin_check enforces the
// same invariant textually; this test enforces it at the type level, so a
// new message type cannot land without both a payload and (via
// protocol_seam_test) a dispatch handler.

#include "core/messages.h"

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
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

#include "codec_generators.h"

namespace contjoin::core {
namespace {

static_assert(kCqMsgTypeCount == 21,
              "CqMsgType changed: update the payload coverage below, the "
              "dispatch registry, and this count");

static_assert(static_cast<size_t>(CqMsgType::kMovedPointer) + 1 ==
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
  tag(OtjResultPayload().type);
  tag(MigrateBucketPayload().type);
  tag(MovedPointerPayload().type);

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
  EXPECT_EQ(OtjResultPayload().type, CqMsgType::kOtjResult);
  EXPECT_EQ(MigrateBucketPayload().type, CqMsgType::kMigrateBucket);
  EXPECT_EQ(MovedPointerPayload().type, CqMsgType::kMovedPointer);
}

// --- Wire-codec round trips ---------------------------------------------------
//
// Property: every payload that can travel survives Encode → Decode → Encode
// with a byte-identical second encoding. The fields are drawn from a seeded
// Rng (several seeds per type) and the edge cases that have bitten binary
// formats before are pinned explicitly: empty strings, null values, the
// zero and maximum 160-bit identifiers, and extreme integers/doubles.

class CodecRoundTripTest : public ::testing::Test, protected CodecGenerators {
 protected:
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
    ExpectExactFrameSizes(payload);
  }

  /// A non-owning handle, so stack payloads can ride in frames.
  static chord::PayloadPtr Borrow(const CqPayload& payload) {
    return chord::PayloadPtr(std::shared_ptr<const void>(), &payload);
  }

  /// The sizer agrees with the encoder, twice over (the second call runs
  /// on the payload's memoised size), for `frame`.
  static void ExpectSizeMatchesEncode(const chord::HopFrame& frame,
                                      const char* what, CqMsgType type) {
    size_t encoded = EncodeHopFrame(frame).size();
    EXPECT_NE(encoded, 0u) << what << " of type " << static_cast<int>(type);
    EXPECT_EQ(EncodedFrameSize(frame), encoded)
        << what << " of type " << static_cast<int>(type);
    EXPECT_EQ(EncodedFrameSize(frame), encoded)
        << what << " of type " << static_cast<int>(type) << " (memoised)";
  }

  /// `payload` as a kDeliver message, as a DhtStore item and as a
  /// broadcast body: the sizer matches the encoder in every envelope.
  static void ExpectExactFrameSizes(const CqPayload& payload) {
    chord::HopFrame deliver;
    deliver.kind = chord::HopFrame::Kind::kDeliver;
    deliver.cls = sim::MsgClass::kControl;
    chord::AppMessage msg;
    msg.target = Uint160::FromUint64(9);
    msg.reliable_id = 11;
    msg.payload = Borrow(payload);
    deliver.msgs.push_back(msg);
    ExpectSizeMatchesEncode(deliver, "kDeliver frame", payload.type);

    chord::HopFrame store = deliver;
    auto item = std::make_shared<chord::DhtStorePayload>();
    item->key = Uint160::FromUint64(5);
    item->item = Borrow(payload);
    store.msgs[0].kind = chord::MsgKind::kDhtStore;
    store.msgs[0].payload = item;
    ExpectSizeMatchesEncode(store, "kDhtStore message", payload.type);

    chord::HopFrame broadcast;
    broadcast.kind = chord::HopFrame::Kind::kBroadcast;
    broadcast.cls = sim::MsgClass::kOneTime;
    broadcast.ttl = 160;
    broadcast.broadcast_payload = Borrow(payload);
    broadcast.broadcast_limit = Uint160::Max();
    ExpectSizeMatchesEncode(broadcast, "kBroadcast frame", payload.type);
  }

  /// `bytes` as lowercase hex.
  static std::string Hex(const std::vector<uint8_t>& bytes) {
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : bytes) {
      out.push_back(kDigits[b >> 4]);
      out.push_back(kDigits[b & 0xf]);
    }
    return out;
  }

  /// A fixed kJoin frame: four entries covering int, double (integral and
  /// not), string and null values, bound and unbound select positions and
  /// both trigger sides. Each trigger tuple holds its select value and
  /// nulls elsewhere.
  chord::HopFrame FixedJoinFrame() {
    Rng rng(2006);
    const char* rs = "SELECT R.a, S.b FROM R, S WHERE R.b = S.a";
    const char* da =
        "SELECT Doc.id, Auth.id FROM Doc, Auth WHERE Doc.title = Auth.name";
    const rel::Value null = rel::Value::Null();
    struct Spec {
      const char* sql;
      int remaining_side;
      rel::Value required;
      std::vector<rel::Value> trigger;
    };
    const Spec specs[] = {
        {rs, 1, rel::Value::Int(7), {rel::Value::Int(-3), null, null}},
        {da, 0, rel::Value::Str("ann"), {null, rel::Value::Str("x y")}},
        {rs, 0, rel::Value::Double(2.0),
         {null, rel::Value::Double(0.25), null}},
        {rs, 1, rel::Value::Double(-1.5), {null, null, null}},
    };
    auto p = std::make_shared<JoinPayload>();
    p->level1 = "S+a";
    p->value_key = "7";
    for (const Spec& spec : specs) {
      RewrittenEntry e;
      e.query = MakeQuery(rng, spec.sql);
      e.remaining_side = spec.remaining_side;
      e.required_value = spec.required;
      const rel::Timestamp pub_time = rng.Next();
      e.trigger = std::make_shared<const rel::Tuple>(
          e.query->side(1 - e.remaining_side).relation, spec.trigger, pub_time,
          rng.Next());
      e.rewritten_id = RewriteIdOf(*e.query, e.remaining_side, *e.trigger,
                                   e.required_value);
      p->entries.push_back(std::move(e));
    }
    p->rewriter = Uint160::FromUint64(5);
    p->vindex = Uint160::FromUint64(6);
    p->want_ack = true;
    p->known_split = 2;
    p->split_version = 9;
    chord::HopFrame frame;
    frame.kind = chord::HopFrame::Kind::kRoute;
    frame.cls = sim::MsgClass::kRewrittenQuery;
    frame.ttl = 12;
    chord::AppMessage m;
    m.target = Uint160::FromUint64(0xc0ffee);
    m.cls = sim::MsgClass::kRewrittenQuery;
    m.reliable_id = 3;
    m.reliable_origin = Uint160::FromUint64(77);
    m.payload = p;
    frame.msgs.push_back(m);
    return frame;
  }
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
        e.required_value = RandomValue(rng);
        e.trigger = RandomTrigger(rng, *e.query, 1 - e.remaining_side);
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
        e.trigger = RandomTrigger(rng, *e.query, e.trigger_side);
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
    {
      OtjResultPayload p;
      p.otj_id = rng.Next();
      for (size_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
        Notification row;
        row.query_key = RandomString(rng);
        for (size_t j = 0, m = rng.NextBelow(4); j < m; ++j) {
          row.row.push_back(RandomValue(rng));
        }
        row.earlier_pub = rng.Next();
        row.later_pub = rng.Next();
        row.created_at = rng.Next();
        p.rows.push_back(std::move(row));
      }
      ExpectRoundTrip(p);
    }
    {
      MigrateBucketPayload p;
      p.mkey = RandomString(rng);
      p.generation = 1 + static_cast<int>(rng.NextBelow(8));
      for (size_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
        AlqtEntry& entry = p.queries.emplace_back(
            RandomQuery(rng), static_cast<int>(rng.NextBelow(2)));
        entry.evaluators = RandomEvaluators(rng);
      }
      p.tuples_seen = rng.Next();
      for (size_t i = 0, n = rng.NextBelow(4); i < n; ++i) {
        p.value_counts[RandomString(rng)] = rng.Next();
      }
      p.overflow_values = rng.Next();
      ExpectRoundTrip(p);
    }
    {
      MovedPointerPayload p;
      p.mkey = RandomString(rng);
      p.generation = 1 + static_cast<int>(rng.NextBelow(8));
      p.holder = RandomId(rng);
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
  e.query = MakeQuery(rng,
                      "SELECT Auth.id, Doc.id, Doc.title FROM Doc, Auth "
                      "WHERE Doc.title = Auth.name");
  e.remaining_side = 1;
  // Key(q') is rendered from the fields, so it cannot be empty: here it is
  // "<query key>|0|\x1f|\x1f<null>|".
  e.required_value = rel::Value::Str("");
  e.trigger = std::make_shared<const rel::Tuple>(
      "Doc", std::vector<rel::Value>{rel::Value::Str(""), rel::Value::Null()},
      0, 0);
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

// A trigger or index side is 0 or 1; a frame naming another side would
// index past a query's two sides, so the decoder refuses it.
TEST_F(CodecRoundTripTest, OutOfRangeSidesAreRefused) {
  Rng rng(98);
  const PayloadCodec& codec = PayloadCodec::Default();
  auto refused = [&](const CqPayload& p) {
    wire::Writer w;
    if (!codec.Encode(p, w)) return false;
    wire::Reader r(w.bytes());
    return codec.Decode(r, catalog_) == nullptr;
  };

  JoinPayload join;
  RewrittenEntry e;
  e.query = RandomQuery(rng);
  e.remaining_side = 2;
  e.trigger = RandomTrigger(rng, *e.query, 0);
  join.entries.push_back(e);
  EXPECT_TRUE(refused(join));
  join.entries[0].remaining_side = 1;
  EXPECT_FALSE(refused(join));

  DaivJoinPayload daiv;
  DaivEntry d;
  d.query = e.query;
  d.trigger_side = 2;
  d.trigger = e.trigger;
  daiv.entries.push_back(d);
  EXPECT_TRUE(refused(daiv));
  daiv.entries[0].trigger_side = 0;
  EXPECT_FALSE(refused(daiv));

  MigrateBucketPayload bucket;
  bucket.queries.emplace_back(RandomQuery(rng), 2);
  EXPECT_TRUE(refused(bucket));
  bucket.queries[0] = AlqtEntry(bucket.queries[0].query, 0);
  EXPECT_FALSE(refused(bucket));
}

// A value tag outside rel::ValueType is corrupt input, not a null: the
// decoder refuses it, whether bytes would be left over (a corrupted int
// tag leaves its 8 payload bytes unread) or not (a corrupted null tag on
// a frame's last value).
TEST_F(CodecRoundTripTest, UnknownValueTagsAreRefused) {
  constexpr uint64_t kMarker = 0x1122334455667788;
  const std::vector<uint8_t> marker = {0x88, 0x77, 0x66, 0x55,
                                       0x44, 0x33, 0x22, 0x11};
  // Offset of the tag byte just before the little-endian marker int.
  auto int_tag_at = [&](const std::vector<uint8_t>& bytes) {
    auto it = std::search(bytes.begin(), bytes.end(), marker.begin(),
                          marker.end());
    EXPECT_NE(it, bytes.end());
    const size_t at = static_cast<size_t>(it - bytes.begin()) - 1;
    EXPECT_EQ(bytes[at], static_cast<uint8_t>(rel::ValueType::kInt));
    return at;
  };

  NotificationPayload n;
  n.notification.query_key = "q";
  n.notification.row = {rel::Value::Int(static_cast<int64_t>(kMarker))};
  n.subscriber_key = "s";
  wire::Writer w;
  ASSERT_TRUE(PayloadCodec::Default().Encode(n, w));
  std::vector<uint8_t> bytes = w.bytes();
  bytes[int_tag_at(bytes)] = 9;
  wire::Reader r(bytes);
  EXPECT_EQ(PayloadCodec::Default().Decode(r, catalog_), nullptr);

  // The same notification ending in a null, inside a hop frame: the
  // corrupted null tag consumes exactly the bytes the null did.
  n.notification.row.push_back(rel::Value::Null());
  chord::HopFrame frame;
  frame.kind = chord::HopFrame::Kind::kDeliver;
  frame.cls = sim::MsgClass::kNotification;
  chord::AppMessage msg;
  msg.cls = sim::MsgClass::kNotification;
  msg.payload = Borrow(n);
  frame.msgs.push_back(std::move(msg));
  std::vector<uint8_t> framed = EncodeHopFrame(frame);
  ASSERT_FALSE(framed.empty());
  chord::HopFrame decoded;
  ASSERT_TRUE(
      DecodeHopFrame(framed.data(), framed.size(), catalog_, &decoded));
  const size_t null_tag = int_tag_at(framed) + 1 + marker.size();
  ASSERT_EQ(framed[null_tag], static_cast<uint8_t>(rel::ValueType::kNull));
  framed[null_tag] = 9;
  EXPECT_FALSE(
      DecodeHopFrame(framed.data(), framed.size(), catalog_, &decoded));
}

// Each moved ALQT entry decodes with its own evaluator ids, including an
// entry with none and the sentinel identifiers.
TEST_F(CodecRoundTripTest, MigrateBucketCarriesEntryEvaluators) {
  Rng rng(97);
  MigrateBucketPayload bucket;
  bucket.mkey = "R+B#0";
  bucket.queries.emplace_back(RandomQuery(rng), 0);
  bucket.queries[0].evaluators = {Uint160(), HashKey("S+E+7"),
                                  Uint160::Max()};
  std::sort(bucket.queries[0].evaluators.begin(),
            bucket.queries[0].evaluators.end());
  bucket.queries.emplace_back(RandomQuery(rng), 1);
  auto decode = [&](const std::vector<uint8_t>& bytes) {
    wire::Reader r(bytes);
    return std::dynamic_pointer_cast<const MigrateBucketPayload>(
        PayloadCodec::Default().Decode(r, catalog_));
  };
  wire::Writer w;
  ASSERT_TRUE(PayloadCodec::Default().Encode(bucket, w));
  auto decoded = decode(w.bytes());
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->queries.size(), 2u);
  EXPECT_EQ(decoded->queries[0].evaluators, bucket.queries[0].evaluators);
  EXPECT_TRUE(decoded->queries[1].evaluators.empty());

  // An id count larger than the rest of the frame is refused. The last
  // entry's count sits before tuples_seen (8 bytes), the empty
  // value_counts' count (4) and overflow_values (8).
  std::vector<uint8_t> bytes = w.bytes();
  std::fill_n(bytes.end() - (4 + 8 + 4 + 8), 4, uint8_t{0xff});
  EXPECT_EQ(decode(bytes), nullptr);

  // Ids out of order or repeated are forged: the sender keeps them
  // sorted and distinct.
  for (const std::vector<Uint160>& forged :
       {std::vector<Uint160>{Uint160::Max(), Uint160()},
        std::vector<Uint160>{Uint160::Max(), Uint160::Max()}}) {
    MigrateBucketPayload unsorted = bucket;
    unsorted.queries[0].evaluators = forged;
    wire::Writer uw;
    ASSERT_TRUE(PayloadCodec::Default().Encode(unsorted, uw));
    EXPECT_EQ(decode(uw.bytes()), nullptr);
  }
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

TEST(WireWriterTest, CountingWriterMeasuresWhatTheStoringWriterWrites) {
  wire::Writer store;
  wire::Writer count = wire::Writer::Counting();
  EXPECT_FALSE(store.counting());
  EXPECT_TRUE(count.counting());
  auto both = [&](auto&& write) {
    write(store);
    write(count);
    EXPECT_EQ(count.size(), store.size());
  };
  both([](wire::Writer& w) { w.U8(1); });
  both([](wire::Writer& w) { w.U16(0x1234); });
  both([](wire::Writer& w) { w.U32(0xdeadbeef); });
  both([](wire::Writer& w) { w.U64(~uint64_t{0}); });
  both([](wire::Writer& w) { w.I64(-5); });
  both([](wire::Writer& w) { w.Bool(true); });
  both([](wire::Writer& w) { w.F64(-0.25); });
  both([](wire::Writer& w) { w.Str(""); });
  both([](wire::Writer& w) { w.Str("seven b"); });
  both([](wire::Writer& w) { w.Id(Uint160::Max()); });
  const size_t mark = store.size();
  both([](wire::Writer& w) { w.Str("rolled back"); });
  both([&](wire::Writer& w) { w.Truncate(mark); });
  both([](wire::Writer& w) { w.PatchU32(1, 7); });
  EXPECT_EQ(store.size(), 1u + 2 + 4 + 8 + 8 + 1 + 8 + 4 + 11 + 20);
  EXPECT_TRUE(count.bytes().empty());

  // Scalars are little-endian and identifiers big-endian, written whole.
  wire::Writer w;
  w.U16(0x0102);
  w.U32(0x03040506);
  w.U64(0x0708090a0b0c0d0eull);
  EXPECT_EQ(w.bytes(),
            (std::vector<uint8_t>{0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0e,
                                  0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07}));
  wire::Writer id;
  id.Id(Uint160::FromUint64(0x0102));
  std::vector<uint8_t> expect(20, 0);
  expect[18] = 0x01;
  expect[19] = 0x02;
  EXPECT_EQ(id.bytes(), expect);
}

// The sizer memoises each payload's size on first use; these cases pin
// that the memo never outlives what it measured.
TEST_F(CodecRoundTripTest, SizingAFrameTwiceGivesTheSameNumber) {
  Rng rng(55);
  chord::HopFrame frame;
  frame.kind = chord::HopFrame::Kind::kRoute;
  frame.cls = sim::MsgClass::kRewrittenQuery;
  frame.ttl = 160;
  chord::AppMessage m;
  m.target = RandomId(rng);
  auto p = std::make_shared<DaivJoinPayload>();
  p->value_key = RandomString(rng);
  DaivEntry e;
  e.query = RandomQuery(rng);
  e.trigger = RandomTrigger(rng, *e.query, e.trigger_side);
  p->entries.push_back(e);
  m.payload = p;
  frame.msgs.push_back(m);

  size_t first = EncodedFrameSize(frame);
  EXPECT_EQ(EncodedFrameSize(frame), first);
  EXPECT_EQ(first, EncodeHopFrame(frame).size());
  // A forwarded hop (one ttl less) is the same size.
  --frame.ttl;
  EXPECT_EQ(EncodedFrameSize(frame), first);
}

TEST_F(CodecRoundTripTest, BatchSizeFollowsCompaction) {
  Rng rng(56);
  chord::HopFrame batch;
  batch.kind = chord::HopFrame::Kind::kBatch;
  batch.cls = sim::MsgClass::kNotification;
  batch.ttl = 160;
  for (int i = 0; i < 4; ++i) {
    chord::AppMessage m;
    m.target = RandomId(rng);
    m.cls = sim::MsgClass::kNotification;
    auto n = std::make_shared<NotificationPayload>();
    n->notification.query_key = RandomString(rng);
    n->notification.row.push_back(RandomValue(rng));
    n->subscriber_key = std::string(static_cast<size_t>(1 + 7 * i), 'k');
    m.payload = n;
    batch.msgs.push_back(m);
  }
  ASSERT_EQ(EncodedFrameSize(batch), EncodeHopFrame(batch).size());

  // Deliver message 1 and compact the rest forward, as Node::HandleBatch
  // does before forwarding.
  std::vector<chord::AppMessage>& msgs = batch.msgs;
  size_t kept = 0;
  for (size_t i = 0; i < msgs.size(); ++i) {
    if (i == 1) continue;
    if (kept != i) msgs[kept] = std::move(msgs[i]);
    ++kept;
  }
  msgs.resize(kept);
  --batch.ttl;
  EXPECT_EQ(EncodedFrameSize(batch), EncodeHopFrame(batch).size());
}

TEST_F(CodecRoundTripTest, CopiedPayloadIsSizedAfresh) {
  Rng rng(57);
  auto original = std::make_shared<TupleIndexPayload>(/*value_level=*/true);
  original->tuple = RandomTuple(rng);
  original->level1 = "R+a";
  original->value_key = "7";
  chord::HopFrame frame;
  frame.kind = chord::HopFrame::Kind::kDeliver;
  frame.cls = sim::MsgClass::kTupleIndex;
  chord::AppMessage m;
  m.payload = original;
  frame.msgs.push_back(m);
  const size_t original_size = EncodedFrameSize(frame);
  ASSERT_EQ(original_size, EncodeHopFrame(frame).size());

  auto copy = std::make_shared<TupleIndexPayload>(*original);
  copy->value_key = "a much longer canonical value";
  frame.msgs[0].payload = copy;
  const size_t copy_size = EncodedFrameSize(frame);
  EXPECT_EQ(copy_size, EncodeHopFrame(frame).size());
  EXPECT_EQ(copy_size, original_size + copy->value_key.size() - 1);

  // The original keeps its own size.
  frame.msgs[0].payload = original;
  EXPECT_EQ(EncodedFrameSize(frame), original_size);
}

TEST_F(CodecRoundTripTest, MalformedPayloadsAlwaysSizeToZero) {
  Rng rng(58);
  auto no_query = std::make_shared<QueryIndexPayload>();
  no_query->level1 = "R+b";
  // The second entry lacks its query: the encoder fails after writing the
  // first one, and the rollback must still leave nothing behind.
  auto half_join = std::make_shared<JoinPayload>();
  half_join->level1 = "S+a";
  RewrittenEntry good;
  good.query = RandomQuery(rng);
  good.trigger = RandomTrigger(rng, *good.query, 1 - good.remaining_side);
  half_join->entries.push_back(good);
  half_join->entries.push_back(RewrittenEntry{});

  for (const chord::PayloadPtr& bad :
       {chord::PayloadPtr(no_query), chord::PayloadPtr(half_join)}) {
    chord::HopFrame frame;
    frame.kind = chord::HopFrame::Kind::kDeliver;
    chord::AppMessage m;
    m.payload = bad;
    frame.msgs.push_back(m);
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(EncodedFrameSize(frame), 0u) << "attempt " << attempt;
      EXPECT_TRUE(EncodeHopFrame(frame).empty());
    }
    const auto& cq = static_cast<const CqPayload&>(*bad);
    wire::Writer w;
    w.U8(0xab);
    EXPECT_FALSE(PayloadCodec::Default().Encode(cq, w));
    EXPECT_EQ(w.bytes(), std::vector<uint8_t>{0xab});
    wire::Writer counting = wire::Writer::Counting();
    EXPECT_FALSE(PayloadCodec::Default().Encode(cq, counting));
    EXPECT_EQ(counting.size(), 0u);
  }
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

// The bytes of FixedJoinFrame as encoded when Key(q') was still a stored
// string. The codec now renders the key from the entry's fields; the wire
// must not change by a byte.
TEST_F(CodecRoundTripTest, JoinFrameBytesUnchanged) {
  const chord::HopFrame frame = FixedJoinFrame();
  const std::vector<uint8_t> bytes = EncodeHopFrame(frame);
  EXPECT_EQ(Hex(bytes),
      "0100040c000000010000000000000000000000000000000000000000c0ffee04"
      "000300000000000000000000000000000000000000000000000000004d030300"
      "0000532b610100000037040000002900000053454c45435420522e612c20532e"
      "622046524f4d20522c205320574845524520522e62203d20532e610600000071"
      "636461616d01000000632d70586f6469b999121ef61ab2abbff7010e00000071"
      "636461616d7c307c1f2d337c37010700000000000000020000000101fdffffff"
      "ffffffff0086a070b6bfd16ae646f27daf49ca6c754100000053454c45435420"
      "446f632e69642c20417574682e69642046524f4d20446f632c20417574682057"
      "4845524520446f632e7469746c65203d20417574682e6e616d65020000006577"
      "07000000796a656b6e7762fe8a62969a6bc68dfb803c4d10665ffd000d000000"
      "65777c317c1f7820797c616e6e0303000000616e6e0200000000010303000000"
      "7820792b182b62661031b5603ddce7012ead3a2900000053454c45435420522e"
      "612c20532e622046524f4d20522c205320574845524520522e62203d20532e61"
      "04000000756d767905000000616365676fafba34e4fab443a970f63f66d30e31"
      "c0000e000000756d76797c317c1f302e32357c32020000000000000040020000"
      "00000102000000000000d03f0db4140a70f252e1fd7738e3a34d113c29000000"
      "53454c45435420522e612c20532e622046524f4d20522c205320574845524520"
      "522e62203d20532e6100000000050000007367737868df65c8a91b698d523345"
      "9f92a23caa69010f0000007c307c1f3c6e756c6c3e7c2d312e35020000000000"
      "00f8bf0200000001000071f2399f780e58104816a0bbc60c3007000000000000"
      "0000000000000000000000000005000000000000000000000000000000000000"
      "000601020000000900000000000000");
  EXPECT_EQ(EncodedFrameSize(frame), bytes.size());

  // Decoding re-derives every entry's id from its fields.
  chord::HopFrame out;
  ASSERT_TRUE(DecodeHopFrame(bytes.data(), bytes.size(), catalog_, &out));
  ASSERT_EQ(out.msgs.size(), 1u);
  const auto& sent = static_cast<const JoinPayload&>(*frame.msgs[0].payload);
  const auto& got = static_cast<const JoinPayload&>(*out.msgs[0].payload);
  ASSERT_EQ(got.entries.size(), sent.entries.size());
  for (size_t i = 0; i < sent.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].rewritten_id, sent.entries[i].rewritten_id)
        << "entry " << i;
  }
  EXPECT_EQ(EncodeHopFrame(out), bytes);
}

// Key(q') travels on the wire but is derived from the entry's other
// fields; a frame whose key disagrees with them is refused, not trusted.
TEST_F(CodecRoundTripTest, ForgedRewrittenKeyIsRefused) {
  const chord::HopFrame frame = FixedJoinFrame();
  const std::vector<uint8_t> bytes = EncodeHopFrame(frame);
  const auto& p = static_cast<const JoinPayload&>(*frame.msgs[0].payload);
  for (const RewrittenEntry& e : p.entries) {
    std::string key;
    WriteRewrittenKey([&key](std::string_view piece) { key += piece; },
                      *e.query, e.remaining_side, *e.trigger,
                      e.required_value);
    // The key sits right after its u32 length prefix.
    std::string prefixed(4, '\0');
    for (int b = 0; b < 4; ++b) {
      prefixed[b] = static_cast<char>((key.size() >> (8 * b)) & 0xff);
    }
    prefixed += key;
    const auto at = std::search(bytes.begin(), bytes.end(), prefixed.begin(),
                                prefixed.end());
    ASSERT_NE(at, bytes.end()) << "key " << key << " not found in the frame";
    const size_t offset = static_cast<size_t>(at - bytes.begin()) + 4;
    for (size_t i = 0; i < key.size(); ++i) {
      std::vector<uint8_t> forged = bytes;
      forged[offset + i] ^= 0x01;
      chord::HopFrame out;
      EXPECT_FALSE(
          DecodeHopFrame(forged.data(), forged.size(), catalog_, &out))
          << "accepted key " << key << " with byte " << i << " flipped";
    }
  }
}

// --- Trigger tuples on the wire ---------------------------------------------

/// A parsed query with fixed submission metadata.
class TriggerWireTest : public CodecRoundTripTest {
 protected:
  query::QueryPtr FixedQuery(const char* sql, const char* key) {
    StatusOr<query::ContinuousQuery> parsed = query::ParseQuery(sql, catalog_);
    CJ_CHECK(parsed.ok());
    query::ContinuousQuery q = std::move(parsed).value();
    q.set_key(key);
    q.set_subscriber_key("n3");
    q.set_subscriber_ip(77);
    q.set_insertion_time(5);
    return std::make_shared<const query::ContinuousQuery>(std::move(q));
  }

  static rel::TuplePtr TupleOf(const char* relation,
                               std::vector<rel::Value> values,
                               rel::Timestamp pub_time, uint64_t seq) {
    return std::make_shared<const rel::Tuple>(relation, std::move(values),
                                              pub_time, seq);
  }

  /// `payload` routed as one message of a kRoute frame.
  static chord::HopFrame FrameOf(chord::PayloadPtr payload) {
    chord::HopFrame frame;
    frame.kind = chord::HopFrame::Kind::kRoute;
    frame.cls = sim::MsgClass::kRewrittenQuery;
    frame.ttl = 12;
    chord::AppMessage m;
    m.target = Uint160::FromUint64(0xbeef);
    m.cls = sim::MsgClass::kRewrittenQuery;
    m.payload = std::move(payload);
    frame.msgs.push_back(m);
    return frame;
  }

  const char* const kT1Sql = "SELECT R.a, R.c, S.b FROM R, S WHERE R.b = S.a";
  const char* const kT2Sql =
      "SELECT R.a, S.b FROM R, S WHERE 2*R.a + R.b = S.a + S.c";
};

// Frames of a T1 query's rewritten queries (kJoin) and of a T2 query's
// DAI-V entries (kDaivJoin), both trigger sides each, a null select value
// in each. The hex is what the encoder wrote when entries still carried a
// copied select row; built from the trigger tuples, the bytes are the
// same, and they survive a decode and re-encode.
TEST_F(TriggerWireTest, FramesBuiltFromTuplesKeepTheCopiedRowBytes) {
  const query::QueryPtr t1 = FixedQuery(kT1Sql, "q-t1");
  const query::QueryPtr t2 = FixedQuery(kT2Sql, "q-t2");
  ASSERT_EQ(t2->type(), query::QueryType::kT2);
  const rel::Value null = rel::Value::Null();

  auto join = std::make_shared<JoinPayload>();
  join->level1 = "S+a";
  join->value_key = "9";
  RewrittenEntry r_side;
  r_side.query = t1;
  r_side.remaining_side = 1;
  r_side.required_value = rel::Value::Int(9);
  r_side.trigger = TupleOf(
      "R", {null, rel::Value::Int(9), rel::Value::Int(-4)}, 40, 12);
  join->entries.push_back(r_side);
  RewrittenEntry s_side;
  s_side.query = t1;
  s_side.remaining_side = 0;
  s_side.required_value = rel::Value::Int(9);
  s_side.trigger = TupleOf(
      "S", {rel::Value::Int(9), rel::Value::Double(2.5), rel::Value::Int(1)},
      41, 13);
  join->entries.push_back(s_side);
  join->rewriter = Uint160::FromUint64(5);
  join->vindex = Uint160::FromUint64(6);
  join->want_ack = true;
  join->known_split = 2;
  join->split_version = 3;

  auto daiv = std::make_shared<DaivJoinPayload>();
  daiv->value_key = "17";
  DaivEntry r_daiv;
  r_daiv.query = t2;
  r_daiv.trigger_side = 0;
  r_daiv.trigger =
      TupleOf("R", {rel::Value::Int(5), rel::Value::Int(7), null}, 50, 20);
  daiv->entries.push_back(r_daiv);
  DaivEntry s_daiv;
  s_daiv.query = t2;
  s_daiv.trigger_side = 1;
  s_daiv.trigger =
      TupleOf("S", {rel::Value::Int(10), null, rel::Value::Int(7)}, 51, 21);
  daiv->entries.push_back(s_daiv);
  daiv->rewriter = Uint160::FromUint64(7);
  daiv->vindex = Uint160::FromUint64(8);

  const std::pair<chord::PayloadPtr, std::string> cases[] = {
      {join,
       "0100040c00000001000000000000000000000000000000000000000000beef04"
       "0000000000000000000000000000000000000000000000000000000000030300"
       "0000532b610100000039020000002e00000053454c45435420522e612c20522e"
       "632c20532e622046524f4d20522c205320574845524520522e62203d20532e61"
       "04000000712d7431020000006e334d0000000000000005000000000000000113"
       "000000712d74317c307c1f3c6e756c6c3e1f2d347c3901090000000000000003"
       "00000001000101fcffffffffffffff0028000000000000000c00000000000000"
       "2e00000053454c45435420522e612c20522e632c20532e622046524f4d20522c"
       "205320574845524520522e62203d20532e6104000000712d7431020000006e33"
       "4d000000000000000500000000000000000d000000712d74317c317c1f322e35"
       "7c39010900000000000000030000000000010200000000000004402900000000"
       "0000000d00000000000000000000000000000000000000000000000000000500"
       "0000000000000000000000000000000000000601020000000300000000000000"},
      {daiv,
       "0100040c00000001000000000000000000000000000000000000000000beef04"
       "0000000000000000000000000000000000000000000000000000000000040200"
       "00003137020000003700000053454c45435420522e612c20532e622046524f4d"
       "20522c205320574845524520322a522e61202b20522e62203d20532e61202b20"
       "532e6304000000712d7432020000006e334d0000000000000005000000000000"
       "0000020000000101050000000000000000320000000000000014000000000000"
       "003700000053454c45435420522e612c20532e622046524f4d20522c20532057"
       "4845524520322a522e61202b20522e62203d20532e61202b20532e6304000000"
       "712d7432020000006e334d000000000000000500000000000000010200000000"
       "0100330000000000000015000000000000000000000000000000000000000000"
       "0000000000070000000000000000000000000000000000000008000100000000"
       "00000000000000"},
  };
  for (const auto& [payload, hex] : cases) {
    const chord::HopFrame frame = FrameOf(payload);
    const std::vector<uint8_t> bytes = EncodeHopFrame(frame);
    EXPECT_EQ(Hex(bytes), hex);
    EXPECT_EQ(EncodedFrameSize(frame), bytes.size());
    chord::HopFrame out;
    ASSERT_TRUE(DecodeHopFrame(bytes.data(), bytes.size(), catalog_, &out));
    EXPECT_EQ(EncodeHopFrame(out), bytes);
  }
}

// A kJoin or kDaivJoin row is the trigger tuple's projection onto the
// query's select list. A row of another length, or one that binds an item
// of the side still to be matched (or leaves a trigger-side item unbound),
// is the projection of no tuple, so the decoder refuses it. The frames are
// written by hand, with Key(q') spelled from the row as given, as an
// encoder that copied rows could have written them.
TEST_F(TriggerWireTest, RowsThatProjectNoTriggerTupleAreRefused) {
  // Select items R.a, R.c, S.b; a trigger on side 0 binds the first two.
  const query::QueryPtr q = FixedQuery(kT1Sql, "q");
  auto write_query = [&](wire::Writer& w) {
    w.Str(q->raw_sql());
    w.Str(q->key());
    w.Str(q->subscriber_key());
    w.U64(q->subscriber_ip());
    w.U64(q->insertion_time());
  };
  // Bound slots carry these ints; unbound ones are std::nullopt.
  using Row = std::vector<std::optional<int64_t>>;
  auto write_row = [](wire::Writer& w, const Row& row) {
    w.U32(static_cast<uint32_t>(row.size()));
    for (const std::optional<int64_t>& v : row) {
      w.Bool(v.has_value());
      if (!v.has_value()) continue;
      w.U8(static_cast<uint8_t>(rel::ValueType::kInt));
      w.I64(*v);
    }
    w.U64(30);  // pub
    w.U64(4);   // seq
  };
  auto write_tail = [](wire::Writer& w) {
    w.Id(Uint160());
    w.Id(Uint160());
    w.Bool(false);
    w.U32(1);
    w.U64(0);
  };
  auto join_bytes = [&](const Row& row) {
    std::string key = q->key() + "|0|";
    for (const std::optional<int64_t>& v : row) {
      if (v.has_value()) key += "" + std::to_string(*v);
    }
    key += "|7";
    wire::Writer w;
    w.U8(static_cast<uint8_t>(CqMsgType::kJoin));
    w.Str("S+a");
    w.Str("7");
    w.U32(1);
    write_query(w);
    w.U8(1);  // Remaining side.
    w.Str(key);
    w.U8(static_cast<uint8_t>(rel::ValueType::kInt));
    w.I64(7);  // valDA.
    write_row(w, row);
    write_tail(w);
    return w.bytes();
  };
  auto daiv_bytes = [&](const Row& row) {
    wire::Writer w;
    w.U8(static_cast<uint8_t>(CqMsgType::kDaivJoin));
    w.Str("7");
    w.U32(1);
    write_query(w);
    w.U8(0);  // Trigger side.
    write_row(w, row);
    write_tail(w);
    return w.bytes();
  };
  auto decodes = [&](const std::vector<uint8_t>& bytes) {
    wire::Reader r(bytes);
    return PayloadCodec::Default().Decode(r, catalog_) != nullptr &&
           r.AtEnd();
  };

  const Row projection = {1, 2, std::nullopt};
  EXPECT_TRUE(decodes(join_bytes(projection)));
  EXPECT_TRUE(decodes(daiv_bytes(projection)));
  const Row not_projections[] = {
      {1, 2, std::nullopt, std::nullopt},  // Too long.
      {1, 2},                              // Too short.
      {1, 2, 3},                           // Binds S.b.
      {1, std::nullopt, std::nullopt},     // Leaves R.c unbound.
  };
  for (const Row& row : not_projections) {
    EXPECT_FALSE(decodes(join_bytes(row))) << "kJoin row of " << row.size();
    EXPECT_FALSE(decodes(daiv_bytes(row))) << "kDaivJoin row of " << row.size();
  }

  // The decoded trigger tuple holds the shipped values, null elsewhere.
  const std::vector<uint8_t> bytes = daiv_bytes(projection);
  wire::Reader r(bytes);
  auto decoded = std::static_pointer_cast<const DaivJoinPayload>(
      PayloadCodec::Default().Decode(r, catalog_));
  ASSERT_NE(decoded, nullptr);
  const rel::Tuple& trigger = *decoded->entries[0].trigger;
  EXPECT_EQ(trigger.relation(), "R");
  EXPECT_EQ(trigger.ToString(), "R(1, <null>, 2)");
  EXPECT_EQ(trigger.pub_time(), 30u);
  EXPECT_EQ(trigger.seq(), 4u);
}

}  // namespace
}  // namespace contjoin::core
