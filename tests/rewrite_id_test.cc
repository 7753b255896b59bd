// The identity of a rewritten query q': the streaming SipHash-2-4-128
// hasher it is built on, the flat set the DAI-T rewriter deduplicates with,
// and the id itself — the fingerprint of exactly the Key(q') string the
// codec ships, with the canonical value equality of that string.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"

#include "common/fingerprint.h"
#include "common/rng.h"
#include "common/wire.h"
#include "core/codec.h"
#include "core/engine.h"
#include "core/messages.h"

#include "codec_generators.h"

namespace contjoin::core {
namespace {

/// The 16 output bytes of `f` in the reference order, as lowercase hex.
std::string HexOf(const Fingerprint128& f) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint64_t word : {f.lo, f.hi}) {
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<uint8_t>(word >> (8 * i));
      out.push_back(kDigits[byte >> 4]);
      out.push_back(kDigits[byte & 0xf]);
    }
  }
  return out;
}

// --- SipHasher ---------------------------------------------------------------

// Key 00 01 .. 0f, as in the reference implementation's test vectors.
constexpr uint64_t kRefK0 = 0x0706050403020100ull;
constexpr uint64_t kRefK1 = 0x0f0e0d0c0b0a0908ull;

TEST(SipHasherTest, MatchesTheReferenceVectors) {
  SipHasher empty(kRefK0, kRefK1);
  EXPECT_EQ(HexOf(empty.Finish()), "a3817f04ba25a8e66df67214c7550293");

  std::string fifteen;
  for (int i = 0; i < 15; ++i) fifteen.push_back(static_cast<char>(i));
  SipHasher h(kRefK0, kRefK1);
  h.Update(fifteen);
  EXPECT_EQ(HexOf(h.Finish()), "5493e99933b0a8117e08ec0f97cfc3d9");
}

TEST(SipHasherTest, ARandomSplitHashesLikeTheWhole) {
  Rng rng(19);
  for (int trial = 0; trial < 200; ++trial) {
    std::string message(rng.NextBelow(70), '\0');
    for (char& c : message) c = static_cast<char>(rng.Next());
    SipHasher whole(kRewriteIdKey0, kRewriteIdKey1);
    whole.Update(message);

    SipHasher pieces(kRewriteIdKey0, kRewriteIdKey1);
    std::string_view rest = message;
    while (!rest.empty()) {
      const size_t n = rng.NextBelow(rest.size() + 1);  // 0 is a piece too.
      pieces.Update(rest.substr(0, n));
      rest.remove_prefix(n);
    }
    EXPECT_EQ(pieces.Finish(), whole.Finish())
        << "length " << message.size();
  }
}

// --- FingerprintSet ----------------------------------------------------------

TEST(FingerprintSetTest, DuplicateInsertIsRefused) {
  FingerprintSet set;
  const Fingerprint128 id{0x1234, 0x5678};
  EXPECT_TRUE(set.Insert(id));
  EXPECT_FALSE(set.Insert(id));
  EXPECT_EQ(set.size(), 1u);
  // Same low word (same home slot), different id.
  EXPECT_TRUE(set.Insert(Fingerprint128{0x1234, 0x9abc}));
  EXPECT_FALSE(set.Insert(Fingerprint128{0x1234, 0x9abc}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FingerprintSetTest, GrowthKeepsEveryMember) {
  FingerprintSet set;
  Rng rng(23);
  std::vector<Fingerprint128> ids;
  for (int i = 0; i < 5000; ++i) {
    // Half the ids share a low word with another, so probes chain.
    const uint64_t lo = (i % 2 == 0) ? rng.Next() : ids.back().lo;
    ids.push_back(Fingerprint128{lo, rng.Next() | 1});
    ASSERT_TRUE(set.Insert(ids.back())) << i;
  }
  EXPECT_EQ(set.size(), ids.size());
  for (const Fingerprint128& id : ids) EXPECT_FALSE(set.Insert(id));
  EXPECT_EQ(set.size(), ids.size());

  // Clear forgets every member but keeps working.
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  for (const Fingerprint128& id : ids) EXPECT_TRUE(set.Insert(id));
  EXPECT_EQ(set.size(), ids.size());
}

// The all-zero id is the empty-slot marker; it must still be storable.
TEST(FingerprintSetTest, TheEmptyMarkerIdIsAMemberLikeAnyOther) {
  FingerprintSet set;
  const Fingerprint128 zero{};
  EXPECT_TRUE(set.Insert(zero));
  EXPECT_FALSE(set.Insert(zero));
  EXPECT_EQ(set.size(), 1u);
  // Ids that share one half with the marker are ordinary members.
  EXPECT_TRUE(set.Insert(Fingerprint128{0, 1}));
  EXPECT_TRUE(set.Insert(Fingerprint128{1, 0}));
  EXPECT_FALSE(set.Insert(Fingerprint128{0, 1}));
  EXPECT_FALSE(set.Insert(Fingerprint128{1, 0}));
  EXPECT_FALSE(set.Insert(zero));
  EXPECT_EQ(set.size(), 3u);
  set.Clear();
  EXPECT_TRUE(set.Insert(zero));
}

// --- RewriteId ---------------------------------------------------------------

class RewriteIdTest : public ::testing::Test, protected CodecGenerators {
 protected:
  static RewriteId IdOf(const RewrittenEntry& e) {
    return RewriteIdOf(e.query->key(), e.remaining_side, e.row,
                       e.required_value);
  }

  /// The Key(q') string of the single entry of a kJoin payload, read back
  /// from its encoding.
  static std::string ShippedKey(const std::vector<uint8_t>& bytes) {
    wire::Reader r(bytes);
    EXPECT_EQ(r.U8(), static_cast<uint8_t>(CqMsgType::kJoin));
    r.Str();  // level1
    r.Str();  // value_key
    EXPECT_EQ(r.U32(), 1u);
    r.Str();  // SQL
    r.Str();  // query key
    r.Str();  // subscriber key
    r.U64();  // subscriber ip
    r.U64();  // insertion time
    r.U8();   // remaining side
    std::string key = r.Str();
    EXPECT_TRUE(r.ok());
    return key;
  }
};

TEST_F(RewriteIdTest, IdIsTheHashOfTheKeyTheCodecShips) {
  for (uint64_t seed : {3u, 8u, 2718u}) {
    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      JoinPayload p;
      p.level1 = RandomString(rng);
      p.value_key = RandomString(rng);
      RewrittenEntry e;
      e.query = RandomQuery(rng);
      e.remaining_side = static_cast<int>(rng.NextBelow(2));
      e.required_value = RandomValue(rng);
      e.row = RandomRow(rng);
      e.rewritten_id = IdOf(e);
      p.entries.push_back(e);

      wire::Writer w;
      ASSERT_TRUE(PayloadCodec::Default().Encode(p, w));
      const std::string key = ShippedKey(w.bytes());
      SipHasher hasher(kRewriteIdKey0, kRewriteIdKey1);
      hasher.Update(key);
      EXPECT_EQ(hasher.Finish(), e.rewritten_id) << "key " << key;

      wire::Reader r(w.bytes());
      auto decoded = std::static_pointer_cast<const JoinPayload>(
          PayloadCodec::Default().Decode(r, catalog_));
      ASSERT_NE(decoded, nullptr);
      ASSERT_EQ(decoded->entries.size(), 1u);
      EXPECT_EQ(decoded->entries[0].rewritten_id, e.rewritten_id);
    }
  }
}

// Ids inherit the canonical value equality of the key string: an integral
// double is the integer it equals, in the bound values and in valDA alike.
TEST_F(RewriteIdTest, IntAndIntegralDoubleTriggersShareAnId) {
  const RowTemplate as_int = {rel::Value::Int(2), std::nullopt};
  const RowTemplate as_double = {rel::Value::Double(2.0), std::nullopt};
  EXPECT_EQ(RewriteIdOf("q1", 1, as_int, rel::Value::Int(5)),
            RewriteIdOf("q1", 1, as_double, rel::Value::Double(5.0)));
  EXPECT_NE(RewriteIdOf("q1", 1, as_int, rel::Value::Int(5)),
            RewriteIdOf("q1", 1, {rel::Value::Double(2.5), std::nullopt},
                        rel::Value::Int(5)));
}

TEST_F(RewriteIdTest, OppositeTriggerSidesGiveDifferentIds) {
  const RowTemplate row = {rel::Value::Int(2), rel::Value::Int(2)};
  EXPECT_NE(RewriteIdOf("q1", 0, row, rel::Value::Int(2)),
            RewriteIdOf("q1", 1, row, rel::Value::Int(2)));
  // Moving a value between the bound row and valDA changes the id too.
  EXPECT_NE(RewriteIdOf("q1", 1, {rel::Value::Str("ab")}, rel::Value::Str("")),
            RewriteIdOf("q1", 1, {rel::Value::Str("a")}, rel::Value::Str("b")));
}

// --- DAI-T dedup, end to end -------------------------------------------------

TEST(RewriteDedupTest, DaiTSendsEachRewrittenQueryOnceUntilRefresh) {
  Options opts;
  opts.num_nodes = 16;
  opts.algorithm = Algorithm::kDaiT;
  ContinuousQueryNetwork net(std::move(opts));
  ASSERT_TRUE(net.catalog()
                  ->Register(rel::RelationSchema(
                      "R", {{"A", rel::ValueType::kInt},
                            {"B", rel::ValueType::kInt},
                            {"C", rel::ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(net.catalog()
                  ->Register(rel::RelationSchema(
                      "S", {{"D", rel::ValueType::kInt},
                            {"E", rel::ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      net.SubmitQuery(1, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E").ok());

  // Same bound select value (A) and join value (B): the same Key(q'),
  // although the tuples differ in C. Only the first is reindexed.
  using rel::Value;
  ASSERT_TRUE(
      net.InsertTuple(2, "R", {Value::Int(4), Value::Int(7), Value::Int(1)})
          .ok());
  ASSERT_TRUE(
      net.InsertTuple(3, "R", {Value::Int(4), Value::Int(7), Value::Int(2)})
          .ok());
  NodeMetrics m = net.TotalMetrics();
  EXPECT_EQ(m.rewrites_sent, 1u);
  EXPECT_EQ(m.rewrites_skipped_dup, 1u);

  // A different bound value is a different rewritten query.
  ASSERT_TRUE(
      net.InsertTuple(4, "R", {Value::Int(5), Value::Int(7), Value::Int(1)})
          .ok());
  m = net.TotalMetrics();
  EXPECT_EQ(m.rewrites_sent, 2u);
  EXPECT_EQ(m.rewrites_skipped_dup, 1u);

  // The refresh clears the dedup set before replaying the logs, so the
  // replayed tuples reindex their rewritten queries again, once each.
  net.RefreshIndexes();
  m = net.TotalMetrics();
  EXPECT_EQ(m.rewrites_sent, 4u);
  EXPECT_EQ(m.rewrites_skipped_dup, 2u);

  // The join still answers once per content row.
  ASSERT_TRUE(net.InsertTuple(5, "S", {Value::Int(9), Value::Int(7)}).ok());
  std::vector<Notification> got = net.TakeNotifications(1);
  std::vector<std::string> rows;
  for (const Notification& n : got) {
    rows.push_back(n.row[0].ToKeyString() + "," + n.row[1].ToKeyString());
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  EXPECT_EQ(rows, (std::vector<std::string>{"4,9", "5,9"}));
}

}  // namespace
}  // namespace contjoin::core
