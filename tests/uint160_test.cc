#include "common/uint160.h"

#include <gtest/gtest.h>

#include <array>
#include <compare>
#include <vector>

#include "common/rng.h"

namespace contjoin {
namespace {

TEST(Uint160Test, DefaultIsZero) {
  Uint160 z;
  EXPECT_EQ(z.ToHex(), std::string(40, '0'));
  EXPECT_EQ(z.Low64(), 0u);
}

TEST(Uint160Test, FromUint64RoundTrips) {
  Uint160 v = Uint160::FromUint64(0x1234567890ABCDEFull);
  EXPECT_EQ(v.Low64(), 0x1234567890ABCDEFull);
  EXPECT_EQ(v.ToHex(), "0000000000000000000000001234567890abcdef");
}

TEST(Uint160Test, FromHexRoundTrips) {
  bool ok = false;
  Uint160 v = Uint160::FromHex("a9993e364706816aba3e25717850c26c9cd0d89d", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(v.ToHex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Uint160Test, FromHexShortIsValueExtended) {
  bool ok = false;
  Uint160 v = Uint160::FromHex("ff", &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(v, Uint160::FromUint64(255));
}

TEST(Uint160Test, FromHexRejectsGarbage) {
  bool ok = true;
  (void)Uint160::FromHex("xyz", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  (void)Uint160::FromHex(std::string(41, 'a'), &ok);
  EXPECT_FALSE(ok);
}

TEST(Uint160Test, AdditionCarriesAcrossWords) {
  Uint160 a = Uint160::FromHex("00000000ffffffffffffffffffffffffffffffff");
  Uint160 one = Uint160::FromUint64(1);
  EXPECT_EQ((a + one).ToHex(), "0000000100000000000000000000000000000000");
}

TEST(Uint160Test, AdditionWrapsModulo2To160) {
  Uint160 max = Uint160::Max();
  Uint160 one = Uint160::FromUint64(1);
  EXPECT_EQ(max + one, Uint160());
  EXPECT_EQ(max + max, max - one);
}

TEST(Uint160Test, SubtractionBorrowsAndWraps) {
  Uint160 zero;
  Uint160 one = Uint160::FromUint64(1);
  EXPECT_EQ(zero - one, Uint160::Max());
  Uint160 a = Uint160::FromHex("0000000100000000000000000000000000000000");
  EXPECT_EQ((a - one).ToHex(), "00000000ffffffffffffffffffffffffffffffff");
}

TEST(Uint160Test, AdditionSubtractionInverse) {
  Uint160 a = HashKey("alpha");
  Uint160 b = HashKey("beta");
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a - b) + b, a);
}

TEST(Uint160Test, ComparisonIsLexicographicOnWords) {
  Uint160 small = Uint160::FromUint64(5);
  Uint160 big = Uint160::FromHex("8000000000000000000000000000000000000000");
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, Uint160::FromUint64(5));
}

TEST(Uint160Test, PowerOfTwo) {
  EXPECT_EQ(Uint160::PowerOfTwo(0), Uint160::FromUint64(1));
  EXPECT_EQ(Uint160::PowerOfTwo(63), Uint160::FromUint64(1ull << 63));
  EXPECT_EQ(Uint160::PowerOfTwo(159).ToHex(),
            "8000000000000000000000000000000000000000");
  // Sum of all powers of two is 2^160 - 1.
  Uint160 sum;
  for (int i = 0; i < 160; ++i) sum += Uint160::PowerOfTwo(i);
  EXPECT_EQ(sum, Uint160::Max());
}

TEST(Uint160Test, ClockwiseDistance) {
  Uint160 a = Uint160::FromUint64(10);
  Uint160 b = Uint160::FromUint64(3);
  EXPECT_EQ(a.ClockwiseDistanceFrom(b), Uint160::FromUint64(7));
  // Wrapping: from 10 back around to 3.
  EXPECT_EQ(b.ClockwiseDistanceFrom(a),
            Uint160::Max() - Uint160::FromUint64(6));
}

TEST(Uint160Test, InOpenClosedBasic) {
  auto u = [](uint64_t v) { return Uint160::FromUint64(v); };
  EXPECT_TRUE(u(5).InOpenClosed(u(3), u(8)));
  EXPECT_TRUE(u(8).InOpenClosed(u(3), u(8)));   // Closed at b.
  EXPECT_FALSE(u(3).InOpenClosed(u(3), u(8)));  // Open at a.
  EXPECT_FALSE(u(9).InOpenClosed(u(3), u(8)));
}

TEST(Uint160Test, InOpenClosedWrapsAroundZero) {
  auto u = [](uint64_t v) { return Uint160::FromUint64(v); };
  Uint160 high = Uint160::Max() - u(10);
  // Interval (Max-10, 5]: contains Max, 0, 3, 5 but not 6 or Max-10.
  EXPECT_TRUE(Uint160::Max().InOpenClosed(high, u(5)));
  EXPECT_TRUE(Uint160().InOpenClosed(high, u(5)));
  EXPECT_TRUE(u(5).InOpenClosed(high, u(5)));
  EXPECT_FALSE(u(6).InOpenClosed(high, u(5)));
  EXPECT_FALSE(high.InOpenClosed(high, u(5)));
}

TEST(Uint160Test, DegenerateIntervalIsFullRing) {
  auto a = HashKey("solo");
  EXPECT_TRUE(a.InOpenClosed(a, a));
  EXPECT_TRUE(HashKey("other").InOpenClosed(a, a));
  EXPECT_FALSE(a.InOpenOpen(a, a));
  EXPECT_TRUE(HashKey("other").InOpenOpen(a, a));
}

TEST(Uint160Test, InOpenOpenExcludesBothEnds) {
  auto u = [](uint64_t v) { return Uint160::FromUint64(v); };
  EXPECT_TRUE(u(5).InOpenOpen(u(3), u(8)));
  EXPECT_FALSE(u(8).InOpenOpen(u(3), u(8)));
  EXPECT_FALSE(u(3).InOpenOpen(u(3), u(8)));
}

// Word-by-word lexicographic order, most-significant word first.
std::strong_ordering ReferenceCompare(const Uint160& x, const Uint160& y) {
  for (int i = 0; i < 5; ++i) {
    if (x.word(i) != y.word(i)) {
      return x.word(i) < y.word(i) ? std::strong_ordering::less
                                   : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

// The ring intervals are decided by ordering alone; these are the
// subtraction-based definitions they must agree with: x in (a, b] iff
// 0 < x - a <= b - a, with (a, a] the full ring and (a, a) the ring minus a.
bool ReferenceInOpenClosed(const Uint160& x, const Uint160& a,
                           const Uint160& b) {
  if (a == b) return true;
  const Uint160 dx = x - a;
  const Uint160 db = b - a;
  return ReferenceCompare(dx, Uint160()) > 0 && ReferenceCompare(dx, db) <= 0;
}

bool ReferenceInOpenOpen(const Uint160& x, const Uint160& a,
                         const Uint160& b) {
  if (a == b) return x != a;
  const Uint160 dx = x - a;
  const Uint160 db = b - a;
  return ReferenceCompare(dx, Uint160()) > 0 && ReferenceCompare(dx, db) < 0;
}

// Random identifiers whose words come from a small pool half the time, so
// that equal high halves, equal middle halves and equal last words (the
// three stages of the comparison) are all common.
Uint160 RandomId(Rng& rng) {
  static const std::array<const char*, 6> kWords = {
      "00000000", "00000001", "7fffffff", "80000000", "fffffffe", "ffffffff"};
  std::string hex;
  for (int w = 0; w < 5; ++w) {
    if (rng.NextBelow(2) == 0) {
      hex += kWords[rng.NextBelow(kWords.size())];
    } else {
      static const char kHex[] = "0123456789abcdef";
      const uint64_t v = rng.Next();
      for (int nibble = 0; nibble < 8; ++nibble) {
        hex.push_back(kHex[(v >> (4 * nibble)) & 0xF]);
      }
    }
  }
  return Uint160::FromHex(hex);
}

void ExpectMatchesReference(const Uint160& x, const Uint160& a,
                            const Uint160& b) {
  EXPECT_EQ(x.InOpenClosed(a, b), ReferenceInOpenClosed(x, a, b))
      << "x=" << x.ToHex() << " a=" << a.ToHex() << " b=" << b.ToHex();
  EXPECT_EQ(x.InOpenOpen(a, b), ReferenceInOpenOpen(x, a, b))
      << "x=" << x.ToHex() << " a=" << a.ToHex() << " b=" << b.ToHex();
  EXPECT_TRUE((x <=> a) == ReferenceCompare(x, a))
      << "x=" << x.ToHex() << " a=" << a.ToHex();
  EXPECT_EQ(x == a, ReferenceCompare(x, a) == 0);
}

TEST(Uint160Test, IntervalsAndOrderMatchSubtractionDefinitions) {
  Rng rng(160);
  for (int i = 0; i < 100000; ++i) {
    const Uint160 a = RandomId(rng);
    const Uint160 b = RandomId(rng);
    const Uint160 x = RandomId(rng);
    ExpectMatchesReference(x, a, b);
    ExpectMatchesReference(x, b, a);  // The complementary (wrapping) side.
    ExpectMatchesReference(a, a, b);  // x == a.
    ExpectMatchesReference(b, a, b);  // x == b.
    ExpectMatchesReference(x, a, a);  // a == b.
    ExpectMatchesReference(a, a, a);
    if (HasFailure()) return;
  }
}

TEST(Uint160Test, IntervalEdgeCasesMatchSubtractionDefinitions) {
  const Uint160 zero;
  const Uint160 one = Uint160::FromUint64(1);
  const Uint160 max = Uint160::Max();
  const Uint160 half = Uint160::PowerOfTwo(159);
  const std::vector<Uint160> points = {
      zero, one, max, max - one, half, half - one, half + one,
      Uint160::PowerOfTwo(64), Uint160::PowerOfTwo(128),
      Uint160::PowerOfTwo(128) - one, HashKey("edge")};
  for (const Uint160& a : points) {
    for (const Uint160& b : points) {
      for (const Uint160& x : points) ExpectMatchesReference(x, a, b);
    }
  }
  // Intervals wrapping through zero, spelled out.
  EXPECT_TRUE(zero.InOpenClosed(max, one));
  EXPECT_TRUE(one.InOpenClosed(max, one));
  EXPECT_FALSE(max.InOpenClosed(max, one));
  EXPECT_TRUE(zero.InOpenOpen(max, one));
  EXPECT_FALSE(one.InOpenOpen(max, one));
  EXPECT_TRUE(max.InOpenClosed(half, zero));
  EXPECT_TRUE(zero.InOpenClosed(half, zero));
  EXPECT_FALSE(zero.InOpenOpen(half, zero));
  EXPECT_FALSE(one.InOpenClosed(half, zero));
}

TEST(Uint160Test, HashKeyMatchesSha1) {
  Uint160 id = HashKey("abc");
  EXPECT_EQ(id.ToHex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Uint160Test, HashValueSpreads) {
  EXPECT_NE(HashKey("a").HashValue(), HashKey("b").HashValue());
}

TEST(Uint160Test, ShortString) {
  EXPECT_EQ(HashKey("abc").ToShortString(), "a9993e3647");
}

}  // namespace
}  // namespace contjoin
