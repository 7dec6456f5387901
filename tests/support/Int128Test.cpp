//===- tests/support/Int128Test.cpp - Int128 unit tests -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "support/Int128.h"
#include "support/WideInt.h"

#include "gtest/gtest.h"

#include <climits>
#include <random>
#include <type_traits>

using namespace edda;

// Widening is implicit; narrowing must never become silent.
static_assert(std::is_convertible_v<int64_t, Int128>);
static_assert(!std::is_convertible_v<Int128, int64_t>);
static_assert(!std::is_convertible_v<Int128, __int128>);

namespace {

using U128 = unsigned __int128;

/// The value with two's-complement words \p Hi and \p Lo.
Int128 fromWords(uint64_t Hi, uint64_t Lo) {
  return Int128(static_cast<__int128>((U128(Hi) << 64) | Lo));
}

/// |V| as an unsigned 128-bit value; |min()| is 2^127, which fits.
U128 magnitude(Int128 V) {
  U128 W = static_cast<U128>(static_cast<__int128>(V));
  return V.isNegative() ? -W : W;
}

/// Deterministic stream of interesting 128-bit values: random words
/// mixed with boundary shapes (all-ones, sign-bit edges, small values).
class ValueStream {
public:
  explicit ValueStream(uint64_t Seed) : Rng(Seed) {}

  Int128 next() {
    switch (Rng() % 8) {
    case 0:
      return Int128(static_cast<int64_t>(Rng()));
    case 1:
      return Int128(static_cast<int64_t>(Rng() % 32) - 16);
    case 2:
      return Int128::min();
    case 3:
      return Int128::max();
    case 4:
      return fromWords(Rng(), ~0ull);
    case 5:
      return fromWords(0, Rng());
    default:
      return fromWords(Rng(), Rng());
    }
  }

private:
  std::mt19937_64 Rng;
};

} // namespace

TEST(Int128, ConstructionAndNarrowing) {
  EXPECT_TRUE(Int128(0).isZero());
  EXPECT_TRUE(Int128(-1).isNegative());
  EXPECT_FALSE(Int128(1).isNegative());
  EXPECT_TRUE(Int128(INT64_MIN).fitsInt64());
  EXPECT_TRUE(Int128(INT64_MAX).fitsInt64());
  EXPECT_EQ(Int128(INT64_MIN).toInt64(), INT64_MIN);
  EXPECT_EQ(Int128(INT64_MAX).toInt64(), INT64_MAX);
  EXPECT_FALSE(Int128::min().fitsInt64());
  EXPECT_FALSE(Int128::max().fitsInt64());
  EXPECT_FALSE((Int128(INT64_MAX) + Int128(1)).fitsInt64());
  EXPECT_FALSE((Int128(INT64_MIN) - Int128(1)).fitsInt64());
  EXPECT_EQ(Int128(INT64_MIN).tryInt64(), std::optional<int64_t>(INT64_MIN));
  EXPECT_FALSE(Int128::max().tryInt64().has_value());
  // The one conversion to and from the native type round-trips.
  EXPECT_EQ(Int128(static_cast<__int128>(Int128::min())), Int128::min());
  EXPECT_EQ(static_cast<__int128>(Int128(-5)), static_cast<__int128>(-5));
}

TEST(Int128, MinNegationWrapsLikeHardware) {
  // -min() is unrepresentable and wraps back to min(), exactly like
  // int64; checkedNeg is the loud variant.
  EXPECT_EQ(-Int128::min(), Int128::min());
  EXPECT_EQ(Int128::min() / Int128(-1), Int128::min());
  EXPECT_EQ(Int128::min() % Int128(-1), Int128(0));
  EXPECT_FALSE(checkedNeg(Int128::min()).has_value());
  EXPECT_EQ(checkedNeg(Int128::max()),
            std::optional<Int128>(Int128::min() + Int128(1)));
}

TEST(Int128, CheckedEdges) {
  EXPECT_FALSE(checkedAdd(Int128::max(), Int128(1)).has_value());
  EXPECT_FALSE(checkedSub(Int128::min(), Int128(1)).has_value());
  EXPECT_FALSE(checkedMul(Int128::min(), Int128(-1)).has_value());
  EXPECT_TRUE(checkedMul(Int128::min(), Int128(1)).has_value());
  EXPECT_EQ(checkedAdd(Int128::max(), Int128(-1)),
            std::optional<Int128>(Int128::max() - Int128(1)));
  // The full 64x64 products that poison CheckedInt are exact here.
  std::optional<Int128> Big =
      checkedMul(Int128(INT64_MAX), Int128(INT64_MAX));
  ASSERT_TRUE(Big.has_value());
  EXPECT_EQ(*Big / Int128(INT64_MAX), Int128(INT64_MAX));
}

TEST(Int128, FloorCeilDivSignCombinations) {
  const int64_t Values[] = {7, -7, 6, -6, 1, -1, 0, 25, -25};
  const int64_t Divs[] = {2, -2, 3, -3, 1, -1, 7, -7};
  for (int64_t A : Values) {
    for (int64_t B : Divs) {
      SCOPED_TRACE(std::to_string(A) + "/" + std::to_string(B));
      EXPECT_EQ(floorDiv(Int128(A), Int128(B)), Int128(floorDiv(A, B)));
      EXPECT_EQ(ceilDiv(Int128(A), Int128(B)), Int128(ceilDiv(A, B)));
      // Truncating division matches int64 semantics too.
      EXPECT_EQ(Int128(A) / Int128(B), Int128(A / B));
      EXPECT_EQ(Int128(A) % Int128(B), Int128(A % B));
    }
  }
}

TEST(Int128, CheckedFloorCeilDivMinEdge) {
  EXPECT_FALSE(checkedFloorDiv(Int128::min(), Int128(-1)).has_value());
  EXPECT_FALSE(checkedCeilDiv(Int128::min(), Int128(-1)).has_value());
  EXPECT_EQ(checkedFloorDiv(Int128::min(), Int128(1)),
            std::optional<Int128>(Int128::min()));
  EXPECT_EQ(checkedFloorDiv(Int128::min(), Int128(2)),
            std::optional<Int128>(fromWords(3ull << 62, 0)));
}

TEST(Int128, GcdEdges) {
  EXPECT_EQ(gcdOf(Int128(0), Int128(0)), Int128(0));
  EXPECT_EQ(gcdOf(Int128(0), Int128(-42)), Int128(42));
  EXPECT_EQ(gcdOf(Int128(12), Int128(18)), Int128(6));
  // Huge operands: gcd(3 * 2^80, 7 * 2^80) = 2^80.
  Int128 P80 = fromWords(1ull << 16, 0);
  EXPECT_EQ(gcdOf(P80 * Int128(3), P80 * Int128(7)), P80);
  // |min| is unrepresentable and wraps to min(), like gcd64; a -1
  // operand never reaches the overflowing min % -1.
  EXPECT_EQ(gcdOf(Int128::min(), Int128::min()), Int128::min());
  EXPECT_EQ(gcdOf(Int128::min(), Int128(-1)), Int128(1));
}

TEST(Int128, DecimalRendering) {
  EXPECT_EQ(Int128(0).str(), "0");
  EXPECT_EQ(Int128(-1).str(), "-1");
  EXPECT_EQ(Int128(INT64_MIN).str(), "-9223372036854775808");
  EXPECT_EQ(Int128::max().str(),
            "170141183460469231731687303715884105727");
  EXPECT_EQ(Int128::min().str(),
            "-170141183460469231731687303715884105728");
}

TEST(Int128, WidenNarrowRoundTrips) {
  std::vector<int64_t> V = {0, 1, -1, INT64_MIN, INT64_MAX, 123456789};
  std::optional<std::vector<int64_t>> Back = narrowVec(widenVec(V));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, V);

  std::vector<Int128> Wide = widenVec(V);
  Wide.push_back(Int128(INT64_MAX) + Int128(1));
  EXPECT_FALSE(narrowVec(Wide).has_value());
}

TEST(CheckedInt128, PoisonOnlyPast128Bits) {
  // The exact sum that poisons CheckedInt is routine at 128 bits ...
  Checked<Int128> Sum{Int128(INT64_MAX)};
  Sum += Checked<Int128>(Int128(INT64_MAX)) * Int128(INT64_MAX);
  ASSERT_TRUE(Sum.valid());
  // ... and only a genuine 128-bit overflow poisons, persistently.
  Checked<Int128> Top{Int128::max()};
  Top *= Int128(2);
  EXPECT_FALSE(Top.valid());
  Top -= Int128(100);
  EXPECT_FALSE(Top.valid());
  EXPECT_FALSE(Top.getOpt().has_value());
}

TEST(Int128Property, DivModMatchesDefinition) {
  // Truncating division: Q*B + R == A with |R| < |B|, and R is zero or
  // takes A's sign.
  ValueStream VS(0xEDDA1281);
  for (int I = 0; I < 20000; ++I) {
    Int128 A = VS.next(), B = VS.next();
    if (B.isZero() || (A == Int128::min() && B == Int128(-1)))
      continue;
    Int128 Q = A / B, R = A % B;
    EXPECT_EQ(Q * B + R, A);
    EXPECT_LT(magnitude(R), magnitude(B));
    EXPECT_TRUE(R.isZero() || R.isNegative() == A.isNegative());
  }
}

TEST(Int128Property, CheckedOpsAgreeWithWideNative) {
  // Add and subtract overflow exactly when the operands' signs make the
  // wrapped result's sign impossible; otherwise they return it. A
  // product that does not overflow divides back to its operand.
  ValueStream VS(0xEDDA1282);
  for (int I = 0; I < 20000; ++I) {
    Int128 A = VS.next(), B = VS.next();
    Int128 Sum = A + B, Diff = A - B;
    bool AddOverflows = A.isNegative() == B.isNegative() &&
                        Sum.isNegative() != A.isNegative();
    bool SubOverflows = A.isNegative() != B.isNegative() &&
                        Diff.isNegative() != A.isNegative();
    EXPECT_EQ(checkedAdd(A, B),
              AddOverflows ? std::nullopt : std::optional<Int128>(Sum));
    EXPECT_EQ(checkedSub(A, B),
              SubOverflows ? std::nullopt : std::optional<Int128>(Diff));

    std::optional<Int128> Prod = checkedMul(A, B);
    if (Prod) {
      if (!B.isZero()) {
        EXPECT_EQ(*Prod / B, A);
        EXPECT_TRUE((*Prod % B).isZero());
      }
    } else {
      EXPECT_FALSE(A.isZero());
      EXPECT_FALSE(B.isZero());
    }
  }
}

TEST(Int128Property, FloorCeilDivMatchDefinition) {
  // A - F*B is zero or takes B's sign, A - C*B is zero or takes the
  // opposite sign, and both are smaller than |B|. The true remainders
  // fit, so wrapping arithmetic computes them exactly.
  ValueStream VS(0xEDDA1283);
  for (int I = 0; I < 20000; ++I) {
    Int128 A = VS.next(), B = VS.next();
    if (B.isZero() || (A == Int128::min() && B == Int128(-1)))
      continue;
    Int128 F = floorDiv(A, B), C = ceilDiv(A, B);
    EXPECT_TRUE(C == F || C == F + Int128(1));
    Int128 RF = A - F * B, RC = A - C * B;
    EXPECT_LT(magnitude(RF), magnitude(B));
    EXPECT_LT(magnitude(RC), magnitude(B));
    EXPECT_TRUE(RF.isZero() || RF.isNegative() == B.isNegative());
    EXPECT_TRUE(RC.isZero() || RC.isNegative() != B.isNegative());
  }
}
