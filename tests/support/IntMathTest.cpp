//===- tests/support/IntMathTest.cpp - IntMath unit tests -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "support/IntMath.h"

#include "gtest/gtest.h"

#include <climits>

using namespace edda;

TEST(Gcd64, BasicValues) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(18, 12), 6);
  EXPECT_EQ(gcd64(7, 13), 1);
  EXPECT_EQ(gcd64(5, 5), 5);
  EXPECT_EQ(gcd64(1, 999), 1);
}

TEST(Gcd64, ZeroHandling) {
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(0, 42), 42);
  EXPECT_EQ(gcd64(42, 0), 42);
}

TEST(Gcd64, NegativeOperands) {
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(12, -18), 6);
  EXPECT_EQ(gcd64(-12, -18), 6);
}

TEST(Gcd64, Int64MinDoesNotOverflow) {
  EXPECT_EQ(gcd64(INT64_MIN, 0), INT64_MIN); // magnitude 2^63 wraps back
  EXPECT_EQ(gcd64(INT64_MIN, 2), 2);
  EXPECT_EQ(gcd64(INT64_MIN, 3), 1);
  EXPECT_EQ(gcd64(INT64_MIN, -1), 1); // never evaluates INT64_MIN % -1
  EXPECT_EQ(gcd64(-1, INT64_MIN), 1);
}

struct DivCase {
  int64_t A;
  int64_t B;
  int64_t Floor;
  int64_t Ceil;
};

class FloorCeilDiv : public ::testing::TestWithParam<DivCase> {};

TEST_P(FloorCeilDiv, MatchesMathematicalDefinition) {
  const DivCase &C = GetParam();
  EXPECT_EQ(floorDiv(C.A, C.B), C.Floor);
  EXPECT_EQ(ceilDiv(C.A, C.B), C.Ceil);
}

INSTANTIATE_TEST_SUITE_P(
    Representative, FloorCeilDiv,
    ::testing::Values(DivCase{7, 2, 3, 4}, DivCase{-7, 2, -4, -3},
                      DivCase{7, -2, -4, -3}, DivCase{-7, -2, 3, 4},
                      DivCase{6, 3, 2, 2}, DivCase{-6, 3, -2, -2},
                      DivCase{0, 5, 0, 0}, DivCase{1, 1, 1, 1},
                      DivCase{-1, 1, -1, -1}, DivCase{5, 10, 0, 1},
                      DivCase{-5, 10, -1, 0}, DivCase{5, -10, -1, 0}));

TEST(FloorCeilDivProperty, ExhaustiveSmallRange) {
  for (int64_t A = -25; A <= 25; ++A) {
    for (int64_t B = -7; B <= 7; ++B) {
      if (B == 0)
        continue;
      int64_t F = floorDiv(A, B);
      int64_t C = ceilDiv(A, B);
      // F is the largest q with q*B <= A ... for positive B; in general
      // floor(A/B) in rational arithmetic.
      EXPECT_LE(F * B * (B > 0 ? 1 : -1), A * (B > 0 ? 1 : -1))
          << A << "/" << B;
      EXPECT_GE(C * B * (B > 0 ? 1 : -1), A * (B > 0 ? 1 : -1))
          << A << "/" << B;
      EXPECT_TRUE(C == F || C == F + 1);
      EXPECT_EQ(C == F, A % B == 0);
    }
  }
}

TEST(CheckedDiv, Int64MinByMinusOneIsOverflowNotUB) {
  // floorDiv/ceilDiv document (INT64_MIN, -1) as a precondition
  // violation; the checked variants are the total versions for call
  // sites reachable with arbitrary coefficients.
  EXPECT_FALSE(checkedFloorDiv(INT64_MIN, -1).has_value());
  EXPECT_FALSE(checkedCeilDiv(INT64_MIN, -1).has_value());
  EXPECT_EQ(checkedFloorDiv(INT64_MIN, 1),
            std::optional<int64_t>(INT64_MIN));
  EXPECT_EQ(checkedCeilDiv(INT64_MIN, 1),
            std::optional<int64_t>(INT64_MIN));
  EXPECT_EQ(checkedFloorDiv(INT64_MIN, 2),
            std::optional<int64_t>(INT64_MIN / 2));
  EXPECT_EQ(checkedCeilDiv(INT64_MIN, 2),
            std::optional<int64_t>(INT64_MIN / 2));
  EXPECT_EQ(checkedFloorDiv(INT64_MAX, -1),
            std::optional<int64_t>(-INT64_MAX));
  // Away from the single overflow pair they agree with the plain
  // helpers.
  EXPECT_EQ(checkedFloorDiv(int64_t{7}, -2),
            std::optional<int64_t>(floorDiv(int64_t{7}, -2)));
  EXPECT_EQ(checkedCeilDiv(int64_t{-7}, 2),
            std::optional<int64_t>(ceilDiv(int64_t{-7}, 2)));
}

TEST(CheckedOps, AddOverflow) {
  EXPECT_EQ(checkedAdd(2, 3), std::optional<int64_t>(5));
  EXPECT_FALSE(checkedAdd(INT64_MAX, 1).has_value());
  EXPECT_FALSE(checkedAdd(INT64_MIN, -1).has_value());
  EXPECT_TRUE(checkedAdd(INT64_MAX, -1).has_value());
}

TEST(CheckedOps, SubOverflow) {
  EXPECT_EQ(checkedSub(2, 3), std::optional<int64_t>(-1));
  EXPECT_FALSE(checkedSub(INT64_MIN, 1).has_value());
  EXPECT_FALSE(checkedSub(0, INT64_MIN).has_value());
}

TEST(CheckedOps, MulOverflow) {
  EXPECT_EQ(checkedMul(-4, 5), std::optional<int64_t>(-20));
  EXPECT_FALSE(checkedMul(INT64_MAX, 2).has_value());
  EXPECT_FALSE(checkedMul(INT64_MIN, -1).has_value());
  EXPECT_TRUE(checkedMul(INT64_MIN, 1).has_value());
}

TEST(CheckedOps, Neg) {
  EXPECT_EQ(checkedNeg(5), std::optional<int64_t>(-5));
  EXPECT_EQ(checkedNeg(INT64_MAX), std::optional<int64_t>(INT64_MIN + 1));
  EXPECT_FALSE(checkedNeg(INT64_MIN).has_value());
}

TEST(CheckedInt, ChainStaysValid) {
  CheckedInt V(10);
  V += CheckedInt(5) * 4;
  V -= 3;
  ASSERT_TRUE(V.valid());
  EXPECT_EQ(V.get(), 27);
}

TEST(CheckedInt, PoisonPersists) {
  CheckedInt V(INT64_MAX);
  V += 1;
  EXPECT_FALSE(V.valid());
  V -= 100; // still poisoned
  EXPECT_FALSE(V.valid());
  EXPECT_FALSE(V.getOpt().has_value());
}

TEST(CheckedInt, MulOverflowPoisons) {
  CheckedInt V(INT64_MAX / 2 + 1);
  V *= 2;
  EXPECT_FALSE(V.valid());
}

TEST(CheckedInt, PoisonedOperandPoisonsResult) {
  CheckedInt Bad(INT64_MAX);
  Bad += 1;
  CheckedInt Good(1);
  CheckedInt Sum = Good + Bad;
  EXPECT_FALSE(Sum.valid());
}
