//===- tests/deptest/ProblemTest.cpp - DependenceProblem tests ------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Problem.h"

#include "deptest/Cascade.h"
#include "testutil/Helpers.h"
#include "gtest/gtest.h"

using namespace edda;
using namespace edda::testutil;

TEST(Problem, WellFormedChecks) {
  DependenceProblem P = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 0)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .build();
  EXPECT_TRUE(P.wellFormed());
  P.NumCommon = 5; // more common loops than loops
  EXPECT_FALSE(P.wellFormed());
}

TEST(Problem, SerializationInjective) {
  DependenceProblem A = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 0)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .build();
  DependenceProblem B = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 1)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .build();
  EXPECT_NE(A.serialize(true), B.serialize(true));
  EXPECT_NE(A.serialize(false), B.serialize(false));
  // Bounds differences only show with bounds included.
  DependenceProblem C = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 0)
                            .bounds(0, 1, 20)
                            .bounds(1, 1, 20)
                            .build();
  EXPECT_EQ(A.serialize(false), C.serialize(false));
  EXPECT_NE(A.serialize(true), C.serialize(true));
}

TEST(Problem, MissingBoundsSerializeDistinctly) {
  DependenceProblem A = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 0)
                            .bounds(0, 1, 10)
                            .build();
  DependenceProblem B = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 0)
                            .bounds(1, 1, 10)
                            .build();
  EXPECT_NE(A.serialize(true), B.serialize(true));
}

TEST(Problem, UnusedCommonLoops) {
  // Outer loop unused, inner used.
  DependenceProblem P = ProblemBuilder(2, 2, 2)
                            .eq({0, 1, 0, -1}, 1)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .bounds(2, 1, 10)
                            .bounds(3, 1, 10)
                            .build();
  std::vector<bool> Unused = P.unusedCommonLoops();
  ASSERT_EQ(Unused.size(), 2u);
  EXPECT_TRUE(Unused[0]);
  EXPECT_FALSE(Unused[1]);
}

TEST(Problem, TriangularBoundMakesOuterUsed) {
  // Inner bound j <= i keeps the outer loop alive even though i is in
  // no subscript.
  DependenceProblem P =
      ProblemBuilder(2, 2, 2)
          .eq({0, 1, 0, -1}, 1)
          .bounds(0, 1, 10)
          .bounds(2, 1, 10)
          .loBound(1, {0, 0, 0, 0}, 1)
          .hiBound(1, {1, 0, 0, 0}, 0)
          .loBound(3, {0, 0, 0, 0}, 1)
          .hiBound(3, {0, 0, 1, 0}, 0)
          .build();
  std::vector<bool> Unused = P.unusedCommonLoops();
  EXPECT_FALSE(Unused[0]);
  EXPECT_FALSE(Unused[1]);
}

TEST(Problem, WithUnusedLoopsRemoved) {
  // The paper's section 5 example: the two-loop programs (a) and (b)
  // collapse to the same single-loop problem once unused indices go.
  DependenceProblem A = ProblemBuilder(2, 2, 2)
                            .eq({1, 0, -1, 0}, -10) // uses outer i
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .bounds(2, 1, 10)
                            .bounds(3, 1, 10)
                            .build();
  DependenceProblem B = ProblemBuilder(2, 2, 2)
                            .eq({0, 1, 0, -1}, -10) // uses inner j
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .bounds(2, 1, 10)
                            .bounds(3, 1, 10)
                            .build();
  std::vector<std::optional<unsigned>> MapA, MapB;
  DependenceProblem RA = A.withUnusedLoopsRemoved(MapA);
  DependenceProblem RB = B.withUnusedLoopsRemoved(MapB);
  EXPECT_EQ(RA.serialize(true), RB.serialize(true));
  EXPECT_EQ(RA.NumCommon, 1u);
  // Program (a) kept its outer loop, (b) its inner one.
  EXPECT_EQ(MapA[0], std::optional<unsigned>(0));
  EXPECT_EQ(MapA[1], std::nullopt);
  EXPECT_EQ(MapB[0], std::nullopt);
  EXPECT_EQ(MapB[1], std::optional<unsigned>(0));
}

// More than 64 columns: the used set spans several bitset words. A
// loop variable reached only through a used loop's bound, and the
// symbolics past column 64 that an equation or a used bound mentions,
// are kept; the rest are not.
TEST(Problem, UsedColumnsBeyondOneWord) {
  const unsigned NumSym = 70, NumX = 4 + NumSym;
  std::vector<int64_t> Eq(NumX, 0), Hi(NumX, 0);
  Eq[1] = 1;          // j (A side, common loop 1)
  Eq[3] = -1;         // j'
  Eq[4 + 66] = 2;     // symbolic 66, column 70
  Hi[0] = 1;          // j <= i: i becomes used through j's bound
  Hi[4 + 69] = 1;     //        + symbolic 69, column 73
  DependenceProblem P = ProblemBuilder(2, 2, 2, NumSym)
                            .eq(Eq, 0)
                            .hiBound(1, Hi, 0)
                            .build();
  std::vector<uint64_t> Bits;
  P.usedColumns(Bits);
  ASSERT_GE(Bits.size(), 2u);
  auto Used = [&](unsigned J) { return (Bits[J / 64] >> (J % 64)) & 1; };
  for (unsigned J = 0; J < NumX; ++J) {
    bool Want = J < 4 || J == 4 + 66 || J == 4 + 69;
    EXPECT_EQ(Used(J), Want) << "column " << J;
  }
  std::vector<std::optional<unsigned>> Map;
  DependenceProblem R = P.withUnusedLoopsRemoved(Map);
  EXPECT_EQ(R.NumSymbolic, 2u);
  EXPECT_EQ(R.NumCommon, 2u);
}

TEST(Problem, RemovalKeepsAnswer) {
  SplitRng Rng(5);
  for (unsigned Iter = 0; Iter < 100; ++Iter) {
    DependenceProblem P = randomProblem(Rng);
    std::vector<std::optional<unsigned>> Map;
    DependenceProblem R = P.withUnusedLoopsRemoved(Map);
    ASSERT_TRUE(R.wellFormed());
    CascadeResult Before = testDependence(P);
    CascadeResult After = testDependence(R);
    if (Before.Answer != DepAnswer::Unknown &&
        After.Answer != DepAnswer::Unknown)
      EXPECT_EQ(Before.Answer, After.Answer) << P.str();
  }
}

TEST(Problem, SwappedRoundTrip) {
  DependenceProblem P = ProblemBuilder(2, 1, 1, 1)
                            .eq({1, 2, -1, 3}, 4)
                            .bounds(0, 1, 10)
                            .bounds(1, 2, 5)
                            .bounds(2, 0, 7)
                            .build();
  DependenceProblem Twice = P.swapped().swapped();
  EXPECT_EQ(P.serialize(true), Twice.serialize(true));
}

TEST(Problem, SwappedPreservesAnswer) {
  SplitRng Rng(17);
  for (unsigned Iter = 0; Iter < 100; ++Iter) {
    DependenceProblem P = randomProblem(Rng);
    CascadeResult A = testDependence(P);
    CascadeResult B = testDependence(P.swapped());
    if (A.Answer != DepAnswer::Unknown && B.Answer != DepAnswer::Unknown)
      EXPECT_EQ(A.Answer, B.Answer) << P.str();
  }
}

TEST(Problem, StrSmoke) {
  DependenceProblem P = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, -10)
                            .bounds(0, 1, 10)
                            .build();
  std::string S = P.str();
  EXPECT_NE(S.find("x0"), std::string::npos);
  EXPECT_NE(S.find("+inf"), std::string::npos);
}
