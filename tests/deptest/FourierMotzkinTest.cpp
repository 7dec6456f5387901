//===- tests/deptest/FourierMotzkinTest.cpp - FM unit tests ---------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/FourierMotzkin.h"

#include "workload/Generator.h"
#include "gtest/gtest.h"

using namespace edda;

namespace {

LinearSystem makeSystem(unsigned NumVars,
                        std::vector<LinearConstraint> Cs) {
  LinearSystem S(NumVars);
  for (LinearConstraint &C : Cs)
    S.add(std::move(C));
  return S;
}

} // namespace

TEST(FourierMotzkin, EmptySystemDependent) {
  FmResult R = runFourierMotzkin(LinearSystem(3));
  ASSERT_EQ(R.St, FmResult::Status::Dependent);
  EXPECT_EQ(R.Sample->size(), 3u);
}

TEST(FourierMotzkin, SimpleFeasibleBox) {
  LinearSystem S = makeSystem(2, {{{1, 0}, 5},
                                  {{-1, 0}, -1},
                                  {{0, 1}, 7},
                                  {{0, -1}, -2}});
  FmResult R = runFourierMotzkin(S);
  ASSERT_EQ(R.St, FmResult::Status::Dependent);
  EXPECT_TRUE(S.satisfiedBy(*R.Sample));
}

TEST(FourierMotzkin, RealInfeasible) {
  // t0 + t1 <= 0 and t0 + t1 >= 1.
  LinearSystem S = makeSystem(2, {{{1, 1}, 0}, {{-1, -1}, -1}});
  EXPECT_EQ(runFourierMotzkin(S).St, FmResult::Status::Independent);
}

TEST(FourierMotzkin, IntegerGapFirstVariable) {
  // 3 <= 2t <= 3: real-feasible at t = 1.5, integer-empty; the first
  // back-substitution step proves independence exactly. (Normalization
  // already tightens 2t <= 3 to t <= 1, which also works.)
  LinearSystem S = makeSystem(1, {{{2}, 3}, {{-2}, -3}});
  FmResult R = runFourierMotzkin(S);
  EXPECT_EQ(R.St, FmResult::Status::Independent);
}

TEST(FourierMotzkin, IntegerGapCoupled) {
  // 2t0 + 2t1 == 1 over a box: every derived constraint normalizes to a
  // contradiction over the integers.
  LinearSystem S = makeSystem(2, {{{2, 2}, 1},
                                  {{-2, -2}, -1},
                                  {{1, 0}, 10},
                                  {{-1, 0}, 10},
                                  {{0, 1}, 10},
                                  {{0, -1}, 10}});
  EXPECT_EQ(runFourierMotzkin(S).St, FmResult::Status::Independent);
}

TEST(FourierMotzkin, UnboundedFeasible) {
  // t0 - t1 <= -1 alone: unbounded but feasible.
  LinearSystem S = makeSystem(2, {{{1, -1}, -1}});
  FmResult R = runFourierMotzkin(S);
  ASSERT_EQ(R.St, FmResult::Status::Dependent);
  EXPECT_TRUE(S.satisfiedBy(*R.Sample));
}

TEST(FourierMotzkin, ThreeVariableCoupling) {
  // The workload's FM template shape: 1 <= t0,t1,t2 <= 10 and
  // 1 <= t0 + t1 - t2 - d <= 10 with d = 5: feasible.
  LinearSystem S = makeSystem(3, {
                                     {{1, 0, 0}, 10},
                                     {{-1, 0, 0}, -1},
                                     {{0, 1, 0}, 10},
                                     {{0, -1, 0}, -1},
                                     {{0, 0, 1}, 10},
                                     {{0, 0, -1}, -1},
                                     {{1, 1, -1}, 15},  // <= 10 + 5
                                     {{-1, -1, 1}, -6}, // >= 1 + 5
                                 });
  FmResult R = runFourierMotzkin(S);
  ASSERT_EQ(R.St, FmResult::Status::Dependent);
  EXPECT_TRUE(S.satisfiedBy(*R.Sample));
}

TEST(FourierMotzkin, ThreeVariableCouplingInfeasible) {
  // Same shape with d = 2N - 1 = 19: t0 + t1 - t2 <= 19 + 10 fine but
  // >= 20 requires t0 + t1 >= 21 + t2 >= 22 > 20.
  LinearSystem S = makeSystem(3, {
                                     {{1, 0, 0}, 10},
                                     {{-1, 0, 0}, -1},
                                     {{0, 1, 0}, 10},
                                     {{0, -1, 0}, -1},
                                     {{0, 0, 1}, 10},
                                     {{0, 0, -1}, -1},
                                     {{1, 1, -1}, 29},
                                     {{-1, -1, 1}, -20},
                                 });
  EXPECT_EQ(runFourierMotzkin(S).St, FmResult::Status::Independent);
}

TEST(FourierMotzkin, BranchAndBoundResolvesParityGap) {
  // 2t0 - 2t1 == 1 is unsatisfiable over Z. Gcd normalization already
  // kills it; build a sneakier gap needing coordination:
  //   t0 + 2t1 == 2, 2t0 + t1 == 2  ->  real solution (2/3, 2/3),
  // integer-infeasible. Depending on elimination order this exercises
  // the branch & bound or the first-step gap.
  LinearSystem S = makeSystem(2, {{{1, 2}, 2},
                                  {{-1, -2}, -2},
                                  {{2, 1}, 2},
                                  {{-2, -1}, -2}});
  FmResult R = runFourierMotzkin(S);
  EXPECT_EQ(R.St, FmResult::Status::Independent);
}

TEST(FourierMotzkin, DisabledBranchAndBoundIsPaperConfig) {
  // MaxBranchNodes = 0 reproduces the paper's configuration (no
  // explicit branch & bound): integer gaps that need coordinated
  // splitting come back Unknown instead of Independent.
  FourierMotzkinOptions Opts;
  Opts.MaxBranchNodes = 0;
  LinearSystem S = makeSystem(2, {{{1, 2}, 2},
                                  {{-1, -2}, -2},
                                  {{2, 1}, 2},
                                  {{-2, -1}, -2}});
  FmResult R = runFourierMotzkin(S, Opts);
  // Either the first-step gap already catches it (exact) or the budget
  // gate reports Unknown; both are sound, neither is Dependent.
  EXPECT_NE(R.St, FmResult::Status::Dependent);
}

TEST(FourierMotzkin, CombineBudgetGivesUpUnknown) {
  // The parity gap system is infeasible, so the witness search cannot
  // shortcut it and elimination must combine; with the combine cap at
  // one the solver must stop at Unknown (not Overflowed — a wide retry
  // could not help), and the work counter must have moved.
  LinearSystem S = makeSystem(2, {{{1, 2}, 2},
                                  {{-1, -2}, -2},
                                  {{2, 1}, 2},
                                  {{-2, -1}, -2}});
  FmResult Unlimited = runFourierMotzkin(S);
  ASSERT_EQ(Unlimited.St, FmResult::Status::Independent);
  EXPECT_GE(Unlimited.Combines, 2u);

  FourierMotzkinOptions Capped;
  Capped.MaxCombines = 1;
  FmResult R = runFourierMotzkin(S, Capped);
  EXPECT_EQ(R.St, FmResult::Status::Unknown);
  EXPECT_FALSE(R.Overflowed);
}

TEST(FourierMotzkin, BranchNodeAccounting) {
  // Integer-empty, yet neither shadow settles it: the solve takes three
  // splinters and counts them. With no splinter budget the same system
  // comes back Unknown (budget, not overflow), having taken none.
  LinearSystem S = makeSystem(2, {{{1, 0}, 6},
                                  {{-1, 0}, 6},
                                  {{0, 1}, 6},
                                  {{0, -1}, 6},
                                  {{-3, -5}, 5},
                                  {{-4, 5}, -6},
                                  {{4, -2}, 5}});
  FmResult R = runFourierMotzkin(S);
  EXPECT_EQ(R.St, FmResult::Status::Independent);
  EXPECT_EQ(R.BranchNodes, 3u);

  FourierMotzkinOptions NoSplinters;
  NoSplinters.MaxBranchNodes = 0;
  FmResult R0 = runFourierMotzkin(S, NoSplinters);
  EXPECT_EQ(R0.St, FmResult::Status::Unknown);
  EXPECT_FALSE(R0.Overflowed);
  EXPECT_EQ(R0.BranchNodes, 0u);
}

TEST(FourierMotzkin, BudgetExhaustionReturnsUnknown) {
  // Force Unknown with a tiny constraint cap: eliminating either
  // variable of the (infeasible) parity gap system derives two rows,
  // which overflows a one-constraint system before it can decide.
  FourierMotzkinOptions Opts;
  Opts.MaxConstraints = 1;
  LinearSystem S = makeSystem(2, {{{1, 2}, 2},
                                  {{-1, -2}, -2},
                                  {{2, 1}, 2},
                                  {{-2, -1}, -2}});
  FmResult R = runFourierMotzkin(S, Opts);
  EXPECT_EQ(R.St, FmResult::Status::Unknown);
  EXPECT_FALSE(R.Overflowed);
}

TEST(FourierMotzkinProperty, AgreesWithEnumerationOnRandomSystems) {
  SplitRng Rng(99);
  for (unsigned Iter = 0; Iter < 400; ++Iter) {
    unsigned NumVars = 1 + static_cast<unsigned>(Rng.below(3));
    unsigned NumCs = 1 + static_cast<unsigned>(Rng.below(5));
    LinearSystem S(NumVars);
    for (unsigned C = 0; C < NumCs; ++C) {
      std::vector<int64_t> Coeffs(NumVars);
      for (int64_t &V : Coeffs)
        V = static_cast<int64_t>(Rng.below(7)) - 3;
      S.addLe(std::move(Coeffs),
              static_cast<int64_t>(Rng.below(15)) - 4);
    }
    // Box everything so enumeration terminates.
    for (unsigned V = 0; V < NumVars; ++V) {
      std::vector<int64_t> Up(NumVars, 0), Down(NumVars, 0);
      Up[V] = 1;
      Down[V] = -1;
      S.addLe(std::move(Up), 6);
      S.addLe(std::move(Down), 6);
    }

    bool Feasible = false;
    std::vector<int64_t> Point(NumVars, -6);
    while (true) {
      if (S.satisfiedBy(Point)) {
        Feasible = true;
        break;
      }
      unsigned K = 0;
      while (K < NumVars && Point[K] == 6)
        Point[K++] = -6;
      if (K == NumVars)
        break;
      ++Point[K];
    }

    FmResult R = runFourierMotzkin(S);
    if (Feasible) {
      ASSERT_EQ(R.St, FmResult::Status::Dependent) << "iter " << Iter;
      EXPECT_TRUE(S.satisfiedBy(*R.Sample)) << "iter " << Iter;
    } else {
      ASSERT_EQ(R.St, FmResult::Status::Independent) << "iter " << Iter;
    }
  }
}
