//===- tests/deptest/FourierMotzkinPropertyTest.cpp - FM properties -------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the Omega-style exact FM core, each holding a
/// structural claim of docs/ALGORITHMS.md section 13 against brute
/// enumeration over boxed random systems:
///
///   * every integer point of the dark shadow lifts to an integer point
///     of the original system (the dark-shadow theorem);
///   * dark shadow plus splinters cover the projection exactly (Pugh's
///     splinter theorem), in both directions;
///   * redundant-inequality pruning preserves the integer solution set;
///   * the core decides every boxed system as enumeration does, and FM
///     sub-result sharing serves what a fresh solve returns;
///   * the 128-bit tier agrees with the 64-bit tier wherever both
///     decide.
///
/// Systems are boxed so enumeration terminates; the box rows are part
/// of the system under test, so every shadow inherits them and the
/// enumerations below are complete, not samples.
///
//===----------------------------------------------------------------------===//

#include "deptest/FourierMotzkin.h"

#include "support/IntMath.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <optional>
#include <vector>

using namespace edda;

namespace {

constexpr int64_t Box = 4;

/// A random system over NumVars in [1,3] with every variable boxed to
/// [-Box, Box]; coefficients in [-3, 3] keep non-unit bounds (the dark
/// shadow's interesting case) common.
LinearSystem randomBoxedSystem(SplitRng &Rng) {
  unsigned NumVars = 1 + static_cast<unsigned>(Rng.below(3));
  unsigned NumCs = 1 + static_cast<unsigned>(Rng.below(5));
  LinearSystem S(NumVars);
  for (unsigned C = 0; C < NumCs; ++C) {
    std::vector<int64_t> Coeffs(NumVars);
    for (int64_t &V : Coeffs)
      V = static_cast<int64_t>(Rng.below(7)) - 3;
    S.addLe(std::move(Coeffs), static_cast<int64_t>(Rng.below(15)) - 4);
  }
  for (unsigned V = 0; V < NumVars; ++V) {
    std::vector<int64_t> Up(NumVars, 0), Down(NumVars, 0);
    Up[V] = 1;
    Down[V] = -1;
    S.addLe(std::move(Up), Box);
    S.addLe(std::move(Down), Box);
  }
  return S;
}

/// Walks the integer box, returning the first point satisfying every
/// row of \p Rows, or nullopt. Row coefficients outside the box's
/// variables do not occur (all systems here share NumVars).
std::optional<std::vector<int64_t>>
firstBoxPoint(unsigned NumVars,
              const std::vector<LinearConstraint> &Rows) {
  std::vector<int64_t> Point(NumVars, -Box);
  while (true) {
    bool Ok = true;
    for (const LinearConstraint &R : Rows) {
      std::optional<int64_t> Lhs = R.lhsAt(Point);
      if (!Lhs || *Lhs > R.Bound) {
        Ok = false;
        break;
      }
    }
    if (Ok)
      return Point;
    unsigned K = 0;
    while (K < NumVars && Point[K] == Box)
      Point[K++] = -Box;
    if (K == NumVars)
      return std::nullopt;
    ++Point[K];
  }
}

std::optional<std::vector<int64_t>> firstBoxPoint(const LinearSystem &S) {
  return firstBoxPoint(S.numVars(), S.constraints());
}

/// Integer values of Var compatible with \p Point under the combined
/// bounds: max over lowers of ceil, min over uppers of floor. Lowers
/// carry Coeffs[Var] = -c (c > 0), uppers Coeffs[Var] = a > 0.
bool liftExists(const FmEliminationT<int64_t> &E,
                const std::vector<int64_t> &Point) {
  std::optional<int64_t> Lo, Hi;
  for (const LinearConstraint &L : E.Lowers) {
    int64_t C = -L.Coeffs[E.Var];
    int64_t Rest = 0;
    for (unsigned J = 0; J < L.Coeffs.size(); ++J)
      if (J != E.Var)
        Rest += L.Coeffs[J] * Point[J];
    // -c*v + Rest <= B  ->  v >= (Rest - B) / c.
    int64_t Bound = ceilDiv(Rest - L.Bound, C);
    Lo = Lo ? std::max(*Lo, Bound) : Bound;
  }
  for (const LinearConstraint &U : E.Uppers) {
    int64_t A = U.Coeffs[E.Var];
    int64_t Rest = 0;
    for (unsigned J = 0; J < U.Coeffs.size(); ++J)
      if (J != E.Var)
        Rest += U.Coeffs[J] * Point[J];
    int64_t Bound = floorDiv(U.Bound - Rest, A);
    Hi = Hi ? std::min(*Hi, Bound) : Bound;
  }
  if (Lo && Hi)
    return *Lo <= *Hi;
  return true; // One-sided or unconstrained: always liftable.
}

} // namespace

TEST(FourierMotzkinProperty, DarkShadowPointsLift) {
  // The dark-shadow theorem: every integer point of the dark shadow
  // extends to an integer value of the eliminated variable satisfying
  // the original bounds. This is exactly the soundness of answering
  // Dependent from a dark-shadow witness.
  SplitRng Rng(7001);
  unsigned Checked = 0;
  for (unsigned Iter = 0; Iter < 300; ++Iter) {
    LinearSystem S = randomBoxedSystem(Rng);
    for (unsigned Var = 0; Var < S.numVars(); ++Var) {
      std::optional<FmEliminationT<int64_t>> E = fmEliminateVariable(S, Var);
      ASSERT_TRUE(E.has_value()) << "overflow on boxed small system";
      if (E->RealInfeasible || E->DarkInfeasible)
        continue;
      // Enumerate the dark shadow (Var's column is zero in every dark
      // row, so the walk over the full box visits each shadow point
      // 2*Box+1 times — harmless for an all-points property).
      std::vector<int64_t> Point(S.numVars(), -Box);
      while (true) {
        bool InDark = true;
        for (const LinearConstraint &R : E->Dark) {
          std::optional<int64_t> Lhs = R.lhsAt(Point);
          if (!Lhs || *Lhs > R.Bound) {
            InDark = false;
            break;
          }
        }
        if (InDark) {
          ++Checked;
          EXPECT_TRUE(liftExists(*E, Point))
              << "dark point fails to lift: iter " << Iter << " var "
              << Var << " sys:\n"
              << S.str();
        }
        unsigned K = 0;
        while (K < S.numVars() && Point[K] == Box)
          Point[K++] = -Box;
        if (K == S.numVars())
          break;
        ++Point[K];
      }
    }
  }
  // The generator must actually produce dark points, or the property
  // silently checks nothing.
  EXPECT_GT(Checked, 1000u);
}

TEST(FourierMotzkinProperty, SplintersCoverTheProjectionExactly) {
  // Pugh's splinter theorem: the original system has an integer point
  // iff the dark shadow has one or one of the splinter systems does.
  // Both directions are checked — coverage (no integer point escapes
  // the decomposition) and soundness (splinters imply the original).
  SplitRng Rng(7002);
  unsigned Splintered = 0;
  for (unsigned Iter = 0; Iter < 300; ++Iter) {
    LinearSystem S = randomBoxedSystem(Rng);
    for (unsigned Var = 0; Var < S.numVars(); ++Var) {
      std::optional<FmEliminationT<int64_t>> E = fmEliminateVariable(S, Var);
      ASSERT_TRUE(E.has_value());
      std::optional<std::vector<LinearSystem>> Spl =
          fmSplinterSystems(S, Var);
      ASSERT_TRUE(Spl.has_value()) << "splinter overflow on boxed system";
      if (!Spl->empty())
        ++Splintered;

      bool OrigFeasible = firstBoxPoint(S).has_value();
      bool DarkFeasible =
          !E->RealInfeasible && !E->DarkInfeasible &&
          firstBoxPoint(S.numVars(), E->Dark).has_value();
      bool SplinterFeasible = false;
      for (const LinearSystem &Sub : *Spl) {
        std::optional<std::vector<int64_t>> P = firstBoxPoint(Sub);
        if (P) {
          SplinterFeasible = true;
          // Soundness: a splinter point is an original point.
          EXPECT_TRUE(S.satisfiedBy(*P))
              << "splinter point violates original: iter " << Iter;
          break;
        }
      }
      EXPECT_EQ(OrigFeasible, DarkFeasible || SplinterFeasible)
          << "decomposition mismatch: iter " << Iter << " var " << Var
          << " orig " << OrigFeasible << " dark " << DarkFeasible
          << " splinter " << SplinterFeasible << " sys:\n"
          << S.str();
    }
  }
  EXPECT_GT(Splintered, 50u);
}

TEST(FourierMotzkinProperty, PruningPreservesTheSolutionSet) {
  SplitRng Rng(7003);
  uint64_t Dropped = 0;
  for (unsigned Iter = 0; Iter < 400; ++Iter) {
    LinearSystem S = randomBoxedSystem(Rng);
    std::vector<LinearConstraint> Rows = S.constraints();
    for (LinearConstraint &R : Rows)
      R.normalize();
    std::vector<LinearConstraint> Pruned = Rows;
    Dropped += fmPruneRedundant(Pruned);
    // Same feasibility and, point by point, same membership.
    std::vector<int64_t> Point(S.numVars(), -Box);
    while (true) {
      auto Sat = [&Point](const std::vector<LinearConstraint> &Rs) {
        for (const LinearConstraint &R : Rs) {
          std::optional<int64_t> Lhs = R.lhsAt(Point);
          if (!Lhs || *Lhs > R.Bound)
            return false;
        }
        return true;
      };
      EXPECT_EQ(Sat(Rows), Sat(Pruned))
          << "pruning changed membership: iter " << Iter << " sys:\n"
          << S.str();
      unsigned K = 0;
      while (K < S.numVars() && Point[K] == Box)
        Point[K++] = -Box;
      if (K == S.numVars())
        break;
      ++Point[K];
    }
  }
  EXPECT_GT(Dropped, 100u) << "pruning never fired on the random mix";
}

TEST(FourierMotzkinProperty, DefaultCoreMatchesEnumeration) {
  // Pruning, greedy ordering and the dark-shadow decomposition are the
  // one configuration the core has: on every boxed system it must
  // decide, agree with enumeration, and back a Dependent verdict with a
  // valid witness.
  SplitRng Rng(7004);
  for (unsigned Iter = 0; Iter < 300; ++Iter) {
    LinearSystem S = randomBoxedSystem(Rng);
    bool Feasible = firstBoxPoint(S).has_value();
    FmResult R = runFourierMotzkin(S);
    ASSERT_NE(R.St, FmResult::Status::Unknown)
        << "core returned Unknown on a boxed system: iter " << Iter;
    EXPECT_EQ(R.St == FmResult::Status::Dependent, Feasible)
        << "verdict flipped: iter " << Iter << " sys:\n"
        << S.str();
    if (R.St == FmResult::Status::Dependent)
      EXPECT_TRUE(S.satisfiedBy(*R.Sample)) << "invalid witness: iter "
                                            << Iter;
  }
}

TEST(FourierMotzkinProperty, WideTierAgreesWithNarrow) {
  // Wherever both scalar tiers decide, they must agree (the widening
  // ladder's contract); on these small boxed systems neither may
  // overflow, so both always decide.
  SplitRng Rng(7005);
  for (unsigned Iter = 0; Iter < 300; ++Iter) {
    LinearSystem S = randomBoxedSystem(Rng);
    FmResult Narrow = runFourierMotzkin(S);
    FmResultT<Int128> Wide = runFourierMotzkin(widenSystem(S));
    ASSERT_NE(Narrow.St, FmResult::Status::Unknown) << "iter " << Iter;
    ASSERT_NE(Wide.St, FmResultT<Int128>::Status::Unknown)
        << "iter " << Iter;
    EXPECT_EQ(static_cast<int>(Narrow.St), static_cast<int>(Wide.St))
        << "tiers disagree: iter " << Iter << " sys:\n"
        << S.str();
  }
}

TEST(FourierMotzkinProperty, ShareTableServesIdenticalResults) {
  // A share hit must be bitwise the answer a fresh solve would give:
  // same verdict, same witness validity; and the hit is flagged so the
  // pipeline charges no work for it. First-insert-wins makes the
  // second solve of every system a hit.
  SplitRng Rng(7006);
  FmShareTable Share;
  unsigned Hits = 0;
  for (unsigned Iter = 0; Iter < 200; ++Iter) {
    LinearSystem S = randomBoxedSystem(Rng);
    FourierMotzkinOptions Plain;
    FmResult Fresh = runFourierMotzkin(S, Plain);
    FourierMotzkinOptions Shared;
    Shared.Share = &Share;
    FmResult First = runFourierMotzkin(S, Shared);
    FmResult Second = runFourierMotzkin(S, Shared);
    EXPECT_EQ(static_cast<int>(First.St), static_cast<int>(Fresh.St));
    EXPECT_EQ(static_cast<int>(Second.St), static_cast<int>(Fresh.St));
    if (Fresh.St != FmResult::Status::Unknown) {
      EXPECT_TRUE(Second.ShareHit) << "iter " << Iter;
      ++Hits;
    }
    if (Second.St == FmResult::Status::Dependent)
      EXPECT_TRUE(S.satisfiedBy(*Second.Sample)) << "iter " << Iter;
  }
  EXPECT_GT(Hits, 150u);
  EXPECT_GT(Share.size(), 100u);
}
