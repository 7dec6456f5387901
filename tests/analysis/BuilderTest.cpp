//===- tests/analysis/BuilderTest.cpp - Problem builder tests -------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Builder.h"

#include "deptest/Cascade.h"
#include "testutil/Helpers.h"
#include "testutil/ReferenceBuilder.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace edda;
using namespace edda::testutil;

TEST(Builder, SimplePairLayout) {
  std::optional<BuiltProblem> B = problemFromSource(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 10] = a[i]
  end
end
)");
  ASSERT_TRUE(B.has_value());
  const DependenceProblem &P = B->Problem;
  EXPECT_EQ(P.NumLoopsA, 1u);
  EXPECT_EQ(P.NumLoopsB, 1u);
  EXPECT_EQ(P.NumCommon, 1u);
  EXPECT_EQ(P.NumSymbolic, 0u);
  ASSERT_EQ(P.Equations.size(), 1u);
  // (i + 10) - i' == 0.
  EXPECT_EQ(P.Equations[0].Coeffs, (std::vector<int64_t>{1, -1}));
  EXPECT_EQ(P.Equations[0].Const, 10);
  ASSERT_TRUE(P.Lo[0].has_value());
  EXPECT_EQ(P.Lo[0]->Const, 1);
  ASSERT_TRUE(P.Hi[1].has_value());
  EXPECT_EQ(P.Hi[1]->Const, 10);
  EXPECT_TRUE(B->Exact);
}

TEST(Builder, TriangularBoundsReferenceOuterColumn) {
  std::optional<BuiltProblem> B = problemFromSource(R"(program s
  array a[100]
  for i = 1 to 10 do
    for j = 1 to i do
      a[j + 1] = a[j]
    end
  end
end
)");
  ASSERT_TRUE(B.has_value());
  const DependenceProblem &P = B->Problem;
  ASSERT_EQ(P.numLoopVars(), 4u);
  // j's upper bound references i's column (0) on the A side, i''s
  // column (2) on the B side.
  ASSERT_TRUE(P.Hi[1].has_value());
  EXPECT_EQ(P.Hi[1]->Coeffs[0], 1);
  ASSERT_TRUE(P.Hi[3].has_value());
  EXPECT_EQ(P.Hi[3]->Coeffs[2], 1);
}

TEST(Builder, SymbolicSharedColumn) {
  std::optional<BuiltProblem> B = problemFromSource(R"(program s
  array a[500]
  read n
  for i = 1 to 10 do
    a[i + n] = a[i + 2 * n + 1]
  end
end
)");
  ASSERT_TRUE(B.has_value());
  const DependenceProblem &P = B->Problem;
  EXPECT_EQ(P.NumSymbolic, 1u);
  ASSERT_EQ(P.Equations.size(), 1u);
  // (i + n) - (i' + 2n + 1): coefficient of the shared n column is -1.
  EXPECT_EQ(P.Equations[0].Coeffs, (std::vector<int64_t>{1, -1, -1}));
  EXPECT_EQ(P.Equations[0].Const, -1);
  ASSERT_EQ(B->SymbolicVars.size(), 1u);
}

TEST(Builder, SymbolicBound) {
  std::optional<BuiltProblem> B = problemFromSource(R"(program s
  array a[500]
  read n
  for i = 1 to n do
    a[i] = a[i + 1]
  end
end
)");
  ASSERT_TRUE(B.has_value());
  const DependenceProblem &P = B->Problem;
  ASSERT_TRUE(P.Hi[0].has_value());
  EXPECT_EQ(P.Hi[0]->Coeffs[P.numLoopVars()], 1); // n column
}

TEST(Builder, DisjointNestsHaveNoCommonLoops) {
  Program P = mustParse(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i] = 1
  end
  for i = 1 to 10 do
    a[i + 5] = 2
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  std::optional<BuiltProblem> B = buildProblem(P, Refs[0], Refs[1]);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Problem.NumCommon, 0u);
  // Same variable name, different loop objects.
  EXPECT_EQ(B->Problem.NumLoopsA, 1u);
  EXPECT_EQ(B->Problem.NumLoopsB, 1u);
}

TEST(Builder, NonAffineRejected) {
  std::optional<BuiltProblem> B = problemFromSource(R"(program s
  array a[100]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i * j] = a[i]
    end
  end
end
)");
  EXPECT_FALSE(B.has_value());
}

TEST(Builder, OutOfScopeLoopVariableRejected) {
  // Use of a loop variable after its loop: not affine in the enclosing
  // nest of the reference.
  Program P = mustParse(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i] = 0
  end
  a[i] = 1
end
)",
                        /*Prepass=*/false);
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  EXPECT_FALSE(buildProblem(P, Refs[0], Refs[1]).has_value());
}

TEST(Builder, SurvivingStrideRelaxes) {
  // Symbolic bounds block normalization; the stride survives and the
  // problem is flagged inexact.
  Program P = mustParse(R"(program s
  array a[100]
  read n
  for i = 1 to n step 2 do
    a[i] = a[i + 1]
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  std::optional<BuiltProblem> B = buildProblem(P, Refs[0], Refs[1]);
  ASSERT_TRUE(B.has_value());
  EXPECT_FALSE(B->Exact);
}

TEST(Builder, SelfPairForOutputDependence) {
  std::optional<BuiltProblem> B;
  Program P = mustParse(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 3] = 7
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 1u);
  B = buildProblem(P, Refs[0], Refs[0]);
  ASSERT_TRUE(B.has_value());
  // (i+3) - (i'+3) == 0 -> coefficients {1, -1}, const 0.
  EXPECT_EQ(B->Problem.Equations[0].Coeffs,
            (std::vector<int64_t>{1, -1}));
  EXPECT_EQ(B->Problem.Equations[0].Const, 0);
  // Self output dependence across iterations... the equation forces
  // i == i', so the only direction is '='.
  CascadeResult R = testDependence(B->Problem);
  EXPECT_EQ(R.Answer, DepAnswer::Dependent);
}

TEST(Builder, RankMismatchRejected) {
  // Builder is defensive about malformed pairs (different arrays).
  Program P = mustParse(R"(program s
  array a[100]
  array b[100]
  for i = 1 to 10 do
    a[i] = b[i]
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  EXPECT_FALSE(buildProblem(P, Refs[0], Refs[1]).has_value());
}

TEST(Builder, WitnessRoundTrip) {
  // The cascade's witness satisfies the built problem.
  std::optional<BuiltProblem> B = problemFromSource(R"(program s
  array a[100][100]
  for i = 1 to 10 do
    for j = 1 to i do
      a[i][j] = a[i - 1][j + 1]
    end
  end
end
)");
  ASSERT_TRUE(B.has_value());
  CascadeResult R = testDependence(B->Problem);
  EXPECT_EQ(R.Answer, DepAnswer::Dependent);
  ASSERT_TRUE(R.Witness.has_value());
  EXPECT_TRUE(verifyWitness(B->Problem, *R.Witness));
}

//===----------------------------------------------------------------------===//
// Differential: buildProblem against the direct reference builder
//===----------------------------------------------------------------------===//

namespace {

/// Holds buildProblem to the reference builder on every candidate pair
/// of \p Prog (same array, at least one write), field for field, and
/// constantPair to the built problem it stands in for.
void expectBuildsMatchReference(const Program &Prog,
                                const std::string &What) {
  std::vector<ArrayReference> Refs = collectReferences(Prog);
  for (unsigned I = 0; I < Refs.size(); ++I)
    for (unsigned J = I; J < Refs.size(); ++J) {
      if (Refs[I].ArrayId != Refs[J].ArrayId ||
          (!Refs[I].IsWrite && !Refs[J].IsWrite))
        continue;
      std::string Where = What + ": pair (" + std::to_string(I) + ", " +
                          std::to_string(J) + ")";
      std::optional<BuiltProblem> Got = buildProblem(Prog, Refs[I], Refs[J]);
      std::optional<BuiltProblem> Want =
          referenceBuildProblem(Prog, Refs[I], Refs[J]);
      ASSERT_EQ(Got.has_value(), Want.has_value()) << Where;
      std::optional<ConstantPair> CP = constantPair(Refs[I], Refs[J]);
      if (!Got) {
        EXPECT_FALSE(CP.has_value()) << Where;
        continue;
      }
      const DependenceProblem &G = Got->Problem, &W = Want->Problem;
      EXPECT_EQ(G.NumLoopsA, W.NumLoopsA) << Where;
      EXPECT_EQ(G.NumLoopsB, W.NumLoopsB) << Where;
      EXPECT_EQ(G.NumCommon, W.NumCommon) << Where;
      EXPECT_EQ(G.NumSymbolic, W.NumSymbolic) << Where;
      EXPECT_EQ(G.Equations, W.Equations) << Where;
      EXPECT_EQ(G.Lo, W.Lo) << Where;
      EXPECT_EQ(G.Hi, W.Hi) << Where;
      EXPECT_EQ(Got->Exact, Want->Exact) << Where;
      EXPECT_EQ(Got->SymbolicVars, Want->SymbolicVars) << Where;

      bool AllConstant = true, Nonzero = false, EmptyLoop = false;
      for (const XAffine &Eq : G.Equations) {
        AllConstant = AllConstant && Eq.isConstant();
        Nonzero = Nonzero || Eq.Const != 0;
      }
      for (unsigned L = 0; L < G.numLoopVars(); ++L)
        EmptyLoop = EmptyLoop ||
                    (G.Lo[L] && G.Hi[L] && G.Lo[L]->isConstant() &&
                     G.Hi[L]->isConstant() && G.Lo[L]->Const > G.Hi[L]->Const);
      ASSERT_EQ(CP.has_value(), AllConstant) << Where;
      if (CP) {
        EXPECT_EQ(CP->NonzeroDifference, Nonzero) << Where;
        EXPECT_EQ(CP->ConstantEmptyLoop, EmptyLoop) << Where;
        EXPECT_EQ(CP->Exact, Got->Exact) << Where;
      }
    }
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

TEST(Builder, MatchesReferenceOnSuite) {
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions()))
    expectBuildsMatchReference(mustParse(Source), Name);
}

TEST(Builder, MatchesReferenceOnCorpus) {
  std::vector<std::filesystem::path> Files = {
      std::filesystem::path(EDDA_INPUTS_DIR) / "demo.loop"};
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::filesystem::path(EDDA_INPUTS_DIR) / "corpus"))
    if (Entry.path().extension() == ".loop")
      Files.push_back(Entry.path());
  ASSERT_GE(Files.size(), 5u) << "corpus missing?";
  for (const std::filesystem::path &File : Files) {
    std::string Source = readFile(File);
    // Without the prepass, scalars survive into subscripts and bounds.
    expectBuildsMatchReference(mustParse(Source), File.string());
    expectBuildsMatchReference(mustParse(Source, /*Prepass=*/false),
                               File.string() + " (no prepass)");
  }
}

TEST(Builder, MatchesReferenceOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SplitRng Rng(Seed);
    std::string Source = generateRandomProgram(Rng);
    expectBuildsMatchReference(mustParse(Source),
                               "seed " + std::to_string(Seed));
    expectBuildsMatchReference(mustParse(Source, /*Prepass=*/false),
                               "seed " + std::to_string(Seed) +
                                   " (no prepass)");
  }
}

//===----------------------------------------------------------------------===//
// Building into reused storage
//===----------------------------------------------------------------------===//

namespace {

/// Which storage transitions a run of reused builds went through.
struct ReuseSeen {
  bool NestShrankThenGrew = false;
  bool BoundDisengaged = false;
  bool OverflowThenValid = false;
};

/// Builds every candidate pair of \p Prog, in enumeration order, into
/// \p Reused (kept across calls and programs) and holds each result to
/// a fresh buildProblem, field for field.
void expectReusedBuildsMatchFresh(const Program &Prog, BuiltProblem &Reused,
                                  ReuseSeen &Seen, const std::string &What) {
  std::vector<ArrayReference> Refs = collectReferences(Prog);
  // The state the previous build left: its loop-variable count, whether
  // the count had shrunk before, and whether it overflowed.
  size_t PrevVars = Reused.Problem.numLoopVars();
  bool Shrank = false, PrevOverflowed = false;
  for (unsigned I = 0; I < Refs.size(); ++I)
    for (unsigned J = I; J < Refs.size(); ++J) {
      const ArrayReference &A = Refs[I], &B = Refs[J];
      if (A.ArrayId != B.ArrayId || (!A.IsWrite && !B.IsWrite))
        continue;
      std::string Where = What + ": pair (" + std::to_string(I) + ", " +
                          std::to_string(J) + ")";
      std::vector<bool> WasEngaged;
      for (const std::optional<XAffine> &Bound : Reused.Problem.Lo)
        WasEngaged.push_back(Bound.has_value());
      const bool Ok = buildProblem(Prog, A, B, Reused);
      std::optional<BuiltProblem> Fresh = buildProblem(Prog, A, B);
      ASSERT_EQ(Ok, Fresh.has_value()) << Where;
      // A pair the summaries accept but the builder rejects overflowed.
      const bool Overflowed =
          !Ok && !A.Unanalyzable && !B.Unanalyzable &&
          A.Subscripts.size() == B.Subscripts.size();
      if (!Ok) {
        PrevOverflowed = PrevOverflowed || Overflowed;
        continue;
      }
      const DependenceProblem &G = Reused.Problem, &W = Fresh->Problem;
      EXPECT_EQ(G.NumLoopsA, W.NumLoopsA) << Where;
      EXPECT_EQ(G.NumLoopsB, W.NumLoopsB) << Where;
      EXPECT_EQ(G.NumCommon, W.NumCommon) << Where;
      EXPECT_EQ(G.NumSymbolic, W.NumSymbolic) << Where;
      EXPECT_EQ(G.Equations, W.Equations) << Where;
      EXPECT_EQ(G.Lo, W.Lo) << Where;
      EXPECT_EQ(G.Hi, W.Hi) << Where;
      EXPECT_EQ(Reused.Exact, Fresh->Exact) << Where;
      EXPECT_EQ(Reused.SymbolicVars, Fresh->SymbolicVars) << Where;
      EXPECT_TRUE(G.wellFormed()) << Where;

      const size_t Vars = G.numLoopVars();
      Seen.NestShrankThenGrew = Seen.NestShrankThenGrew ||
                                (Shrank && Vars > PrevVars);
      Shrank = Shrank || Vars < PrevVars;
      PrevVars = Vars;
      for (size_t L = 0; L < std::min(Vars, WasEngaged.size()); ++L)
        Seen.BoundDisengaged =
            Seen.BoundDisengaged || (WasEngaged[L] && !G.Lo[L]);
      Seen.OverflowThenValid = Seen.OverflowThenValid || PrevOverflowed;
      PrevOverflowed = false;
    }
}

} // namespace

// One BuiltProblem takes every pair of the suite, a batch of random
// programs and three targeted programs in turn; each build equals a
// fresh one. The targeted programs make sure the run covers a nest that
// shrinks and then grows again, a bound slot that was engaged for the
// previous pair and is not for the next, and a pair rejected for
// overflow partway through its build followed by a valid one.
TEST(Builder, ReusedStorageMatchesFreshBuild) {
  BuiltProblem Reused;
  ReuseSeen Seen;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions()))
    expectReusedBuildsMatchFresh(mustParse(Source), Reused, Seen, Name);
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    SplitRng Rng(Seed);
    std::string Source = generateRandomProgram(Rng);
    for (const bool Prepass : {true, false})
      expectReusedBuildsMatchFresh(
          mustParse(Source, Prepass), Reused, Seen,
          "seed " + std::to_string(Seed) + (Prepass ? "" : " (no prepass)"));
  }

  // Two, one, then two enclosing loops per side.
  expectReusedBuildsMatchFresh(mustParse(R"(program s
  array a[100][100]
  array b[100]
  array c[100][100]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j] = a[i - 1][j]
    end
  end
  for k = 1 to 10 do
    b[k] = b[k + 1]
  end
  for i = 1 to 10 do
    for j = 1 to i do
      c[i][j] = c[j][i]
    end
  end
end
)"),
                               Reused, Seen, "shrink then grow");
  // The second nest's lower bound names a scalar the prepass did not
  // remove, so its slot is disengaged right after the first nest's.
  expectReusedBuildsMatchFresh(mustParse(R"(program s
  array a[100]
  read n
  k = 3
  for i = 1 to 10 do
    a[i] = a[i + 1]
  end
  for j = k to n do
    a[j] = a[j + 2]
  end
end
)",
                                         /*Prepass=*/false),
                               Reused, Seen, "bound disengaged");
  // a[MAX] against a[-1] overflows in the equation, after the bounds
  // were written; b's pairs follow.
  expectReusedBuildsMatchFresh(mustParse(R"(program s
  array a[100]
  array b[100][100]
  for i = 1 to 10 do
    a[9223372036854775807] = a[0 - 1]
    b[i][2] = b[i + 1][3]
  end
end
)"),
                               Reused, Seen, "overflow then valid");
  EXPECT_TRUE(Seen.NestShrankThenGrew);
  EXPECT_TRUE(Seen.BoundDisengaged);
  EXPECT_TRUE(Seen.OverflowThenValid);
}

// A bound whose conversion fails partway still allocates the symbolic
// columns of the terms before the failing one: here n's column survives
// although the bound n + k (k an unremoved scalar) is dropped.
TEST(Builder, FailedBoundKeepsItsOrphanSymbolicColumn) {
  Program P = mustParse(R"(program s
  array a[100]
  read n
  k = 3
  for i = 1 to n + k do
    a[i + 1] = a[i]
  end
end
)",
                        /*Prepass=*/false);
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  std::optional<BuiltProblem> B = buildProblem(P, Refs[0], Refs[1]);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(B->Problem.NumSymbolic, 1u);
  ASSERT_EQ(B->SymbolicVars.size(), 1u);
  EXPECT_EQ(P.var(B->SymbolicVars[0]).Name, "n");
  EXPECT_TRUE(B->Problem.Lo[0].has_value());
  EXPECT_FALSE(B->Problem.Hi[0].has_value());
  EXPECT_FALSE(B->Problem.Hi[1].has_value());
  expectBuildsMatchReference(P, "orphan column");
}

// A bound may name the variable of a loop nested deeper than its own
// (LoopLang reuses a loop variable's id across sibling nests); the
// variable then resolves against the reference's own deeper loops.
TEST(Builder, BoundNamingADeeperLoopVariable) {
  Program P = mustParse(R"(program s
  array a[100]
  for j = 1 to 5 do
    a[j] = 0
  end
  for i = 1 to j do
    for j = 1 to 5 do
      a[i + j] = a[i]
    end
    a[i] = 1
  end
end
)",
                        /*Prepass=*/false);
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 4u);
  // a[i + j] (inside both loops) against itself: i's upper bound is the
  // inner j's column on each side; a[i] = 1 has no j loop to name.
  std::optional<BuiltProblem> Inner = buildProblem(P, Refs[1], Refs[1]);
  ASSERT_TRUE(Inner.has_value());
  ASSERT_TRUE(Inner->Problem.Hi[0].has_value());
  EXPECT_EQ(Inner->Problem.Hi[0]->Coeffs[1], 1);
  ASSERT_TRUE(Inner->Problem.Hi[2].has_value());
  EXPECT_EQ(Inner->Problem.Hi[2]->Coeffs[3], 1);
  std::optional<BuiltProblem> Outer = buildProblem(P, Refs[3], Refs[3]);
  ASSERT_TRUE(Outer.has_value());
  EXPECT_FALSE(Outer->Problem.Hi[0].has_value());
  expectBuildsMatchReference(P, "deeper loop variable");
}
