//===- tests/analysis/TransformsTest.cpp - Transform legality tests -------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Transforms.h"

#include "analysis/Interp.h"
#include "testutil/Helpers.h"
#include "gtest/gtest.h"

using namespace edda;
using namespace edda::testutil;

namespace {

struct Built {
  Program Prog;
  DependenceGraph Graph;
  LoopStmt *Outer = nullptr;
  LoopStmt *Inner = nullptr;
};

Built buildNest(const std::string &Source) {
  Built B;
  B.Prog = mustParse(Source, /*Prepass=*/false);
  DependenceAnalyzer Analyzer;
  B.Graph = DependenceGraph::build(B.Prog, Analyzer);
  for (StmtPtr &S : B.Prog.body()) {
    if (S->kind() != StmtKind::Loop)
      continue;
    B.Outer = &asLoop(*S);
    if (B.Outer->body().size() == 1 &&
        B.Outer->body()[0]->kind() == StmtKind::Loop)
      B.Inner = &asLoop(*B.Outer->body()[0]);
    break;
  }
  return B;
}

} // namespace

TEST(Transforms, InterchangeLegalForFullyParallel) {
  Built B = buildNest(R"(program s
  array a[30][30]
  array b[30][30]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j] = b[i][j] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_TRUE(canInterchange(B.Graph, B.Outer, B.Inner).Legal);
}

TEST(Transforms, InterchangeIllegalForWavefront) {
  // a[i][j] = a[i-1][j+1]: vector (<, >); swapped it becomes (>, <),
  // lexicographically negative — the textbook illegal interchange.
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 2 to 10 do
    for j = 1 to 9 do
      a[i][j] = a[i - 1][j + 1] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  LegalityResult R = canInterchange(B.Graph, B.Outer, B.Inner);
  EXPECT_FALSE(R.Legal);
  EXPECT_EQ(R.Violation, (DirVector{Dir::Less, Dir::Greater}));
}

TEST(Transforms, InterchangeLegalForForwardWavefront) {
  // a[i][j] = a[i-1][j-1]: vector (<, <); swapping keeps (<, <).
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 2 to 10 do
    for j = 2 to 10 do
      a[i][j] = a[i - 1][j - 1] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_TRUE(canInterchange(B.Graph, B.Outer, B.Inner).Legal);
}

TEST(Transforms, ReversalIllegalWhenCarried) {
  Built B = buildNest(R"(program s
  array a[100]
  for i = 2 to 10 do
    a[i] = a[i - 1] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_FALSE(canReverse(B.Graph, B.Outer).Legal);
}

TEST(Transforms, ReversalLegalWhenIndependentOrEqual) {
  Built B = buildNest(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i] = a[i] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_TRUE(canReverse(B.Graph, B.Outer).Legal);
}

TEST(Transforms, ReversalLegalForInnerWhenOuterCarries) {
  // (<, <) dependence: reversing the inner loop gives (<, >), still
  // lexicographically positive — legal.
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 2 to 10 do
    for j = 2 to 10 do
      a[i][j] = a[i - 1][j - 1] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_FALSE(canReverse(B.Graph, B.Outer).Legal);
  EXPECT_TRUE(canReverse(B.Graph, B.Inner).Legal);
}

TEST(Transforms, ParallelizeLegality) {
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 2 to 10 do
    for j = 1 to 10 do
      a[i][j] = a[i - 1][j] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_FALSE(canParallelize(B.Graph, B.Outer).Legal);
  EXPECT_TRUE(canParallelize(B.Graph, B.Inner).Legal);
}

TEST(Transforms, InterchangeAppliesAndPreservesSemantics) {
  const char *Source = R"(program s
  array a[30][30]
  for i = 2 to 10 do
    for j = 2 to 10 do
      a[i][j] = a[i - 1][j - 1] + 1
    end
  end
end
)";
  Built B = buildNest(Source);
  ASSERT_NE(B.Inner, nullptr);
  ASSERT_TRUE(canInterchange(B.Graph, B.Outer, B.Inner).Legal);

  Program Original = mustParse(Source, /*Prepass=*/false);
  ASSERT_TRUE(interchangeLoops(*B.Outer));
  // Loop headers swapped in place.
  EXPECT_EQ(B.Prog.var(B.Outer->varId()).Name, "j");
  EXPECT_EQ(B.Prog.var(B.Inner->varId()).Name, "i");
  // Semantics unchanged (the legality analysis promised this).
  InterpResult R1 = interpret(Original);
  InterpResult R2 = interpret(B.Prog);
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R1.Memory, R2.Memory);
}

TEST(Transforms, InterchangeRefusesTriangularNest) {
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 1 to 10 do
    for j = 1 to i do
      a[i][j] = 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_FALSE(interchangeLoops(*B.Outer));
}

TEST(Transforms, InterchangeRefusesImperfectNest) {
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 1 to 10 do
    a[i][1] = 0
    for j = 1 to 10 do
      a[i][j] = 1
    end
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_FALSE(interchangeLoops(*B.Outer));
}

TEST(Transforms, VectorizeByDistance) {
  // Distance-4 carried dependence: chunks of up to 4 lanes are safe,
  // 8 are not.
  Built B = buildNest(R"(program s
  array a[100]
  for i = 5 to 40 do
    a[i] = a[i - 4] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_TRUE(canVectorize(B.Graph, B.Outer, 2).Legal);
  EXPECT_TRUE(canVectorize(B.Graph, B.Outer, 4).Legal);
  EXPECT_FALSE(canVectorize(B.Graph, B.Outer, 8).Legal);
  EXPECT_FALSE(canParallelize(B.Graph, B.Outer).Legal);
}

TEST(Transforms, VectorizeIndependentLoopAnyWidth) {
  Built B = buildNest(R"(program s
  array a[100]
  array b[100]
  for i = 1 to 40 do
    a[i] = b[i] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_TRUE(canVectorize(B.Graph, B.Outer, 64).Legal);
}

TEST(Transforms, VectorizeRejectsUnknownDistance) {
  // Carried dependence whose distance is not a compile-time constant
  // (i vs 2i'): no safe width.
  Built B = buildNest(R"(program s
  array a[100]
  for i = 1 to 20 do
    a[i] = a[2 * i] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_FALSE(canVectorize(B.Graph, B.Outer, 2).Legal);
}

TEST(Transforms, VectorizeInnerOfNest) {
  // Carried by the outer loop only: the inner loop vectorizes at any
  // width.
  Built B = buildNest(R"(program s
  array a[40][40]
  for i = 2 to 20 do
    for j = 1 to 20 do
      a[i][j] = a[i - 1][j] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_TRUE(canVectorize(B.Graph, B.Inner, 16).Legal);
  EXPECT_FALSE(canVectorize(B.Graph, B.Outer, 2).Legal); // distance 1
}

TEST(Transforms, ImperfectInterchangeReportsAllAnyViolation) {
  // PR 9 regression: the recurrence on a[] sits beside the inner loop,
  // so its dependence's common nest ends between the two loops and
  // canInterchange bails conservatively. That bail used to return an
  // *empty* Violation, breaking the header contract; it must now be
  // the all-'*' vector of the common-nest length.
  Built B = buildNest(R"(program s
  array a[100]
  array b[40][40]
  for i = 2 to 10 do
    a[i] = a[i - 1] + 1
    for j = 1 to 10 do
      b[i][j] = a[i] + 1
    end
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  ASSERT_EQ(B.Outer->body().size(), 2u);
  LoopStmt *Inner = &asLoop(*B.Outer->body()[1]);
  LegalityResult R = canInterchange(B.Graph, B.Outer, Inner);
  EXPECT_FALSE(R.Legal);
  ASSERT_FALSE(R.Violation.empty());
  for (Dir D : R.Violation)
    EXPECT_EQ(D, Dir::Any);
}

TEST(Transforms, FuseUnanalyzableReportsAllAnyViolation) {
  // PR 9 regression: an unanalyzable reference pair (subscript-of-
  // subscript) forces canFuse's conservative rejection, which used to
  // come back with an empty Violation.
  Program Prog = mustParse(R"(program s
  array a[100]
  array b[100]
  array idx[100]
  for i = 1 to 10 do
    a[idx[i]] = i
  end
  for j = 1 to 10 do
    b[j] = a[j] + 1
  end
end
)",
                           /*Prepass=*/false);
  LoopStmt *First = nullptr, *Second = nullptr;
  for (StmtPtr &S : Prog.body()) {
    if (S->kind() != StmtKind::Loop)
      continue;
    (First ? Second : First) = &asLoop(*S);
  }
  ASSERT_NE(Second, nullptr);
  LegalityResult R = canFuse(Prog, First, Second);
  EXPECT_FALSE(R.Legal);
  ASSERT_FALSE(R.Violation.empty());
  for (Dir D : R.Violation)
    EXPECT_EQ(D, Dir::Any);
}

TEST(Transforms, FuseNestedLoopsReportsAllAnyViolation) {
  // PR 9 regression: asking to fuse a loop with its *own* inner loop
  // is a shape canFuse rejects conservatively — that path too must
  // report the contract's all-'*' vector rather than an empty one.
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j] = a[i][j] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  LegalityResult R = canFuse(B.Prog, B.Outer, B.Inner);
  EXPECT_FALSE(R.Legal);
  ASSERT_FALSE(R.Violation.empty());
  for (Dir D : R.Violation)
    EXPECT_EQ(D, Dir::Any);
}

TEST(Transforms, SkewVectorComponentMap) {
  // d_inner' = d_inner + f * d_outer, in sign-interval arithmetic.
  EXPECT_EQ(skewVector({Dir::Less, Dir::Equal}, 0, 1, 1),
            (DirVector{Dir::Less, Dir::Less}));
  EXPECT_EQ(skewVector({Dir::Less, Dir::Equal}, 0, 1, -1),
            (DirVector{Dir::Less, Dir::Greater}));
  // Opposite signs: the sum's sign depends on magnitudes — unknown.
  EXPECT_EQ(skewVector({Dir::Less, Dir::Greater}, 0, 1, 1),
            (DirVector{Dir::Less, Dir::Any}));
  // A zero outer distance contributes nothing at any factor.
  EXPECT_EQ(skewVector({Dir::Equal, Dir::Greater}, 0, 1, 3),
            (DirVector{Dir::Equal, Dir::Greater}));
  // Unknown outer sign poisons the inner component.
  EXPECT_EQ(skewVector({Dir::Any, Dir::Equal}, 0, 1, 2),
            (DirVector{Dir::Any, Dir::Any}));
  // Factor zero is the identity.
  EXPECT_EQ(skewVector({Dir::Less, Dir::Greater}, 0, 1, 0),
            (DirVector{Dir::Less, Dir::Greater}));
}

TEST(Transforms, SkewAppliesPreservesSemanticsAndEnablesTiling) {
  // The wavefront (<, >) band is not permutable, so tiling is illegal
  // — and the violation names the offending vector. Skewing the inner
  // loop by +1 maps (1, -1) to (1, 0): same semantics, now tileable.
  const char *Source = R"(program s
  array a[30][30]
  for i = 2 to 10 do
    for j = 1 to 9 do
      a[i][j] = a[i - 1][j + 1] + 1
    end
  end
end
)";
  Built B = buildNest(Source);
  ASSERT_NE(B.Inner, nullptr);
  LegalityResult Tile = canTile(B.Graph, B.Outer, B.Inner);
  EXPECT_FALSE(Tile.Legal);
  EXPECT_EQ(Tile.Violation, (DirVector{Dir::Less, Dir::Greater}));

  EXPECT_TRUE(canSkew(B.Graph, B.Outer, B.Inner, 1).Legal);
  Program Original = mustParse(Source, /*Prepass=*/false);
  ASSERT_TRUE(skewLoops(B.Prog, *B.Outer, 1));

  InterpResult R1 = interpret(Original);
  InterpResult R2 = interpret(B.Prog);
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R1.Memory, R2.Memory);

  // Fresh analysis of the skewed program: the band is permutable now.
  DependenceAnalyzer Analyzer;
  DependenceGraph Skewed = DependenceGraph::build(B.Prog, Analyzer);
  EXPECT_TRUE(canTile(Skewed, B.Outer, B.Inner).Legal);
}

TEST(Transforms, TileAppliesAndPreservesSemantics) {
  // (<, <) forward wavefront: fully permutable, tileable. Trip counts
  // 16 x 16, tile 4: exact 4 x 4 tiles.
  const char *Source = R"(program s
  array a[40][40]
  for i = 2 to 17 do
    for j = 2 to 17 do
      a[i][j] = a[i - 1][j - 1] + 1
    end
  end
end
)";
  Built B = buildNest(Source);
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_TRUE(canTile(B.Graph, B.Outer, B.Inner).Legal);

  Program Original = mustParse(Source, /*Prepass=*/false);
  ASSERT_TRUE(tileLoops(B.Prog, *B.Outer, 4));
  // Four-deep nest: i_t / j_t tile loops over the original pair.
  EXPECT_EQ(B.Prog.var(B.Outer->varId()).Name, "i_t");
  ASSERT_EQ(B.Outer->body().size(), 1u);
  const LoopStmt &Jt = asLoop(*B.Outer->body()[0]);
  EXPECT_EQ(B.Prog.var(Jt.varId()).Name, "j_t");
  ASSERT_EQ(Jt.body().size(), 1u);
  const LoopStmt &I = asLoop(*Jt.body()[0]);
  EXPECT_EQ(B.Prog.var(I.varId()).Name, "i");

  InterpResult R1 = interpret(Original);
  InterpResult R2 = interpret(B.Prog);
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R1.Memory, R2.Memory);
}

TEST(Transforms, TileRefusesNonDivisibleOrSingleTile) {
  // Trip count 10 is not a multiple of 4.
  Built B = buildNest(R"(program s
  array a[30][30]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j] = 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_FALSE(tileLoops(B.Prog, *B.Outer, 4));

  // Trip count equal to the tile size: a single tile per dimension is
  // a no-op wrapper, refused.
  Built C = buildNest(R"(program s
  array a[30][30]
  for i = 1 to 4 do
    for j = 1 to 4 do
      a[i][j] = 1
    end
  end
end
)");
  ASSERT_NE(C.Inner, nullptr);
  EXPECT_FALSE(tileLoops(C.Prog, *C.Outer, 4));
}

TEST(Transforms, ReverseAppliesAndPreservesSemanticsWhenLegal) {
  const char *Source = R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i] = a[i] + i
  end
end
)";
  Built B = buildNest(Source);
  ASSERT_NE(B.Outer, nullptr);
  ASSERT_TRUE(canReverse(B.Graph, B.Outer).Legal);
  Program Original = mustParse(Source, /*Prepass=*/false);
  ASSERT_TRUE(reverseLoop(B.Prog, *B.Outer));
  InterpResult R1 = interpret(Original);
  InterpResult R2 = interpret(B.Prog);
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R1.Memory, R2.Memory);
}

TEST(Transforms, ReverseChangesSemanticsOfCarriedLoop) {
  // Sanity that the reversal rewrite actually reverses: forcing it
  // onto a carried recurrence (which canReverse rejects) must change
  // the memory image.
  const char *Source = R"(program s
  array a[100]
  for i = 2 to 10 do
    a[i] = a[i - 1] + i
  end
end
)";
  Built B = buildNest(Source);
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_FALSE(canReverse(B.Graph, B.Outer).Legal);
  Program Original = mustParse(Source, /*Prepass=*/false);
  ASSERT_TRUE(reverseLoop(B.Prog, *B.Outer));
  InterpResult R1 = interpret(Original);
  InterpResult R2 = interpret(B.Prog);
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(R2.Ok);
  EXPECT_NE(R1.Memory, R2.Memory);
}

TEST(Transforms, VectorizeExactOverloadDecidesUnpinnedDistances) {
  // a[i] = a[2i] over 4..20: every dependence pair realizes a
  // *different* distance (4..10), so the per-edge pinned distance is
  // absent and the conservative overload must reject any width. The
  // exact overload asks the cascade whether a distance in [1, W-1] is
  // realizable: for W <= 4 it is not (all distances are >= 4), for
  // W = 5 the distance 4 is.
  Built B = buildNest(R"(program s
  array a[100]
  for i = 4 to 20 do
    a[i] = a[2 * i] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  EXPECT_FALSE(canVectorize(B.Graph, B.Outer, 4).Legal);
  EXPECT_TRUE(canVectorize(B.Graph, B.Prog, B.Outer, 2).Legal);
  EXPECT_TRUE(canVectorize(B.Graph, B.Prog, B.Outer, 4).Legal);
  EXPECT_FALSE(canVectorize(B.Graph, B.Prog, B.Outer, 5).Legal);
  EXPECT_FALSE(canVectorize(B.Graph, B.Prog, B.Outer, 8).Legal);
}

TEST(Transforms, VectorizeExactAgreesWithPinnedFastPath) {
  // When the distance *is* pinned the two overloads must agree.
  Built B = buildNest(R"(program s
  array a[100]
  for i = 5 to 40 do
    a[i] = a[i - 4] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  for (unsigned W : {2u, 4u, 8u})
    EXPECT_EQ(canVectorize(B.Graph, B.Outer, W).Legal,
              canVectorize(B.Graph, B.Prog, B.Outer, W).Legal)
        << "width " << W;
}

TEST(Transforms, UnanalyzableBlocksEverything) {
  Built B = buildNest(R"(program s
  array a[100]
  array idx[100]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[idx[j]] = a[i] + 1
    end
  end
end
)");
  ASSERT_NE(B.Inner, nullptr);
  EXPECT_FALSE(canInterchange(B.Graph, B.Outer, B.Inner).Legal);
  EXPECT_FALSE(canReverse(B.Graph, B.Outer).Legal);
  EXPECT_FALSE(canParallelize(B.Graph, B.Outer).Legal);
}

TEST(Transforms, VectorizeWidthOneIssuesNoProbes) {
  // Regression: the exact overload used to issue its cascade probes
  // even at W == 1 — a serial loop — burning FmWork and polluting the
  // shared probe cache with band [1, 0] queries. Width 1 must return
  // Legal immediately, before looking at the graph, leaving both the
  // cache and the decision stats untouched.
  Built B = buildNest(R"(program s
  array a[100]
  for i = 4 to 20 do
    a[i] = a[2 * i] + 1
  end
end
)");
  ASSERT_NE(B.Outer, nullptr);
  VectorizeProbeCache Cache;
  DepStats Stats;
  LegalityResult R =
      canVectorize(B.Graph, B.Prog, B.Outer, 1, &Cache, &Stats);
  EXPECT_TRUE(R.Legal);
  EXPECT_EQ(Cache.Probes, 0u);
  EXPECT_EQ(Cache.Hits, 0u);
  EXPECT_TRUE(Cache.Edges.empty());
  EXPECT_EQ(Stats.Queries, 0u);
  EXPECT_EQ(Stats.totalDecided(), 0u);
  EXPECT_EQ(Stats.FmWork, 0u);

  // The same loop at width 2 does consult the cascade (its distances
  // are unpinned), proving the short-circuit — not the kernel — is
  // what kept the counters at zero.
  EXPECT_TRUE(
      canVectorize(B.Graph, B.Prog, B.Outer, 2, &Cache, &Stats).Legal);
  EXPECT_GT(Cache.Probes, 0u);
  EXPECT_GT(Stats.totalDecided(), 0u);
}
