//===- tests/opt/FoldTest.cpp - Constant folding tests --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Fold.h"

#include "opt/Pipeline.h"
#include "testutil/Helpers.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <climits>
#include <iterator>

using namespace edda;

namespace {

std::string nameOf(unsigned Id) { return "v" + std::to_string(Id); }

std::string folded(const ExprPtr &E) { return foldExpr(E)->str(nameOf); }

/// A fresh copy of \p E sharing no node with it, so no node carries a
/// fold marker and folding the copy runs the whole folder.
ExprPtr deepCopy(const ExprPtr &E) {
  switch (E->kind()) {
  case ExprKind::Const:
    return Expr::makeConst(E->constValue());
  case ExprKind::Var:
    return Expr::makeVar(E->varId());
  case ExprKind::Add:
    return Expr::makeAdd(deepCopy(E->lhs()), deepCopy(E->rhs()));
  case ExprKind::Sub:
    return Expr::makeSub(deepCopy(E->lhs()), deepCopy(E->rhs()));
  case ExprKind::Mul:
    return Expr::makeMul(deepCopy(E->lhs()), deepCopy(E->rhs()));
  case ExprKind::Neg:
    return Expr::makeNeg(deepCopy(E->lhs()));
  case ExprKind::ArrayRead: {
    std::vector<ExprPtr> Subs;
    for (const ExprPtr &S : E->subscripts())
      Subs.push_back(deepCopy(S));
    return Expr::makeArrayRead(E->arrayId(), std::move(Subs));
  }
  }
  return nullptr;
}

/// Every expression of \p Body: subscripts, right-hand sides, bounds.
void collectExprs(const std::vector<StmtPtr> &Body,
                  std::vector<ExprPtr> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (A.isArrayLhs())
        for (const ExprPtr &Sub : A.lhsSubscripts())
          Out.push_back(Sub);
      Out.push_back(A.rhs());
      continue;
    }
    const LoopStmt &L = asLoop(*S);
    Out.push_back(L.lo());
    Out.push_back(L.hi());
    collectExprs(L.body(), Out);
  }
}

/// Folding a fold result again changes nothing: structurally, with the
/// marker out of play (on an unmarked copy), and by identity, with it.
/// The fold marker's shortcut is sound only because of the first half.
void expectIdempotent(const ExprPtr &E) {
  ExprPtr Once = foldExpr(deepCopy(E));
  ExprPtr Twice = foldExpr(deepCopy(Once));
  EXPECT_TRUE(exprEquals(Once, Twice))
      << E->str(nameOf) << " folds to " << Once->str(nameOf)
      << " but that folds to " << Twice->str(nameOf);
  EXPECT_EQ(foldExpr(Once), Once);
}

/// The parsed and the prepassed expressions of \p Source.
std::vector<ExprPtr> programExprs(const std::string &Source) {
  std::vector<ExprPtr> Out;
  Program P = testutil::mustParse(Source, /*Prepass=*/false);
  collectExprs(P.body(), Out);
  runPrepass(P);
  collectExprs(P.body(), Out);
  return Out;
}

/// A random tree over a few variables, small constants and the int64
/// extremes (so overflowing folds are drawn too).
ExprPtr randomExpr(SplitRng &Rng, unsigned Depth) {
  static const int64_t Consts[] = {0,  1,         -1,        2,
                                   -3, 7,         INT64_MAX, INT64_MIN,
                                   INT64_MIN + 1};
  unsigned Pick = Depth == 0 ? Rng.below(2) : Rng.below(8);
  switch (Pick) {
  case 0:
    return Expr::makeConst(Consts[Rng.below(std::size(Consts))]);
  case 1:
    return Expr::makeVar(static_cast<unsigned>(Rng.below(3)));
  case 2:
    return Expr::makeAdd(randomExpr(Rng, Depth - 1),
                         randomExpr(Rng, Depth - 1));
  case 3:
    return Expr::makeSub(randomExpr(Rng, Depth - 1),
                         randomExpr(Rng, Depth - 1));
  case 4:
  case 5:
    return Expr::makeMul(randomExpr(Rng, Depth - 1),
                         randomExpr(Rng, Depth - 1));
  case 6:
    return Expr::makeNeg(randomExpr(Rng, Depth - 1));
  default: {
    std::vector<ExprPtr> Subs;
    for (uint64_t D = 0, N = 1 + Rng.below(2); D < N; ++D)
      Subs.push_back(randomExpr(Rng, Depth - 1));
    return Expr::makeArrayRead(0, std::move(Subs));
  }
  }
}

} // namespace

TEST(Fold, ConstantArithmetic) {
  EXPECT_EQ(folded(Expr::makeAdd(Expr::makeConst(2), Expr::makeConst(3))),
            "5");
  EXPECT_EQ(folded(Expr::makeSub(Expr::makeConst(2), Expr::makeConst(3))),
            "-1");
  EXPECT_EQ(folded(Expr::makeMul(Expr::makeConst(4), Expr::makeConst(3))),
            "12");
  EXPECT_EQ(folded(Expr::makeNeg(Expr::makeConst(7))), "-7");
}

TEST(Fold, IdentityElements) {
  ExprPtr V = Expr::makeVar(0);
  EXPECT_EQ(folded(Expr::makeAdd(V, Expr::makeConst(0))), "v0");
  EXPECT_EQ(folded(Expr::makeAdd(Expr::makeConst(0), V)), "v0");
  EXPECT_EQ(folded(Expr::makeSub(V, Expr::makeConst(0))), "v0");
  EXPECT_EQ(folded(Expr::makeMul(V, Expr::makeConst(1))), "v0");
  EXPECT_EQ(folded(Expr::makeMul(Expr::makeConst(1), V)), "v0");
}

TEST(Fold, MulZeroAndMinusOne) {
  ExprPtr V = Expr::makeVar(0);
  EXPECT_EQ(folded(Expr::makeMul(V, Expr::makeConst(0))), "0");
  EXPECT_EQ(folded(Expr::makeMul(Expr::makeConst(-1), V)), "(-v0)");
}

TEST(Fold, DoubleNegation) {
  ExprPtr V = Expr::makeVar(0);
  EXPECT_EQ(folded(Expr::makeNeg(Expr::makeNeg(V))), "v0");
}

TEST(Fold, ZeroMinusX) {
  ExprPtr V = Expr::makeVar(0);
  EXPECT_EQ(folded(Expr::makeSub(Expr::makeConst(0), V)), "(-v0)");
}

TEST(Fold, NestedFolding) {
  // (2 + 3) * (v0 + 0) -> 5 * v0.
  ExprPtr E = Expr::makeMul(
      Expr::makeAdd(Expr::makeConst(2), Expr::makeConst(3)),
      Expr::makeAdd(Expr::makeVar(0), Expr::makeConst(0)));
  EXPECT_EQ(folded(E), "(5 * v0)");
}

TEST(Fold, OverflowLeftUnfolded) {
  ExprPtr E = Expr::makeAdd(Expr::makeConst(INT64_MAX),
                            Expr::makeConst(1));
  ExprPtr F = foldExpr(E);
  EXPECT_EQ(F->kind(), ExprKind::Add); // kept symbolic, not wrapped
}

TEST(Fold, InsideArrayReadSubscripts) {
  std::vector<ExprPtr> Subs;
  Subs.push_back(Expr::makeAdd(Expr::makeConst(1), Expr::makeConst(2)));
  ExprPtr E = Expr::makeArrayRead(0, std::move(Subs));
  ExprPtr F = foldExpr(E);
  ASSERT_EQ(F->kind(), ExprKind::ArrayRead);
  EXPECT_EQ(F->subscripts()[0]->constValue(), 3);
}

TEST(Fold, WholeProgram) {
  Program P("demo");
  unsigned I = P.addVar("i", VarKind::Loop);
  unsigned A = P.addArray("a", {10});
  auto Loop = std::make_unique<LoopStmt>(
      I, Expr::makeAdd(Expr::makeConst(0), Expr::makeConst(1)),
      Expr::makeMul(Expr::makeConst(2), Expr::makeConst(5)), 1);
  std::vector<ExprPtr> Subs;
  Subs.push_back(Expr::makeAdd(Expr::makeVar(I), Expr::makeConst(0)));
  Loop->body().push_back(std::make_unique<AssignStmt>(
      A, std::move(Subs),
      Expr::makeSub(Expr::makeConst(9), Expr::makeConst(4))));
  P.body().push_back(std::move(Loop));

  foldConstants(P);
  const LoopStmt &L = asLoop(*P.body()[0]);
  EXPECT_EQ(L.lo()->constValue(), 1);
  EXPECT_EQ(L.hi()->constValue(), 10);
  const AssignStmt &S = asAssign(*L.body()[0]);
  EXPECT_EQ(S.lhsSubscripts()[0]->kind(), ExprKind::Var);
  EXPECT_EQ(S.rhs()->constValue(), 5);
}

TEST(Fold, FoldedNodeFoldsToItself) {
  ExprPtr E = Expr::makeAdd(Expr::makeMul(Expr::makeConst(2),
                                          Expr::makeVar(0)),
                            Expr::makeConst(3));
  ExprPtr F = foldExpr(E);
  EXPECT_EQ(foldExpr(F), F);
  // Unchanged subtrees of a non-affine tree are shared, not rebuilt.
  std::vector<ExprPtr> Subs;
  Subs.push_back(F);
  ExprPtr Read = Expr::makeArrayRead(0, std::move(Subs));
  ExprPtr Sum = Expr::makeAdd(Read, Expr::makeVar(1));
  ExprPtr FoldedSum = foldExpr(Sum);
  EXPECT_EQ(FoldedSum, Sum);
  EXPECT_EQ(FoldedSum->lhs()->subscripts()[0], F);
}

TEST(Fold, IdempotentOnSuiteExpressions) {
  size_t Checked = 0;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions()))
    for (const ExprPtr &E : programExprs(Source)) {
      expectIdempotent(E);
      ++Checked;
    }
  EXPECT_GT(Checked, 10000u);
}

TEST(Fold, IdempotentOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SplitRng Rng(Seed);
    for (const ExprPtr &E : programExprs(generateRandomProgram(Rng)))
      expectIdempotent(E);
  }
}

TEST(Fold, IdempotentOnRandomTrees) {
  SplitRng Rng(7);
  for (unsigned I = 0; I < 5000; ++I)
    expectIdempotent(randomExpr(Rng, 1 + I % 5));
}
