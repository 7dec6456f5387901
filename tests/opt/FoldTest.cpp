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

std::string folded(ExprArena &X, const Expr *E) {
  return foldExpr(X, E)->str(nameOf);
}

/// A copy of \p E made in \p X, sharing no node with it; when \p X is
/// fresh, no node carries a fold memo and folding the copy runs the whole
/// folder.
const Expr *deepCopy(ExprArena &X, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const:
    return X.makeConst(E->constValue());
  case ExprKind::Var:
    return X.makeVar(E->varId());
  case ExprKind::Add:
    return X.makeAdd(deepCopy(X, E->lhs()), deepCopy(X, E->rhs()));
  case ExprKind::Sub:
    return X.makeSub(deepCopy(X, E->lhs()), deepCopy(X, E->rhs()));
  case ExprKind::Mul:
    return X.makeMul(deepCopy(X, E->lhs()), deepCopy(X, E->rhs()));
  case ExprKind::Neg:
    return X.makeNeg(deepCopy(X, E->lhs()));
  case ExprKind::ArrayRead: {
    std::vector<const Expr *> Subs;
    for (const Expr *S : E->subscripts())
      Subs.push_back(deepCopy(X, S));
    return X.makeArrayRead(E->arrayId(), Subs);
  }
  }
  return nullptr;
}

/// Every expression of \p Body: subscripts, right-hand sides, bounds.
void collectExprs(const std::vector<StmtPtr> &Body,
                  std::vector<const Expr *> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (A.isArrayLhs())
        for (const Expr *Sub : A.lhsSubscripts())
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
/// memo out of play (on a copy in a fresh arena), and by identity, with
/// it. The memo's record of a result as its own fold is sound only
/// because of the first half.
void expectIdempotent(const Expr *E) {
  ExprArena First, Second;
  const Expr *Once = foldExpr(First, deepCopy(First, E));
  const Expr *Twice = foldExpr(Second, deepCopy(Second, Once));
  EXPECT_TRUE(exprEquals(Once, Twice))
      << E->str(nameOf) << " folds to " << Once->str(nameOf)
      << " but that folds to " << Twice->str(nameOf);
  EXPECT_EQ(foldExpr(First, Once), Once);
}

/// The parsed and the prepassed expressions of \p Source, owned by the
/// program appended to \p Keep.
std::vector<const Expr *> programExprs(const std::string &Source,
                                       std::vector<Program> &Keep) {
  std::vector<const Expr *> Out;
  Program P = testutil::mustParse(Source, /*Prepass=*/false);
  collectExprs(P.body(), Out);
  runPrepass(P);
  collectExprs(P.body(), Out);
  Keep.push_back(std::move(P));
  return Out;
}

/// A random tree over a few variables, small constants and the int64
/// extremes (so overflowing folds are drawn too).
const Expr *randomExpr(ExprArena &X, SplitRng &Rng, unsigned Depth) {
  static const int64_t Consts[] = {0,  1,         -1,        2,
                                   -3, 7,         INT64_MAX, INT64_MIN,
                                   INT64_MIN + 1};
  unsigned Pick = Depth == 0 ? Rng.below(2) : Rng.below(8);
  switch (Pick) {
  case 0:
    return X.makeConst(Consts[Rng.below(std::size(Consts))]);
  case 1:
    return X.makeVar(static_cast<unsigned>(Rng.below(3)));
  case 2:
    return X.makeAdd(randomExpr(X, Rng, Depth - 1),
                         randomExpr(X, Rng, Depth - 1));
  case 3:
    return X.makeSub(randomExpr(X, Rng, Depth - 1),
                         randomExpr(X, Rng, Depth - 1));
  case 4:
  case 5:
    return X.makeMul(randomExpr(X, Rng, Depth - 1),
                         randomExpr(X, Rng, Depth - 1));
  case 6:
    return X.makeNeg(randomExpr(X, Rng, Depth - 1));
  default: {
    std::vector<const Expr *> Subs;
    for (uint64_t D = 0, N = 1 + Rng.below(2); D < N; ++D)
      Subs.push_back(randomExpr(X, Rng, Depth - 1));
    return X.makeArrayRead(0, Subs);
  }
  }
}

} // namespace

TEST(Fold, ConstantArithmetic) {
  ExprArena X;
  EXPECT_EQ(folded(X, X.makeAdd(X.makeConst(2), X.makeConst(3))),
            "5");
  EXPECT_EQ(folded(X, X.makeSub(X.makeConst(2), X.makeConst(3))),
            "-1");
  EXPECT_EQ(folded(X, X.makeMul(X.makeConst(4), X.makeConst(3))),
            "12");
  EXPECT_EQ(folded(X, X.makeNeg(X.makeConst(7))), "-7");
}

TEST(Fold, IdentityElements) {
  ExprArena X;
  const Expr *V = X.makeVar(0);
  EXPECT_EQ(folded(X, X.makeAdd(V, X.makeConst(0))), "v0");
  EXPECT_EQ(folded(X, X.makeAdd(X.makeConst(0), V)), "v0");
  EXPECT_EQ(folded(X, X.makeSub(V, X.makeConst(0))), "v0");
  EXPECT_EQ(folded(X, X.makeMul(V, X.makeConst(1))), "v0");
  EXPECT_EQ(folded(X, X.makeMul(X.makeConst(1), V)), "v0");
}

TEST(Fold, MulZeroAndMinusOne) {
  ExprArena X;
  const Expr *V = X.makeVar(0);
  EXPECT_EQ(folded(X, X.makeMul(V, X.makeConst(0))), "0");
  EXPECT_EQ(folded(X, X.makeMul(X.makeConst(-1), V)), "(-v0)");
}

TEST(Fold, DoubleNegation) {
  ExprArena X;
  const Expr *V = X.makeVar(0);
  EXPECT_EQ(folded(X, X.makeNeg(X.makeNeg(V))), "v0");
}

TEST(Fold, ZeroMinusX) {
  ExprArena X;
  const Expr *V = X.makeVar(0);
  EXPECT_EQ(folded(X, X.makeSub(X.makeConst(0), V)), "(-v0)");
}

TEST(Fold, NestedFolding) {
  ExprArena X;
  // (2 + 3) * (v0 + 0) -> 5 * v0.
  const Expr *E = X.makeMul(
      X.makeAdd(X.makeConst(2), X.makeConst(3)),
      X.makeAdd(X.makeVar(0), X.makeConst(0)));
  EXPECT_EQ(folded(X, E), "(5 * v0)");
}

TEST(Fold, OverflowLeftUnfolded) {
  ExprArena X;
  const Expr *E = X.makeAdd(X.makeConst(INT64_MAX),
                            X.makeConst(1));
  const Expr *F = foldExpr(X, E);
  EXPECT_EQ(F->kind(), ExprKind::Add); // kept symbolic, not wrapped
}

TEST(Fold, InsideArrayReadSubscripts) {
  ExprArena X;
  std::vector<const Expr *> Subs;
  Subs.push_back(X.makeAdd(X.makeConst(1), X.makeConst(2)));
  const Expr *E = X.makeArrayRead(0, Subs);
  const Expr *F = foldExpr(X, E);
  ASSERT_EQ(F->kind(), ExprKind::ArrayRead);
  EXPECT_EQ(F->subscripts()[0]->constValue(), 3);
}

TEST(Fold, WholeProgram) {
  Program P("demo");
  ExprArena &X = P.exprs();
  unsigned I = P.addVar("i", VarKind::Loop);
  unsigned A = P.addArray("a", {10});
  auto Loop = std::make_unique<LoopStmt>(
      I, X.makeAdd(X.makeConst(0), X.makeConst(1)),
      X.makeMul(X.makeConst(2), X.makeConst(5)), 1);
  std::vector<const Expr *> Subs;
  Subs.push_back(X.makeAdd(X.makeVar(I), X.makeConst(0)));
  Loop->body().push_back(std::make_unique<AssignStmt>(
      A, std::move(Subs),
      X.makeSub(X.makeConst(9), X.makeConst(4))));
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
  ExprArena X;
  const Expr *E = X.makeAdd(X.makeMul(X.makeConst(2),
                                          X.makeVar(0)),
                            X.makeConst(3));
  const Expr *F = foldExpr(X, E);
  EXPECT_EQ(foldExpr(X, F), F);
  // Unchanged subtrees of a non-affine tree are shared, not rebuilt.
  std::vector<const Expr *> Subs;
  Subs.push_back(F);
  const Expr *Read = X.makeArrayRead(0, Subs);
  const Expr *Sum = X.makeAdd(Read, X.makeVar(1));
  const Expr *FoldedSum = foldExpr(X, Sum);
  EXPECT_EQ(FoldedSum, Sum);
  EXPECT_EQ(FoldedSum->lhs()->subscripts()[0], F);
}

TEST(Fold, IdempotentOnSuiteExpressions) {
  size_t Checked = 0;
  std::vector<Program> Keep;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions()))
    for (const Expr *E : programExprs(Source, Keep)) {
      expectIdempotent(E);
      ++Checked;
    }
  EXPECT_GT(Checked, 10000u);
}

TEST(Fold, IdempotentOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SplitRng Rng(Seed);
    std::vector<Program> Keep;
    for (const Expr *E : programExprs(generateRandomProgram(Rng), Keep))
      expectIdempotent(E);
  }
}

TEST(Fold, IdempotentOnRandomTrees) {
  SplitRng Rng(7);
  ExprArena X;
  for (unsigned I = 0; I < 5000; ++I)
    expectIdempotent(randomExpr(X, Rng, 1 + I % 5));
}
