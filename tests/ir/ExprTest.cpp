//===- tests/ir/ExprTest.cpp - Expression tests ---------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <algorithm>

#include <climits>
#include <iterator>

using namespace edda;

namespace {

std::string nameOf(unsigned Id) { return "v" + std::to_string(Id); }

/// A random tree over a few variables, small constants and the int64
/// extremes, so that equal structures recur and affine arithmetic
/// overflows.
const Expr *randomTree(ExprArena &X, SplitRng &Rng, unsigned Depth) {
  static const int64_t Consts[] = {0, 1, -1, 2, 3, INT64_MAX, INT64_MIN};
  unsigned Pick = Depth == 0 ? Rng.below(2) : Rng.below(7);
  switch (Pick) {
  case 0:
    return X.makeConst(Consts[Rng.below(std::size(Consts))]);
  case 1:
    return X.makeVar(static_cast<unsigned>(Rng.below(3)));
  case 2:
    return X.makeAdd(randomTree(X, Rng, Depth - 1),
                     randomTree(X, Rng, Depth - 1));
  case 3:
    return X.makeSub(randomTree(X, Rng, Depth - 1),
                     randomTree(X, Rng, Depth - 1));
  case 4:
    return X.makeMul(randomTree(X, Rng, Depth - 1),
                     randomTree(X, Rng, Depth - 1));
  case 5:
    return X.makeNeg(randomTree(X, Rng, Depth - 1));
  default: {
    std::vector<const Expr *> Subs;
    for (uint64_t D = 0, N = 1 + Rng.below(2); D < N; ++D)
      Subs.push_back(randomTree(X, Rng, Depth - 1));
    return X.makeArrayRead(static_cast<unsigned>(Rng.below(2)), Subs);
  }
  }
}

/// Structural equality by the definition that predates hash-consing: a
/// full recursive comparison that never looks at node identity.
bool structurallyEqual(const Expr *A, const Expr *B) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::Const:
    return A->constValue() == B->constValue();
  case ExprKind::Var:
    return A->varId() == B->varId();
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    return structurallyEqual(A->lhs(), B->lhs()) &&
           structurallyEqual(A->rhs(), B->rhs());
  case ExprKind::Neg:
    return structurallyEqual(A->lhs(), B->lhs());
  case ExprKind::ArrayRead:
    if (A->arrayId() != B->arrayId() ||
        A->subscripts().size() != B->subscripts().size())
      return false;
    for (size_t I = 0; I < A->subscripts().size(); ++I)
      if (!structurallyEqual(A->subscripts()[I], B->subscripts()[I]))
        return false;
    return true;
  }
  return false;
}

/// toAffine by the recursive AffineExpr arithmetic that predates the
/// per-node forms.
std::optional<AffineExpr> referenceAffine(const Expr *E) {
  auto Checked = [](AffineExpr A) -> std::optional<AffineExpr> {
    if (A.overflowed())
      return std::nullopt;
    return A;
  };
  switch (E->kind()) {
  case ExprKind::Const:
    return AffineExpr(E->constValue());
  case ExprKind::Var:
    return AffineExpr::variable(E->varId());
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul: {
    std::optional<AffineExpr> L = referenceAffine(E->lhs());
    std::optional<AffineExpr> R = referenceAffine(E->rhs());
    if (!L || !R)
      return std::nullopt;
    if (E->kind() == ExprKind::Add)
      return Checked(*L + *R);
    if (E->kind() == ExprKind::Sub)
      return Checked(*L - *R);
    if (L->isConstant())
      return Checked(R->scaled(L->constant()));
    if (R->isConstant())
      return Checked(L->scaled(R->constant()));
    return std::nullopt;
  }
  case ExprKind::Neg: {
    std::optional<AffineExpr> L = referenceAffine(E->lhs());
    if (!L)
      return std::nullopt;
    return Checked(-*L);
  }
  case ExprKind::ArrayRead:
    return std::nullopt;
  }
  return std::nullopt;
}

} // namespace

TEST(Expr, LeafAccessors) {
  ExprArena X;
  const Expr *C = X.makeConst(42);
  EXPECT_EQ(C->kind(), ExprKind::Const);
  EXPECT_EQ(C->constValue(), 42);
  const Expr *V = X.makeVar(3);
  EXPECT_EQ(V->kind(), ExprKind::Var);
  EXPECT_EQ(V->varId(), 3u);
}

TEST(Expr, Rendering) {
  ExprArena X;
  const Expr *E = X.makeAdd(X.makeMul(X.makeConst(2),
                                          X.makeVar(0)),
                            X.makeNeg(X.makeVar(1)));
  EXPECT_EQ(E->str(nameOf), "((2 * v0) + (-v1))");
}

TEST(Expr, SubstituteReplacesVars) {
  ExprArena X;
  const Expr *E = X.makeAdd(X.makeVar(0), X.makeVar(1));
  const Expr *Out = substitute(X, E, [&](unsigned Id) -> const Expr * {
    if (Id == 0)
      return X.makeConst(7);
    return nullptr;
  });
  EXPECT_EQ(Out->str(nameOf), "(7 + v1)");
}

TEST(Expr, SubstituteInsideArrayRead) {
  ExprArena X;
  std::vector<const Expr *> Subs;
  Subs.push_back(X.makeVar(0));
  const Expr *E = X.makeArrayRead(5, Subs);
  const Expr *Out = substitute(X, E, [&](unsigned Id) -> const Expr * {
    return Id == 0 ? X.makeConst(9) : nullptr;
  });
  ASSERT_EQ(Out->kind(), ExprKind::ArrayRead);
  EXPECT_EQ(Out->subscripts()[0]->constValue(), 9);
}

TEST(Expr, SubstituteReplacingNothingReturnsInput) {
  ExprArena X;
  std::vector<const Expr *> Subs;
  Subs.push_back(X.makeSub(X.makeVar(1), X.makeConst(2)));
  Subs.push_back(X.makeVar(0));
  const Expr *E = X.makeAdd(
      X.makeMul(X.makeConst(3), X.makeNeg(X.makeVar(0))),
      X.makeArrayRead(4, Subs));
  // No hit at all, and a hit on a variable that does not occur.
  EXPECT_EQ(substitute(X, E, [](unsigned) -> const Expr * { return nullptr; }), E);
  EXPECT_EQ(substitute(X, E, [&](unsigned Id) -> const Expr * {
              return Id == 9 ? X.makeConst(1) : nullptr;
            }),
            E);
}

TEST(Expr, SubstituteSharesUntouchedSubtrees) {
  ExprArena X;
  const Expr *Left = X.makeMul(X.makeConst(3), X.makeVar(0));
  const Expr *Two = X.makeConst(2);
  const Expr *FirstSub = X.makeAdd(X.makeVar(0), X.makeConst(1));
  std::vector<const Expr *> Subs;
  Subs.push_back(FirstSub);
  Subs.push_back(X.makeSub(X.makeVar(1), Two));
  const Expr *Read = X.makeArrayRead(4, Subs);
  const Expr *E = X.makeAdd(Left, Read);

  const Expr *Out = substitute(X, E, [&](unsigned Id) -> const Expr * {
    return Id == 1 ? X.makeConst(8) : nullptr;
  });
  EXPECT_EQ(Out->str(nameOf), "((3 * v0) + @4[(v0 + 1)][(8 - 2)])");
  // Only the path from the root to v1 is rebuilt.
  EXPECT_NE(Out, E);
  EXPECT_EQ(Out->lhs(), Left);
  EXPECT_NE(Out->rhs(), Read);
  EXPECT_EQ(Out->rhs()->subscripts()[0], FirstSub);
  EXPECT_EQ(Out->rhs()->subscripts()[1]->rhs(), Two);
  // The input is untouched.
  EXPECT_EQ(E->str(nameOf), "((3 * v0) + @4[(v0 + 1)][(v1 - 2)])");
}

TEST(Expr, CollectVarsFirstSeenOrder) {
  ExprArena X;
  const Expr *E = X.makeAdd(
      X.makeVar(2),
      X.makeSub(X.makeVar(0), X.makeVar(2)));
  std::vector<unsigned> Vars;
  E->collectVars(Vars);
  EXPECT_EQ(Vars, (std::vector<unsigned>{2, 0}));
}

TEST(Expr, References) {
  ExprArena X;
  const Expr *E = X.makeMul(X.makeVar(1), X.makeConst(3));
  EXPECT_TRUE(E->references(1));
  EXPECT_FALSE(E->references(0));
}

TEST(Expr, CollectArrayReads) {
  ExprArena X;
  // a[b[i]] + b[j]: reads in DFS order a, b (nested), b.
  std::vector<const Expr *> Inner;
  Inner.push_back(X.makeVar(0));
  const Expr *B1 = X.makeArrayRead(1, Inner);
  std::vector<const Expr *> Outer;
  Outer.push_back(B1);
  const Expr *A = X.makeArrayRead(0, Outer);
  std::vector<const Expr *> Simple;
  Simple.push_back(X.makeVar(1));
  const Expr *B2 = X.makeArrayRead(1, Simple);
  const Expr *E = X.makeAdd(A, B2);

  std::vector<const Expr *> Reads;
  E->collectArrayReads(Reads);
  ASSERT_EQ(Reads.size(), 3u);
  EXPECT_EQ(Reads[0]->arrayId(), 0u);
  EXPECT_EQ(Reads[1]->arrayId(), 1u);
  EXPECT_EQ(Reads[2]->arrayId(), 1u);
  EXPECT_TRUE(E->containsArrayRead());
  EXPECT_FALSE(X.makeConst(1)->containsArrayRead());
}

TEST(AffineExpr, Construction) {
  AffineExpr A = AffineExpr::variable(2, 3);
  EXPECT_EQ(A.coeff(2), 3);
  EXPECT_EQ(A.coeff(1), 0);
  EXPECT_EQ(A.constant(), 0);
  EXPECT_FALSE(A.isConstant());
  EXPECT_TRUE(AffineExpr(5).isConstant());
}

TEST(AffineExpr, ArithmeticCombinesTerms) {
  AffineExpr A = AffineExpr::variable(0, 2) + AffineExpr::variable(1, 1) +
                 AffineExpr(4);
  AffineExpr B = AffineExpr::variable(0, -2) + AffineExpr(1);
  AffineExpr Sum = A + B;
  EXPECT_EQ(Sum.coeff(0), 0); // cancelled and removed
  EXPECT_EQ(Sum.terms().size(), 1u);
  EXPECT_EQ(Sum.constant(), 5);
}

TEST(AffineExpr, ScaledAndNegated) {
  AffineExpr A = AffineExpr::variable(0, 2) + AffineExpr(3);
  AffineExpr S = A.scaled(-2);
  EXPECT_EQ(S.coeff(0), -4);
  EXPECT_EQ(S.constant(), -6);
  EXPECT_EQ((-A).coeff(0), -2);
}

TEST(AffineExpr, Substituted) {
  // x0 := 2*x1 + 1 in (3*x0 + x1 + 5).
  AffineExpr E = AffineExpr::variable(0, 3) + AffineExpr::variable(1, 1) +
                 AffineExpr(5);
  AffineExpr Repl = AffineExpr::variable(1, 2) + AffineExpr(1);
  AffineExpr Out = E.substituted(0, Repl);
  EXPECT_EQ(Out.coeff(0), 0);
  EXPECT_EQ(Out.coeff(1), 7);
  EXPECT_EQ(Out.constant(), 8);
}

TEST(AffineExpr, Evaluate) {
  AffineExpr E = AffineExpr::variable(0, 2) + AffineExpr::variable(3, -1) +
                 AffineExpr(10);
  std::optional<int64_t> V =
      E.evaluate([](unsigned Id) { return static_cast<int64_t>(Id); });
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 2 * 0 - 3 + 10);
}

TEST(AffineExpr, OverflowPoisons) {
  AffineExpr Big = AffineExpr::variable(0, INT64_MAX);
  AffineExpr Sum = Big + AffineExpr::variable(0, 1);
  EXPECT_TRUE(Sum.overflowed());
  EXPECT_TRUE(Big.scaled(3).overflowed());
}

TEST(AffineExpr, Str) {
  AffineExpr E = AffineExpr::variable(0, 1) + AffineExpr::variable(1, -2) +
                 AffineExpr(-3);
  EXPECT_EQ(E.str(nameOf), "v0 - 2*v1 - 3");
  EXPECT_EQ(AffineExpr(7).str(nameOf), "7");
}

TEST(ToAffine, LinearTrees) {
  ExprArena X;
  // 2*(i + 3) - j.
  const Expr *E = X.makeSub(
      X.makeMul(X.makeConst(2),
                    X.makeAdd(X.makeVar(0), X.makeConst(3))),
      X.makeVar(1));
  std::optional<AffineExpr> A = toAffine(E);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->coeff(0), 2);
  EXPECT_EQ(A->coeff(1), -1);
  EXPECT_EQ(A->constant(), 6);
}

TEST(ToAffine, RightConstantMultiply) {
  ExprArena X;
  const Expr *E = X.makeMul(X.makeVar(0), X.makeConst(5));
  std::optional<AffineExpr> A = toAffine(E);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->coeff(0), 5);
}

TEST(ToAffine, RejectsNonlinear) {
  ExprArena X;
  const Expr *E = X.makeMul(X.makeVar(0), X.makeVar(1));
  EXPECT_FALSE(toAffine(E).has_value());
}

TEST(ToAffine, RejectsArrayReads) {
  ExprArena X;
  std::vector<const Expr *> Subs;
  Subs.push_back(X.makeVar(0));
  const Expr *E = X.makeArrayRead(0, Subs);
  EXPECT_FALSE(toAffine(E).has_value());
}

TEST(ExprEquals, StructuralEquality) {
  ExprArena X;
  const Expr *A = X.makeAdd(X.makeVar(0), X.makeConst(3));
  const Expr *B = X.makeAdd(X.makeVar(0), X.makeConst(3));
  const Expr *C = X.makeAdd(X.makeConst(3), X.makeVar(0));
  EXPECT_TRUE(exprEquals(A, B));
  EXPECT_FALSE(exprEquals(A, C)); // structural, not semantic
  EXPECT_FALSE(exprEquals(A, X.makeVar(0)));
  EXPECT_FALSE(exprEquals(X.makeVar(0), X.makeVar(1)));
  EXPECT_TRUE(exprEquals(X.makeNeg(A), X.makeNeg(B)));

  std::vector<const Expr *> S1, S2, S3;
  S1.push_back(X.makeVar(0));
  S2.push_back(X.makeVar(0));
  S3.push_back(X.makeVar(1));
  const Expr *R1 = X.makeArrayRead(0, S1);
  const Expr *R2 = X.makeArrayRead(0, S2);
  const Expr *R3 = X.makeArrayRead(0, S3);
  EXPECT_TRUE(exprEquals(R1, R2));
  EXPECT_FALSE(exprEquals(R1, R3));
}

TEST(ToAffine, NegationAndNesting) {
  ExprArena X;
  const Expr *E = X.makeNeg(
      X.makeSub(X.makeConst(4), X.makeVar(2)));
  std::optional<AffineExpr> A = toAffine(E);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->coeff(2), 1);
  EXPECT_EQ(A->constant(), -4);
}

TEST(ExprArena, StructurallyEqualNodesAreOnePointer) {
  ExprArena X;
  const Expr *A = X.makeAdd(X.makeVar(0), X.makeConst(3));
  EXPECT_EQ(X.makeAdd(X.makeVar(0), X.makeConst(3)), A);
  EXPECT_NE(X.makeAdd(X.makeConst(3), X.makeVar(0)), A);
  std::vector<const Expr *> Subs{A, X.makeVar(1)};
  EXPECT_EQ(X.makeArrayRead(2, Subs), X.makeArrayRead(2, Subs));
  size_t Made = X.size();
  X.makeNeg(A);
  X.makeNeg(A);
  EXPECT_EQ(X.size(), Made + 1);

  // Over random trees: equal structure iff equal pointer.
  SplitRng Rng(11);
  std::vector<const Expr *> Trees;
  for (unsigned I = 0; I < 400; ++I)
    Trees.push_back(randomTree(X, Rng, 1 + I % 4));
  for (const Expr *T : Trees)
    for (const Expr *U : Trees) {
      ASSERT_EQ(structurallyEqual(T, U), T == U)
          << T->str(nameOf) << " vs " << U->str(nameOf);
      ASSERT_EQ(exprEquals(T, U), T == U);
    }
}

TEST(ExprArena, ExprEqualsAcrossArenasIsStructural) {
  // The same draws in two unrelated arenas, and in a child arena whose
  // operands may be its parent's nodes.
  auto Parent = std::make_shared<ExprArena>();
  ExprArena Other;
  ExprArena Child(Parent);
  SplitRng R1(5), R2(5), R3(6);
  std::vector<const Expr *> InParent, InOther, InChild;
  for (unsigned I = 0; I < 300; ++I) {
    InParent.push_back(randomTree(*Parent, R1, 1 + I % 4));
    InOther.push_back(randomTree(Other, R2, 1 + I % 4));
  }
  for (unsigned I = 0; I < 300; ++I) {
    const Expr *From = InParent[R3.below(InParent.size())];
    switch (R3.below(3)) {
    case 0:
      InChild.push_back(Child.makeNeg(From));
      break;
    case 1:
      InChild.push_back(Child.makeAdd(From, randomTree(Child, R3, 2)));
      break;
    default:
      InChild.push_back(randomTree(Child, R3, 1 + I % 4));
      break;
    }
  }
  for (size_t I = 0; I < InParent.size(); ++I)
    EXPECT_TRUE(exprEquals(InParent[I], InOther[I]));
  for (const auto *Set : {&InParent, &InOther, &InChild})
    for (const Expr *T : *Set)
      for (const Expr *U : InChild) {
        ASSERT_EQ(exprEquals(T, U), structurallyEqual(T, U))
            << T->str(nameOf) << " vs " << U->str(nameOf);
        ASSERT_EQ(exprEquals(U, T), structurallyEqual(T, U));
      }
  // The child interns by structure even when an operand is inherited:
  // negating a parent node and the child's own copy of it gives one node.
  const Expr *P = *std::find_if(InParent.begin(), InParent.end(),
                                [](const Expr *E) { return E->varMask(); });
  const Expr *Own = substitute(
      Child, P, [&Child](unsigned V) { return Child.makeVar(V); });
  ASSERT_NE(Own, P);
  EXPECT_FALSE(Child.owns(P));
  EXPECT_TRUE(Child.owns(Own));
  EXPECT_EQ(Child.makeNeg(Own), Child.makeNeg(P));
}

TEST(ExprArena, NodeSummariesMatchTheTree) {
  ExprArena X;
  SplitRng Rng(3);
  for (unsigned I = 0; I < 3000; ++I) {
    const Expr *E = randomTree(X, Rng, 1 + I % 5);
    std::optional<AffineExpr> Want = referenceAffine(E);
    std::optional<AffineExpr> Got = toAffine(E);
    ASSERT_EQ(Got.has_value(), Want.has_value()) << E->str(nameOf);
    if (Want) {
      ASSERT_EQ(*Got, *Want) << E->str(nameOf);
    }
    std::vector<const Expr *> Reads;
    E->collectArrayReads(Reads);
    ASSERT_EQ(E->containsArrayRead(), !Reads.empty());
    std::vector<unsigned> Vars;
    E->collectVars(Vars);
    for (unsigned V = 0; V < 4; ++V)
      ASSERT_EQ(E->references(V),
                std::find(Vars.begin(), Vars.end(), V) != Vars.end());
  }
}