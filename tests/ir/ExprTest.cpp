//===- tests/ir/ExprTest.cpp - Expression tests ---------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "gtest/gtest.h"

#include <climits>

using namespace edda;

namespace {

std::string nameOf(unsigned Id) { return "v" + std::to_string(Id); }

} // namespace

TEST(Expr, LeafAccessors) {
  ExprPtr C = Expr::makeConst(42);
  EXPECT_EQ(C->kind(), ExprKind::Const);
  EXPECT_EQ(C->constValue(), 42);
  ExprPtr V = Expr::makeVar(3);
  EXPECT_EQ(V->kind(), ExprKind::Var);
  EXPECT_EQ(V->varId(), 3u);
}

TEST(Expr, Rendering) {
  ExprPtr E = Expr::makeAdd(Expr::makeMul(Expr::makeConst(2),
                                          Expr::makeVar(0)),
                            Expr::makeNeg(Expr::makeVar(1)));
  EXPECT_EQ(E->str(nameOf), "((2 * v0) + (-v1))");
}

TEST(Expr, SubstituteReplacesVars) {
  ExprPtr E = Expr::makeAdd(Expr::makeVar(0), Expr::makeVar(1));
  ExprPtr Out = substitute(E, [](unsigned Id) -> ExprPtr {
    if (Id == 0)
      return Expr::makeConst(7);
    return nullptr;
  });
  EXPECT_EQ(Out->str(nameOf), "(7 + v1)");
}

TEST(Expr, SubstituteInsideArrayRead) {
  std::vector<ExprPtr> Subs;
  Subs.push_back(Expr::makeVar(0));
  ExprPtr E = Expr::makeArrayRead(5, std::move(Subs));
  ExprPtr Out = substitute(E, [](unsigned Id) -> ExprPtr {
    return Id == 0 ? Expr::makeConst(9) : nullptr;
  });
  ASSERT_EQ(Out->kind(), ExprKind::ArrayRead);
  EXPECT_EQ(Out->subscripts()[0]->constValue(), 9);
}

TEST(Expr, SubstituteReplacingNothingReturnsInput) {
  std::vector<ExprPtr> Subs;
  Subs.push_back(Expr::makeSub(Expr::makeVar(1), Expr::makeConst(2)));
  Subs.push_back(Expr::makeVar(0));
  ExprPtr E = Expr::makeAdd(
      Expr::makeMul(Expr::makeConst(3), Expr::makeNeg(Expr::makeVar(0))),
      Expr::makeArrayRead(4, std::move(Subs)));
  // No hit at all, and a hit on a variable that does not occur.
  EXPECT_EQ(substitute(E, [](unsigned) -> ExprPtr { return nullptr; }), E);
  EXPECT_EQ(substitute(E, [](unsigned Id) -> ExprPtr {
              return Id == 9 ? Expr::makeConst(1) : nullptr;
            }),
            E);
}

TEST(Expr, SubstituteSharesUntouchedSubtrees) {
  ExprPtr Left = Expr::makeMul(Expr::makeConst(3), Expr::makeVar(0));
  ExprPtr Two = Expr::makeConst(2);
  ExprPtr FirstSub = Expr::makeAdd(Expr::makeVar(0), Expr::makeConst(1));
  std::vector<ExprPtr> Subs;
  Subs.push_back(FirstSub);
  Subs.push_back(Expr::makeSub(Expr::makeVar(1), Two));
  ExprPtr Read = Expr::makeArrayRead(4, std::move(Subs));
  ExprPtr E = Expr::makeAdd(Left, Read);

  ExprPtr Out = substitute(E, [](unsigned Id) -> ExprPtr {
    return Id == 1 ? Expr::makeConst(8) : nullptr;
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
  ExprPtr E = Expr::makeAdd(
      Expr::makeVar(2),
      Expr::makeSub(Expr::makeVar(0), Expr::makeVar(2)));
  std::vector<unsigned> Vars;
  E->collectVars(Vars);
  EXPECT_EQ(Vars, (std::vector<unsigned>{2, 0}));
}

TEST(Expr, References) {
  ExprPtr E = Expr::makeMul(Expr::makeVar(1), Expr::makeConst(3));
  EXPECT_TRUE(E->references(1));
  EXPECT_FALSE(E->references(0));
}

TEST(Expr, CollectArrayReads) {
  // a[b[i]] + b[j]: reads in DFS order a, b (nested), b.
  std::vector<ExprPtr> Inner;
  Inner.push_back(Expr::makeVar(0));
  ExprPtr B1 = Expr::makeArrayRead(1, std::move(Inner));
  std::vector<ExprPtr> Outer;
  Outer.push_back(B1);
  ExprPtr A = Expr::makeArrayRead(0, std::move(Outer));
  std::vector<ExprPtr> Simple;
  Simple.push_back(Expr::makeVar(1));
  ExprPtr B2 = Expr::makeArrayRead(1, std::move(Simple));
  ExprPtr E = Expr::makeAdd(A, B2);

  std::vector<const Expr *> Reads;
  E->collectArrayReads(Reads);
  ASSERT_EQ(Reads.size(), 3u);
  EXPECT_EQ(Reads[0]->arrayId(), 0u);
  EXPECT_EQ(Reads[1]->arrayId(), 1u);
  EXPECT_EQ(Reads[2]->arrayId(), 1u);
  EXPECT_TRUE(E->containsArrayRead());
  EXPECT_FALSE(Expr::makeConst(1)->containsArrayRead());
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
  // 2*(i + 3) - j.
  ExprPtr E = Expr::makeSub(
      Expr::makeMul(Expr::makeConst(2),
                    Expr::makeAdd(Expr::makeVar(0), Expr::makeConst(3))),
      Expr::makeVar(1));
  std::optional<AffineExpr> A = toAffine(E);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->coeff(0), 2);
  EXPECT_EQ(A->coeff(1), -1);
  EXPECT_EQ(A->constant(), 6);
}

TEST(ToAffine, RightConstantMultiply) {
  ExprPtr E = Expr::makeMul(Expr::makeVar(0), Expr::makeConst(5));
  std::optional<AffineExpr> A = toAffine(E);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->coeff(0), 5);
}

TEST(ToAffine, RejectsNonlinear) {
  ExprPtr E = Expr::makeMul(Expr::makeVar(0), Expr::makeVar(1));
  EXPECT_FALSE(toAffine(E).has_value());
}

TEST(ToAffine, RejectsArrayReads) {
  std::vector<ExprPtr> Subs;
  Subs.push_back(Expr::makeVar(0));
  ExprPtr E = Expr::makeArrayRead(0, std::move(Subs));
  EXPECT_FALSE(toAffine(E).has_value());
}

TEST(ExprEquals, StructuralEquality) {
  ExprPtr A = Expr::makeAdd(Expr::makeVar(0), Expr::makeConst(3));
  ExprPtr B = Expr::makeAdd(Expr::makeVar(0), Expr::makeConst(3));
  ExprPtr C = Expr::makeAdd(Expr::makeConst(3), Expr::makeVar(0));
  EXPECT_TRUE(exprEquals(A, B));
  EXPECT_FALSE(exprEquals(A, C)); // structural, not semantic
  EXPECT_FALSE(exprEquals(A, Expr::makeVar(0)));
  EXPECT_FALSE(exprEquals(Expr::makeVar(0), Expr::makeVar(1)));
  EXPECT_TRUE(exprEquals(Expr::makeNeg(A), Expr::makeNeg(B)));

  std::vector<ExprPtr> S1, S2, S3;
  S1.push_back(Expr::makeVar(0));
  S2.push_back(Expr::makeVar(0));
  S3.push_back(Expr::makeVar(1));
  ExprPtr R1 = Expr::makeArrayRead(0, std::move(S1));
  ExprPtr R2 = Expr::makeArrayRead(0, std::move(S2));
  ExprPtr R3 = Expr::makeArrayRead(0, std::move(S3));
  EXPECT_TRUE(exprEquals(R1, R2));
  EXPECT_FALSE(exprEquals(R1, R3));
}

TEST(ToAffine, NegationAndNesting) {
  ExprPtr E = Expr::makeNeg(
      Expr::makeSub(Expr::makeConst(4), Expr::makeVar(2)));
  std::optional<AffineExpr> A = toAffine(E);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->coeff(2), 1);
  EXPECT_EQ(A->constant(), -4);
}
