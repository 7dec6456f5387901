//===- opt/Fold.cpp - Constant folding ------------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Fold.h"

#include "support/IntMath.h"

using namespace edda;

namespace {

/// Rebuilds an affine form as a canonical expression tree: terms in
/// variable-id order, constant last, negative parts via subtraction.
ExprPtr affineToExpr(const AffineExpr &A) {
  ExprPtr Out;
  for (const AffineExpr::Term &T : A.terms()) {
    int64_t Coeff = T.Coeff;
    bool Negative = Coeff < 0;
    // INT64_MIN magnitude is not negatable; bail to the caller.
    if (Coeff == INT64_MIN)
      return nullptr;
    int64_t Mag = Negative ? -Coeff : Coeff;
    ExprPtr Term = Mag == 1 ? Expr::makeVar(T.VarId)
                            : Expr::makeMul(Expr::makeConst(Mag),
                                            Expr::makeVar(T.VarId));
    if (!Out)
      Out = Negative ? Expr::makeNeg(std::move(Term)) : std::move(Term);
    else
      Out = Negative ? Expr::makeSub(std::move(Out), std::move(Term))
                     : Expr::makeAdd(std::move(Out), std::move(Term));
  }
  if (!Out)
    return Expr::makeConst(A.constant());
  if (A.constant() > 0)
    Out = Expr::makeAdd(std::move(Out), Expr::makeConst(A.constant()));
  else if (A.constant() < 0) {
    if (A.constant() == INT64_MIN)
      return nullptr;
    Out = Expr::makeSub(std::move(Out),
                        Expr::makeConst(-A.constant()));
  }
  return Out;
}

/// Canonicalizes arithmetic trees through the affine form when possible
/// (combining like terms and constants across parentheses), otherwise
/// returns the input unchanged.
ExprPtr canonicalize(ExprPtr E) {
  switch (E->kind()) {
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Neg:
    break;
  default:
    return E;
  }
  std::optional<AffineExpr> A = toAffine(E);
  if (!A || A->overflowed())
    return E;
  if (ExprPtr Canonical = affineToExpr(*A))
    return Canonical;
  return E;
}

/// Structural folding (constants, identities); canonicalization runs on
/// top of this in foldExpr.
ExprPtr foldStructural(const ExprPtr &E) {
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Var:
    return E;
  case ExprKind::ArrayRead: {
    // Subs stays empty until the first subscript changes.
    const std::vector<ExprPtr> &Old = E->subscripts();
    std::vector<ExprPtr> Subs;
    for (size_t I = 0; I < Old.size(); ++I) {
      ExprPtr S = foldExpr(Old[I]);
      if (Subs.empty()) {
        if (S == Old[I])
          continue;
        Subs.reserve(Old.size());
        Subs.assign(Old.begin(), Old.begin() + I);
      }
      Subs.push_back(std::move(S));
    }
    if (Subs.empty())
      return E;
    return Expr::makeArrayRead(E->arrayId(), std::move(Subs));
  }
  case ExprKind::Neg: {
    ExprPtr L = foldExpr(E->lhs());
    if (L->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V = checkedNeg(L->constValue()))
        return Expr::makeConst(*V);
    }
    if (L->kind() == ExprKind::Neg)
      return L->lhs(); // --x == x
    if (L == E->lhs())
      return E;
    return Expr::makeNeg(std::move(L));
  }
  case ExprKind::Add: {
    ExprPtr L = foldExpr(E->lhs());
    ExprPtr R = foldExpr(E->rhs());
    if (L->kind() == ExprKind::Const && R->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V =
              checkedAdd(L->constValue(), R->constValue()))
        return Expr::makeConst(*V);
    }
    if (L->kind() == ExprKind::Const && L->constValue() == 0)
      return R;
    if (R->kind() == ExprKind::Const && R->constValue() == 0)
      return L;
    if (L == E->lhs() && R == E->rhs())
      return E;
    return Expr::makeAdd(std::move(L), std::move(R));
  }
  case ExprKind::Sub: {
    ExprPtr L = foldExpr(E->lhs());
    ExprPtr R = foldExpr(E->rhs());
    if (L->kind() == ExprKind::Const && R->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V =
              checkedSub(L->constValue(), R->constValue()))
        return Expr::makeConst(*V);
    }
    if (R->kind() == ExprKind::Const && R->constValue() == 0)
      return L;
    if (L->kind() == ExprKind::Const && L->constValue() == 0)
      return foldExpr(Expr::makeNeg(std::move(R)));
    if (L == E->lhs() && R == E->rhs())
      return E;
    return Expr::makeSub(std::move(L), std::move(R));
  }
  case ExprKind::Mul: {
    ExprPtr L = foldExpr(E->lhs());
    ExprPtr R = foldExpr(E->rhs());
    if (L->kind() == ExprKind::Const && R->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V =
              checkedMul(L->constValue(), R->constValue()))
        return Expr::makeConst(*V);
    }
    for (int Side = 0; Side < 2; ++Side) {
      const ExprPtr &C = Side == 0 ? L : R;
      const ExprPtr &Other = Side == 0 ? R : L;
      if (C->kind() != ExprKind::Const)
        continue;
      if (C->constValue() == 0)
        return Expr::makeConst(0);
      if (C->constValue() == 1)
        return Other;
      if (C->constValue() == -1)
        return foldExpr(Expr::makeNeg(Other));
    }
    if (L == E->lhs() && R == E->rhs())
      return E;
    return Expr::makeMul(std::move(L), std::move(R));
  }
  }
  assert(false && "unknown expression kind");
  return E;
}

} // namespace

ExprPtr edda::foldExpr(const ExprPtr &E) {
  // Folding is idempotent, so a node this function returned before is
  // its own fold; the marker spares the prepass's repeated passes from
  // rebuilding subtrees nothing has touched since.
  if (E->isFolded())
    return E;
  ExprPtr Out = canonicalize(foldStructural(E));
  Out->markFolded();
  return Out;
}

namespace {

void foldStmt(Stmt &S) {
  if (S.kind() == StmtKind::Assign) {
    AssignStmt &A = asAssign(S);
    if (A.isArrayLhs())
      for (unsigned D = 0; D < A.lhsSubscripts().size(); ++D)
        A.setLhsSubscript(D, foldExpr(A.lhsSubscripts()[D]));
    A.setRhs(foldExpr(A.rhs()));
    return;
  }
  LoopStmt &L = asLoop(S);
  L.setLo(foldExpr(L.lo()));
  L.setHi(foldExpr(L.hi()));
  for (StmtPtr &Child : L.body())
    foldStmt(*Child);
}

} // namespace

void edda::foldConstants(Program &P) {
  for (StmtPtr &S : P.body())
    foldStmt(*S);
}
