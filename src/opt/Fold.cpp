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
const Expr *affineToExpr(ExprArena &A, const AffineForm &F) {
  const Expr *Out = nullptr;
  for (const AffineExpr::Term &T : F.Terms) {
    int64_t Coeff = T.Coeff;
    bool Negative = Coeff < 0;
    // INT64_MIN magnitude is not negatable; bail to the caller.
    if (Coeff == INT64_MIN)
      return nullptr;
    int64_t Mag = Negative ? -Coeff : Coeff;
    const Expr *Term =
        Mag == 1 ? A.makeVar(T.VarId)
                 : A.makeMul(A.makeConst(Mag), A.makeVar(T.VarId));
    if (!Out)
      Out = Negative ? A.makeNeg(Term) : Term;
    else
      Out = Negative ? A.makeSub(Out, Term) : A.makeAdd(Out, Term);
  }
  if (!Out)
    return A.makeConst(F.Constant);
  if (F.Constant > 0)
    Out = A.makeAdd(Out, A.makeConst(F.Constant));
  else if (F.Constant < 0) {
    if (F.Constant == INT64_MIN)
      return nullptr;
    Out = A.makeSub(Out, A.makeConst(-F.Constant));
  }
  return Out;
}

/// Canonicalizes arithmetic trees through the affine form when possible
/// (combining like terms and constants across parentheses), otherwise
/// returns the input unchanged.
const Expr *canonicalize(ExprArena &A, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Neg:
    break;
  default:
    return E;
  }
  if (!E->affine())
    return E;
  if (const Expr *Canonical = affineToExpr(A, *E->affine()))
    return Canonical;
  return E;
}

/// Structural folding (constants, identities); canonicalization runs on
/// top of this in foldExpr.
const Expr *foldStructural(ExprArena &A, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const:
  case ExprKind::Var:
    return E;
  case ExprKind::ArrayRead: {
    // Subs stays empty until the first subscript changes.
    std::span<const Expr *const> Old = E->subscripts();
    std::vector<const Expr *> Subs;
    for (size_t I = 0; I < Old.size(); ++I) {
      const Expr *S = foldExpr(A, Old[I]);
      if (Subs.empty()) {
        if (S == Old[I])
          continue;
        Subs.reserve(Old.size());
        Subs.assign(Old.begin(), Old.begin() + I);
      }
      Subs.push_back(S);
    }
    if (Subs.empty())
      return E;
    return A.makeArrayRead(E->arrayId(), Subs);
  }
  case ExprKind::Neg: {
    const Expr *L = foldExpr(A, E->lhs());
    if (L->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V = checkedNeg(L->constValue()))
        return A.makeConst(*V);
    }
    if (L->kind() == ExprKind::Neg)
      return L->lhs(); // --x == x
    if (L == E->lhs())
      return E;
    return A.makeNeg(L);
  }
  case ExprKind::Add: {
    const Expr *L = foldExpr(A, E->lhs());
    const Expr *R = foldExpr(A, E->rhs());
    if (L->kind() == ExprKind::Const && R->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V =
              checkedAdd(L->constValue(), R->constValue()))
        return A.makeConst(*V);
    }
    if (L->kind() == ExprKind::Const && L->constValue() == 0)
      return R;
    if (R->kind() == ExprKind::Const && R->constValue() == 0)
      return L;
    if (L == E->lhs() && R == E->rhs())
      return E;
    return A.makeAdd(L, R);
  }
  case ExprKind::Sub: {
    const Expr *L = foldExpr(A, E->lhs());
    const Expr *R = foldExpr(A, E->rhs());
    if (L->kind() == ExprKind::Const && R->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V =
              checkedSub(L->constValue(), R->constValue()))
        return A.makeConst(*V);
    }
    if (R->kind() == ExprKind::Const && R->constValue() == 0)
      return L;
    if (L->kind() == ExprKind::Const && L->constValue() == 0)
      return foldExpr(A, A.makeNeg(R));
    if (L == E->lhs() && R == E->rhs())
      return E;
    return A.makeSub(L, R);
  }
  case ExprKind::Mul: {
    const Expr *L = foldExpr(A, E->lhs());
    const Expr *R = foldExpr(A, E->rhs());
    if (L->kind() == ExprKind::Const && R->kind() == ExprKind::Const) {
      if (std::optional<int64_t> V =
              checkedMul(L->constValue(), R->constValue()))
        return A.makeConst(*V);
    }
    for (int Side = 0; Side < 2; ++Side) {
      const Expr *C = Side == 0 ? L : R;
      const Expr *Other = Side == 0 ? R : L;
      if (C->kind() != ExprKind::Const)
        continue;
      if (C->constValue() == 0)
        return A.makeConst(0);
      if (C->constValue() == 1)
        return Other;
      if (C->constValue() == -1)
        return foldExpr(A, A.makeNeg(Other));
    }
    if (L == E->lhs() && R == E->rhs())
      return E;
    return A.makeMul(L, R);
  }
  }
  assert(false && "unknown expression kind");
  return E;
}

} // namespace

const Expr *edda::foldExpr(ExprArena &A, const Expr *E) {
  if (const Expr *Memo = A.folded(E))
    return Memo;
  const Expr *Out = canonicalize(A, foldStructural(A, E));
  // Folding is idempotent, so the result is its own fold too.
  A.setFolded(E, Out);
  A.setFolded(Out, Out);
  return Out;
}

namespace {

void foldStmt(ExprArena &A, Stmt &S) {
  if (S.kind() == StmtKind::Assign) {
    AssignStmt &As = asAssign(S);
    if (As.isArrayLhs())
      for (unsigned D = 0; D < As.lhsSubscripts().size(); ++D)
        As.setLhsSubscript(D, foldExpr(A, As.lhsSubscripts()[D]));
    As.setRhs(foldExpr(A, As.rhs()));
    return;
  }
  LoopStmt &L = asLoop(S);
  L.setLo(foldExpr(A, L.lo()));
  L.setHi(foldExpr(A, L.hi()));
  for (StmtPtr &Child : L.body())
    foldStmt(A, *Child);
}

} // namespace

void edda::foldConstants(Program &P) {
  for (StmtPtr &S : P.body())
    foldStmt(P.exprs(), *S);
}
