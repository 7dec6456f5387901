//===- opt/Induction.cpp - Induction variable substitution ----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Induction.h"

#include "opt/Fold.h"
#include "opt/ScalarBindings.h"

#include <algorithm>

using namespace edda;

namespace {

/// Matches k = k + c / k = k - c / k = c + k with constant c; returns
/// the increment.
std::optional<int64_t> matchIncrement(const AssignStmt &A) {
  if (A.isArrayLhs())
    return std::nullopt;
  unsigned K = A.lhsScalar();
  const Expr *Rhs = A.rhs();
  if (Rhs->kind() == ExprKind::Add) {
    const Expr *L = Rhs->lhs();
    const Expr *R = Rhs->rhs();
    if (L->kind() == ExprKind::Var && L->varId() == K &&
        R->kind() == ExprKind::Const)
      return R->constValue();
    if (R->kind() == ExprKind::Var && R->varId() == K &&
        L->kind() == ExprKind::Const)
      return L->constValue();
  }
  if (Rhs->kind() == ExprKind::Sub) {
    const Expr *L = Rhs->lhs();
    const Expr *R = Rhs->rhs();
    if (L->kind() == ExprKind::Var && L->varId() == K &&
        R->kind() == ExprKind::Const) {
      // k - INT64_MIN would overflow on negation; just skip it.
      if (R->constValue() == INT64_MIN)
        return std::nullopt;
      return -R->constValue();
    }
  }
  return std::nullopt;
}

class InductionPass {
public:
  explicit InductionPass(Program &P) : P(P), A(P.exprs()), Env(P) {}

  void run() {
    // An induction variable is a scalar the loop assigns.
    if (!Env.noScalarAssigned())
      walk(P.body());
  }

private:
  Program &P;
  ExprArena &A;
  /// Known entry values of scalars, kept by the same conservative rules
  /// as ScalarPropagation (but without rewriting uses; that is the other
  /// pass's job).
  ScalarBindings Env;

  /// Replaces the uses of \p VarId in \p E with \p Value.
  const Expr *substituteUse(const Expr *E, unsigned VarId,
                            const Expr *Value) {
    if (E->references(VarId))
      E = substitute(A, E, [VarId, Value](unsigned V) {
        return V == VarId ? Value : nullptr;
      });
    return foldExpr(A, E);
  }

  void rewriteStmtUses(Stmt &S, unsigned VarId, const Expr *Value);

  void walk(std::vector<StmtPtr> &Body) {
    for (StmtPtr &S : Body) {
      if (S->kind() == StmtKind::Assign) {
        AssignStmt &As = asAssign(*S);
        if (!As.isArrayLhs())
          Env.assign(As.lhsScalar(), As.rhs());
        continue;
      }

      LoopStmt &L = asLoop(*S);
      Env.enterLoop(L);
      if (L.step() == 1)
        rewriteInductionsIn(L);
      walk(L.body());
      Env.leaveLoop(L);
    }
  }

  void rewriteInductionsIn(LoopStmt &L) {
    // Candidates: direct children k = k + c whose variable is assigned
    // exactly once in the whole body and has a known entry value (which
    // cannot mention this loop's variable: entering the loop forgot
    // those).
    std::span<const unsigned> Assigned = Env.assignedInLoop();
    for (size_t Idx = 0; Idx < L.body().size(); ++Idx) {
      Stmt &Child = *L.body()[Idx];
      if (Child.kind() != StmtKind::Assign)
        continue;
      AssignStmt &As = asAssign(Child);
      std::optional<int64_t> Inc = matchIncrement(As);
      if (!Inc)
        continue;
      unsigned K = As.lhsScalar();
      if (std::count(Assigned.begin(), Assigned.end(), K) != 1)
        continue;
      const Expr *Entry = Env.entryValue(K);
      if (!Entry)
        continue;

      // Pre-increment value: E0 + c*(i - L); post adds one more c.
      const Expr *IterCount = A.makeSub(A.makeVar(L.varId()), L.lo());
      const Expr *Pre = foldExpr(
          A, A.makeAdd(Entry, A.makeMul(A.makeConst(*Inc), IterCount)));
      const Expr *Post = foldExpr(A, A.makeAdd(Pre, A.makeConst(*Inc)));

      for (size_t J = 0; J < L.body().size(); ++J) {
        if (J == Idx) {
          // The increment reads the pre value; rewrite its RHS so the
          // stored value stays correct.
          As.setRhs(substituteUse(As.rhs(), K, Pre));
          continue;
        }
        rewriteStmtUses(*L.body()[J], K, J < Idx ? Pre : Post);
      }
    }
  }
};

void InductionPass::rewriteStmtUses(Stmt &S, unsigned VarId,
                                    const Expr *Value) {
  if (S.kind() == StmtKind::Assign) {
    AssignStmt &As = asAssign(S);
    if (As.isArrayLhs())
      for (unsigned D = 0; D < As.lhsSubscripts().size(); ++D)
        As.setLhsSubscript(
            D, substituteUse(As.lhsSubscripts()[D], VarId, Value));
    As.setRhs(substituteUse(As.rhs(), VarId, Value));
    return;
  }
  LoopStmt &L = asLoop(S);
  L.setLo(substituteUse(L.lo(), VarId, Value));
  L.setHi(substituteUse(L.hi(), VarId, Value));
  for (StmtPtr &Child : L.body())
    rewriteStmtUses(*Child, VarId, Value);
}

} // namespace

void edda::substituteInductionVariables(Program &P) {
  InductionPass(P).run();
}
