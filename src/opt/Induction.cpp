//===- opt/Induction.cpp - Induction variable substitution ----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Induction.h"

#include "opt/Fold.h"

#include <algorithm>
#include <map>

using namespace edda;

namespace {

/// Matches k = k + c / k = k - c / k = c + k with constant c; returns
/// the increment.
std::optional<int64_t> matchIncrement(const AssignStmt &A) {
  if (A.isArrayLhs())
    return std::nullopt;
  unsigned K = A.lhsScalar();
  const ExprPtr &Rhs = A.rhs();
  if (Rhs->kind() == ExprKind::Add) {
    const ExprPtr &L = Rhs->lhs();
    const ExprPtr &R = Rhs->rhs();
    if (L->kind() == ExprKind::Var && L->varId() == K &&
        R->kind() == ExprKind::Const)
      return R->constValue();
    if (R->kind() == ExprKind::Var && R->varId() == K &&
        L->kind() == ExprKind::Const)
      return L->constValue();
  }
  if (Rhs->kind() == ExprKind::Sub) {
    const ExprPtr &L = Rhs->lhs();
    const ExprPtr &R = Rhs->rhs();
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

void countScalarAssignments(const std::vector<StmtPtr> &Body,
                            std::map<unsigned, unsigned> &Counts) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (!A.isArrayLhs())
        ++Counts[A.lhsScalar()];
      continue;
    }
    countScalarAssignments(asLoop(*S).body(), Counts);
  }
}

class InductionPass {
public:
  explicit InductionPass(Program &P) : P(P) {}

  void run() { walk(P.body()); }

private:
  Program &P;
  /// Known entry-value expressions for scalars, maintained with the same
  /// conservative rules as ScalarPropagation (but without rewriting
  /// uses; that is the other pass's job).
  std::map<unsigned, ExprPtr> Env;
  std::vector<unsigned> ActiveLoops;

  bool isRememberable(const ExprPtr &E) const {
    if (E->containsArrayRead())
      return false;
    std::vector<unsigned> Vars;
    E->collectVars(Vars);
    for (unsigned V : Vars) {
      if (P.var(V).Kind == VarKind::Symbolic)
        continue;
      if (std::find(ActiveLoops.begin(), ActiveLoops.end(), V) !=
          ActiveLoops.end())
        continue;
      return false;
    }
    return true;
  }

  void killReferencing(unsigned VarId) {
    for (auto It = Env.begin(); It != Env.end();) {
      if (It->second->references(VarId))
        It = Env.erase(It);
      else
        ++It;
    }
  }

  /// Replaces uses of the variables in \p Values inside \p E.
  static ExprPtr substituteUses(const ExprPtr &E,
                                const std::map<unsigned, ExprPtr> &Values) {
    ExprPtr Out = substitute(E, [&Values](unsigned VarId) -> ExprPtr {
      auto It = Values.find(VarId);
      return It == Values.end() ? nullptr : It->second;
    });
    return foldExpr(Out);
  }

  static void rewriteStmtUses(Stmt &S,
                              const std::map<unsigned, ExprPtr> &Values);

  void walk(std::vector<StmtPtr> &Body) {
    for (StmtPtr &S : Body) {
      if (S->kind() == StmtKind::Assign) {
        AssignStmt &A = asAssign(*S);
        if (!A.isArrayLhs()) {
          unsigned V = A.lhsScalar();
          if (isRememberable(A.rhs()))
            Env[V] = A.rhs();
          else
            Env.erase(V);
          killReferencing(V);
        }
        continue;
      }

      LoopStmt &L = asLoop(*S);
      killReferencing(L.varId());
      Env.erase(L.varId());

      if (L.step() == 1)
        rewriteInductionsIn(L);

      std::vector<unsigned> Assigned;
      collectAssigned(L.body(), Assigned);
      std::map<unsigned, ExprPtr> Outer = Env;
      for (unsigned V : Assigned)
        Env.erase(V);

      ActiveLoops.push_back(L.varId());
      walk(L.body());
      ActiveLoops.pop_back();

      Env = std::move(Outer);
      for (unsigned V : Assigned)
        Env.erase(V);
      killReferencing(L.varId());
    }
  }

  static void collectAssigned(const std::vector<StmtPtr> &Body,
                              std::vector<unsigned> &Out) {
    std::map<unsigned, unsigned> Counts;
    countScalarAssignments(Body, Counts);
    for (const auto &[V, Count] : Counts) {
      (void)Count;
      Out.push_back(V);
    }
  }

  void rewriteInductionsIn(LoopStmt &L) {
    // Candidates: direct children k = k + c whose variable is assigned
    // exactly once in the whole body and has a known entry value that
    // does not reference this loop's variable.
    std::map<unsigned, unsigned> Counts;
    countScalarAssignments(L.body(), Counts);

    for (size_t Idx = 0; Idx < L.body().size(); ++Idx) {
      Stmt &Child = *L.body()[Idx];
      if (Child.kind() != StmtKind::Assign)
        continue;
      AssignStmt &A = asAssign(Child);
      std::optional<int64_t> Inc = matchIncrement(A);
      if (!Inc)
        continue;
      unsigned K = A.lhsScalar();
      if (Counts[K] != 1)
        continue;
      auto EnvIt = Env.find(K);
      if (EnvIt == Env.end() || EnvIt->second->references(L.varId()))
        continue;

      // Pre-increment value: E0 + c*(i - L); post adds one more c.
      ExprPtr IterCount =
          Expr::makeSub(Expr::makeVar(L.varId()), L.lo());
      ExprPtr Pre = foldExpr(Expr::makeAdd(
          EnvIt->second,
          Expr::makeMul(Expr::makeConst(*Inc), IterCount)));
      ExprPtr Post =
          foldExpr(Expr::makeAdd(Pre, Expr::makeConst(*Inc)));

      std::map<unsigned, ExprPtr> PreMap{{K, Pre}};
      std::map<unsigned, ExprPtr> PostMap{{K, Post}};
      for (size_t J = 0; J < L.body().size(); ++J) {
        if (J == Idx) {
          // The increment reads the pre value; rewrite its RHS so the
          // stored value stays correct.
          A.setRhs(substituteUses(A.rhs(), PreMap));
          continue;
        }
        rewriteStmtUses(*L.body()[J], J < Idx ? PreMap : PostMap);
      }
    }
  }
};

void InductionPass::rewriteStmtUses(
    Stmt &S, const std::map<unsigned, ExprPtr> &Values) {
  if (S.kind() == StmtKind::Assign) {
    AssignStmt &A = asAssign(S);
    if (A.isArrayLhs())
      for (unsigned D = 0; D < A.lhsSubscripts().size(); ++D)
        A.setLhsSubscript(D, substituteUses(A.lhsSubscripts()[D], Values));
    A.setRhs(substituteUses(A.rhs(), Values));
    return;
  }
  LoopStmt &L = asLoop(S);
  L.setLo(substituteUses(L.lo(), Values));
  L.setHi(substituteUses(L.hi(), Values));
  for (StmtPtr &Child : L.body())
    rewriteStmtUses(*Child, Values);
}

} // namespace

void edda::substituteInductionVariables(Program &P) {
  InductionPass(P).run();
}
