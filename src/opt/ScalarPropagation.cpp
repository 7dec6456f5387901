//===- opt/ScalarPropagation.cpp - Const prop + forward subst -------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/ScalarPropagation.h"

#include "opt/Fold.h"

#include <algorithm>
#include <map>

using namespace edda;

namespace {

/// Collects every variable assigned by a scalar assignment anywhere in
/// \p Body (recursively).
void collectAssignedScalars(const std::vector<StmtPtr> &Body,
                            std::vector<unsigned> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (!A.isArrayLhs())
        Out.push_back(A.lhsScalar());
      continue;
    }
    collectAssignedScalars(asLoop(*S).body(), Out);
  }
}

class Propagator {
public:
  explicit Propagator(Program &P) : P(P) {}

  void run() { walk(P.body()); }

private:
  Program &P;
  /// Known defining expression per assigned variable id.
  std::map<unsigned, ExprPtr> Env;
  /// Loop variables currently in scope, outermost first.
  std::vector<unsigned> ActiveLoops;

  ExprPtr rewrite(const ExprPtr &E) {
    ExprPtr Substituted = substitute(E, [this](unsigned VarId) -> ExprPtr {
      auto It = Env.find(VarId);
      return It == Env.end() ? nullptr : It->second;
    });
    return foldExpr(Substituted);
  }

  /// A defining expression may be remembered only when every variable it
  /// references is an in-scope loop variable or a symbolic constant, and
  /// it reads no array element.
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

  /// Forgets environment entries whose value references \p VarId.
  void killReferencing(unsigned VarId) {
    for (auto It = Env.begin(); It != Env.end();) {
      if (It->second->references(VarId))
        It = Env.erase(It);
      else
        ++It;
    }
  }

  void walk(std::vector<StmtPtr> &Body) {
    for (StmtPtr &S : Body) {
      if (S->kind() == StmtKind::Assign) {
        AssignStmt &A = asAssign(*S);
        if (A.isArrayLhs())
          for (unsigned D = 0; D < A.lhsSubscripts().size(); ++D)
            A.setLhsSubscript(D, rewrite(A.lhsSubscripts()[D]));
        A.setRhs(rewrite(A.rhs()));
        if (!A.isArrayLhs()) {
          unsigned V = A.lhsScalar();
          if (isRememberable(A.rhs()))
            Env[V] = A.rhs();
          else
            Env.erase(V);
          // Entries built from the old value of V are now stale.
          killReferencing(V);
        }
        continue;
      }

      LoopStmt &L = asLoop(*S);
      L.setLo(rewrite(L.lo()));
      L.setHi(rewrite(L.hi()));

      // Entries referencing this loop variable described a previous
      // incarnation of it.
      killReferencing(L.varId());
      Env.erase(L.varId());

      // Scalars assigned inside the body carry iteration-varying values,
      // so their pre-loop bindings cannot be used inside; and bindings
      // created inside must not leak out (the body may execute zero
      // times). Snapshot-and-restrict implements both.
      std::vector<unsigned> Assigned;
      collectAssignedScalars(L.body(), Assigned);
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
};

} // namespace

void edda::propagateScalars(Program &P) { Propagator(P).run(); }
