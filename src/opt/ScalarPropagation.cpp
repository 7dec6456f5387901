//===- opt/ScalarPropagation.cpp - Const prop + forward subst -------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/ScalarPropagation.h"

#include "opt/Fold.h"
#include "opt/ScalarBindings.h"

using namespace edda;

namespace {

class Propagator {
public:
  explicit Propagator(Program &P) : P(P), A(P.exprs()), Env(P) {}

  void run() {
    // With no binding to substitute, the walk would only fold again
    // what the caller folded.
    if (!Env.noScalarAssigned())
      walk(P.body());
  }

private:
  Program &P;
  ExprArena &A;
  ScalarBindings Env;

  const Expr *rewrite(const Expr *E) {
    if (Env.mayRewrite(E))
      E = substitute(A, E,
                     [this](unsigned VarId) { return Env.lookup(VarId); });
    return foldExpr(A, E);
  }

  void walk(std::vector<StmtPtr> &Body) {
    for (StmtPtr &S : Body) {
      if (S->kind() == StmtKind::Assign) {
        AssignStmt &As = asAssign(*S);
        if (As.isArrayLhs())
          for (unsigned D = 0; D < As.lhsSubscripts().size(); ++D)
            As.setLhsSubscript(D, rewrite(As.lhsSubscripts()[D]));
        As.setRhs(rewrite(As.rhs()));
        if (!As.isArrayLhs())
          Env.assign(As.lhsScalar(), As.rhs());
        continue;
      }

      LoopStmt &L = asLoop(*S);
      L.setLo(rewrite(L.lo()));
      L.setHi(rewrite(L.hi()));
      Env.enterLoop(L);
      walk(L.body());
      Env.leaveLoop(L);
    }
  }
};

} // namespace

void edda::propagateScalars(Program &P) { Propagator(P).run(); }
