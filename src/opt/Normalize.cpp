//===- opt/Normalize.cpp - Loop normalization ------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Normalize.h"

#include "opt/Fold.h"
#include "support/IntMath.h"

using namespace edda;

namespace {

void normalizeBody(Program &P, std::vector<StmtPtr> &Body) {
  ExprArena &A = P.exprs();
  for (StmtPtr &S : Body) {
    if (S->kind() != StmtKind::Loop)
      continue;
    LoopStmt &L = asLoop(*S);
    normalizeBody(P, L.body());
    if (L.step() == 1)
      continue;

    const Expr *Lo = foldExpr(A, L.lo());
    const Expr *Hi = foldExpr(A, L.hi());
    if (Lo->kind() != ExprKind::Const || Hi->kind() != ExprKind::Const)
      continue; // non-constant bounds with a stride: leave unnormalized

    int64_t LoV = Lo->constValue();
    int64_t HiV = Hi->constValue();
    int64_t Step = L.step();
    // Trip count - 1: for positive steps iterate while i <= Hi, for
    // negative while i >= Hi.
    std::optional<int64_t> Span = Step > 0 ? checkedSub(HiV, LoV)
                                           : checkedSub(LoV, HiV);
    if (!Span)
      continue;
    int64_t Count = floorDiv(*Span, Step > 0 ? Step : -Step);
    if (*Span < 0)
      Count = -1; // empty loop: normalized range 0..-1

    // Fresh normalized induction variable.
    std::string BaseName = P.var(L.varId()).Name + "__n";
    std::string Name = BaseName;
    unsigned Suffix = 0;
    while (P.lookupSymbol(Name))
      Name = BaseName + std::to_string(++Suffix);
    unsigned NormVar = P.addVar(Name, VarKind::Loop);

    auto NewLoop = std::make_unique<LoopStmt>(NormVar, A.makeConst(0),
                                              A.makeConst(Count), 1);
    // i = L + s * i_n keeps the original variable live for the body and
    // for code after the loop; scalar propagation substitutes it away.
    const Expr *Recompute = A.makeAdd(
        A.makeConst(LoV), A.makeMul(A.makeConst(Step), A.makeVar(NormVar)));
    NewLoop->body().push_back(
        std::make_unique<AssignStmt>(L.varId(), Recompute));
    for (StmtPtr &Child : L.body())
      NewLoop->body().push_back(std::move(Child));
    S = std::move(NewLoop);
  }
}

} // namespace

void edda::normalizeLoops(Program &P) { normalizeBody(P, P.body()); }
