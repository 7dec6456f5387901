//===- ir/Fingerprint.cpp - Content fingerprints for IR -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Fingerprint.h"

#include "support/Hashing.h"

#include <cassert>

using namespace edda;

namespace {

// Distinct seeds per node class so a Const(0) leaf, an empty chain and
// an empty body cannot collide structurally.
enum : uint64_t {
  SeedConst = 0xE1,
  SeedVar = 0xE2,
  SeedAdd = 0xE3,
  SeedSub = 0xE4,
  SeedMul = 0xE5,
  SeedNeg = 0xE6,
  SeedArrayRead = 0xE7,
  SeedLoopChain = 0xC1,
  SeedAssign = 0x51,
  SeedLoop = 0x52,
};

} // namespace

uint64_t edda::fingerprintExpr(const Program &P, const Expr *E) {
  assert(E && "fingerprint of a null expression");
  switch (E->kind()) {
  case ExprKind::Const:
    return hashCombine(SeedConst,
                       static_cast<uint64_t>(E->constValue()));
  case ExprKind::Var: {
    const VarInfo &V = P.var(E->varId());
    return hashCombine(hashCombine(SeedVar,
                                   static_cast<uint64_t>(V.Kind)),
                       V.NameHash);
  }
  case ExprKind::Add:
    return hashCombine(hashCombine(SeedAdd, fingerprintExpr(P, E->lhs())),
                       fingerprintExpr(P, E->rhs()));
  case ExprKind::Sub:
    return hashCombine(hashCombine(SeedSub, fingerprintExpr(P, E->lhs())),
                       fingerprintExpr(P, E->rhs()));
  case ExprKind::Mul:
    return hashCombine(hashCombine(SeedMul, fingerprintExpr(P, E->lhs())),
                       fingerprintExpr(P, E->rhs()));
  case ExprKind::Neg:
    return hashCombine(SeedNeg, fingerprintExpr(P, E->lhs()));
  case ExprKind::ArrayRead:
    return fingerprintArrayAccess(P, E->arrayId(), E->subscripts());
  }
  assert(false && "unhandled expression kind");
  return 0;
}

uint64_t edda::fingerprintArrayAccess(
    const Program &P, unsigned ArrayId,
    std::span<const Expr *const> Subscripts) {
  uint64_t H = hashCombine(SeedArrayRead, P.array(ArrayId).NameHash);
  for (const Expr *Sub : Subscripts)
    H = hashCombine(H, fingerprintExpr(P, Sub));
  return H;
}

uint64_t edda::emptyLoopChain() { return SeedLoopChain; }

uint64_t edda::extendLoopChain(const Program &P, uint64_t Chain,
                               const LoopStmt &L) {
  uint64_t H = hashCombine(Chain, P.var(L.varId()).NameHash);
  H = hashCombine(H, fingerprintExpr(P, L.lo()));
  H = hashCombine(H, fingerprintExpr(P, L.hi()));
  return hashCombine(H, static_cast<uint64_t>(L.step()));
}

uint64_t edda::fingerprintStmt(const Program &P, const Stmt &S) {
  if (S.kind() == StmtKind::Assign) {
    const AssignStmt &A = asAssign(S);
    uint64_t H = SeedAssign;
    if (A.isArrayLhs()) {
      H = hashCombine(H, P.array(A.lhsArray()).NameHash);
      for (const Expr *Sub : A.lhsSubscripts())
        H = hashCombine(H, fingerprintExpr(P, Sub));
    } else {
      H = hashCombine(H, P.var(A.lhsScalar()).NameHash);
    }
    return hashCombine(H, fingerprintExpr(P, A.rhs()));
  }
  const LoopStmt &L = asLoop(S);
  uint64_t H = hashCombine(SeedLoop, P.var(L.varId()).NameHash);
  H = hashCombine(H, fingerprintExpr(P, L.lo()));
  H = hashCombine(H, fingerprintExpr(P, L.hi()));
  H = hashCombine(H, static_cast<uint64_t>(L.step()));
  for (const StmtPtr &Child : L.body())
    H = hashCombine(H, fingerprintStmt(P, *Child));
  return H;
}
