//===- opt/ScalarBindings.cpp - Scalar values along a prepass walk ---------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/ScalarBindings.h"

#include <algorithm>

using namespace edda;

namespace {

uint64_t maskBit(unsigned VarId) { return uint64_t(1) << (VarId & 63); }

} // namespace

ScalarBindings::ScalarBindings(const Program &P) : P(P) { index(P.body()); }

void ScalarBindings::index(const std::vector<StmtPtr> &Body) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (!A.isArrayLhs())
        Assigned.push_back(A.lhsScalar());
      continue;
    }
    const LoopStmt &L = asLoop(*S);
    size_t Slot = Loops.size();
    auto Begin = static_cast<uint32_t>(Assigned.size());
    Loops.push_back({&L, Begin, Begin});
    index(L.body());
    Loops[Slot].End = static_cast<uint32_t>(Assigned.size());
  }
}

const Expr *ScalarBindings::lookup(unsigned VarId) const {
  auto It = std::lower_bound(
      Env.begin(), Env.end(), VarId,
      [](const Binding &B, unsigned Id) { return B.first < Id; });
  return It != Env.end() && It->first == VarId ? It->second : nullptr;
}

bool ScalarBindings::isRememberable(const Expr *E) const {
  if (E->containsArrayRead() || E->height() > MaxExprHeight)
    return false;
  // Every variable must be a symbolic constant or an in-scope loop
  // variable. The walk reads the binding as a tree and gives up past
  // MaxExprHeight nodes that hold a variable: with a larger binding a
  // chain of assignments would compose one tree per link (x = x * i
  // grows it by a level, x = x * x doubles it), and every later
  // substitution and walk would pay for that.
  unsigned Budget = MaxExprHeight;
  auto Ok = [this, &Budget](const Expr *N, auto &Self) -> bool {
    if (!N->varMask())
      return true;
    if (Budget-- == 0)
      return false;
    switch (N->kind()) {
    case ExprKind::Var: {
      unsigned V = N->varId();
      return P.var(V).Kind == VarKind::Symbolic ||
             std::find(ActiveLoops.begin(), ActiveLoops.end(), V) !=
                 ActiveLoops.end();
    }
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
      return Self(N->lhs(), Self) && Self(N->rhs(), Self);
    case ExprKind::Neg:
      return Self(N->lhs(), Self);
    default:
      return true;
    }
  };
  return Ok(E, Ok);
}

void ScalarBindings::erase(unsigned VarId) {
  auto It = std::lower_bound(
      Env.begin(), Env.end(), VarId,
      [](const Binding &B, unsigned Id) { return B.first < Id; });
  if (It != Env.end() && It->first == VarId)
    Env.erase(It);
}

void ScalarBindings::killReferencing(unsigned VarId) {
  std::erase_if(Env, [VarId](const Binding &B) {
    return B.second->references(VarId);
  });
  recomputeMask();
}

void ScalarBindings::recomputeMask() {
  Mask = 0;
  for (const Binding &B : Env)
    Mask |= maskBit(B.first);
}

void ScalarBindings::assign(unsigned VarId, const Expr *Rhs) {
  if (isRememberable(Rhs)) {
    auto It = std::lower_bound(
        Env.begin(), Env.end(), VarId,
        [](const Binding &B, unsigned Id) { return B.first < Id; });
    if (It != Env.end() && It->first == VarId)
      It->second = Rhs;
    else
      Env.insert(It, {VarId, Rhs});
  } else {
    erase(VarId);
  }
  // Bindings built from the old value of VarId are now stale (this one
  // too, if Rhs reads VarId).
  killReferencing(VarId);
}

void ScalarBindings::enterLoop(const LoopStmt &L) {
  assert(NextLoop < Loops.size() && Loops[NextLoop].Loop == &L &&
         "loops entered out of preorder");
  const LoopRange &R = Loops[NextLoop++];
  // Bindings that mention the loop variable described a previous
  // incarnation of it.
  erase(L.varId());
  killReferencing(L.varId());

  if (Depth == Frames.size())
    Frames.emplace_back();
  Frame &F = Frames[Depth++];
  F.Entry.assign(Env.begin(), Env.end());
  F.Begin = R.Begin;
  F.End = R.End;
  // Scalars assigned in the body vary by iteration: no binding inside.
  for (unsigned V : assignedInLoop())
    erase(V);
  ActiveLoops.push_back(L.varId());
}

void ScalarBindings::leaveLoop(const LoopStmt &L) {
  assert(Depth > 0 && ActiveLoops.back() == L.varId() && "unbalanced loop");
  (void)L;
  ActiveLoops.pop_back();
  // Bindings made inside do not leak out, and the body's assignments
  // invalidate the entry bindings of the scalars they assign. No entry
  // binding mentions the loop variable: enterLoop removed those.
  const Frame &F = Frames[--Depth];
  Env.assign(F.Entry.begin(), F.Entry.end());
  for (unsigned V : std::span<const unsigned>(Assigned).subspan(
           F.Begin, F.End - F.Begin))
    erase(V);
  recomputeMask();
}

const Expr *ScalarBindings::entryValue(unsigned VarId) const {
  assert(Depth > 0 && "not inside a loop");
  const std::vector<Binding> &Entry = Frames[Depth - 1].Entry;
  auto It = std::lower_bound(
      Entry.begin(), Entry.end(), VarId,
      [](const Binding &B, unsigned Id) { return B.first < Id; });
  return It != Entry.end() && It->first == VarId ? It->second : nullptr;
}

std::span<const unsigned> ScalarBindings::assignedInLoop() const {
  assert(Depth > 0 && "not inside a loop");
  const Frame &F = Frames[Depth - 1];
  return std::span<const unsigned>(Assigned).subspan(F.Begin,
                                                      F.End - F.Begin);
}
