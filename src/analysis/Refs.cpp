//===- analysis/Refs.cpp - Array reference enumeration --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Refs.h"

#include "ir/Fingerprint.h"
#include "support/Hashing.h"

#include <utility>

using namespace edda;

std::vector<const Expr *> edda::collectStmtReads(const AssignStmt &A) {
  std::vector<const Expr *> Reads;
  if (A.isArrayLhs())
    for (const Expr *Sub : A.lhsSubscripts())
      Sub->collectArrayReads(Reads);
  A.rhs()->collectArrayReads(Reads);
  return Reads;
}

namespace {

/// Takes the affine form of \p E and resolves each variable against the
/// first \p NumLoops of \p Loops (the outermost loop with that
/// variable); unmatched variables stay variable terms.
AffineSummary summarize(const Expr *E,
                        const std::vector<const LoopStmt *> &Loops,
                        size_t NumLoops) {
  AffineSummary S;
  const AffineForm *Affine = E->affine();
  if (!Affine)
    return S;
  S.Affine = true;
  S.Const = Affine->Constant;
  S.Terms.reserve(Affine->Terms.size());
  for (const AffineExpr::Term &T : Affine->Terms) {
    SummaryTerm &Out = S.Terms.emplace_back();
    Out.Var = T.VarId;
    Out.Coeff = T.Coeff;
    for (unsigned L = 0; L < NumLoops; ++L)
      if (Loops[L]->varId() == T.VarId) {
        Out.Loop = L;
        break;
      }
  }
  return S;
}

/// The innermost loop of \p LoopStack, summarized against itself and
/// the loops around it.
LoopSummary summarizeLoop(const std::vector<const LoopStmt *> &LoopStack) {
  const LoopStmt &Loop = *LoopStack.back();
  LoopSummary S;
  const Expr *LoExpr = Loop.step() > 0 ? Loop.lo() : Loop.hi();
  const Expr *HiExpr = Loop.step() > 0 ? Loop.hi() : Loop.lo();
  S.Lo = summarize(LoExpr, LoopStack, LoopStack.size());
  S.Hi = summarize(HiExpr, LoopStack, LoopStack.size());
  S.ConstantEmpty = S.Lo.Affine && S.Hi.Affine && S.Lo.Terms.empty() &&
                    S.Hi.Terms.empty() && S.Lo.Const > S.Hi.Const;
  S.UnitStep = Loop.step() == 1;
  return S;
}

/// Fills Ref.Subs and Ref.Unanalyzable from Ref.Subscripts.
void summarizeSubscripts(const Program &P, ArrayReference &Ref) {
  Ref.Subs.reserve(Ref.Subscripts.size());
  for (const Expr *Sub : Ref.Subscripts) {
    AffineSummary &S = Ref.Subs.emplace_back(
        summarize(Sub, Ref.Loops, Ref.Loops.size()));
    if (!S.Affine)
      Ref.Unanalyzable = true;
    for (const SummaryTerm &T : S.Terms)
      if (T.Loop == SummaryTerm::NoLoop &&
          P.var(T.Var).Kind != VarKind::Symbolic)
        Ref.Unanalyzable = true; // A scalar the prepass could not remove.
  }
}

struct LoopContext {
  std::vector<const LoopStmt *> Loops;
  /// Summaries of Loops; one vector per loop, made on entry.
  std::shared_ptr<const std::vector<LoopSummary>> Info;
  /// The loop-chain fingerprint of Loops, extended on entry to each loop.
  uint64_t Chain = emptyLoopChain();
};

void fingerprintRef(const Program &P, const LoopContext &Ctx,
                    ArrayReference &Ref) {
  uint64_t H = hashCombine(0x5EFu, Ref.IsWrite ? 1u : 0u);
  H = hashCombine(H, fingerprintArrayAccess(P, Ref.ArrayId,
                                            Ref.Subscripts));
  Ref.FingerprintNoBounds = H;
  Ref.Fingerprint = hashCombine(H, Ctx.Chain);
}

void collectFrom(const Program &P, const std::vector<StmtPtr> &Body,
                 LoopContext &Ctx, std::vector<ArrayReference> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Loop) {
      const LoopStmt &L = asLoop(*S);
      Ctx.Loops.push_back(&L);
      auto Info = std::make_shared<std::vector<LoopSummary>>();
      if (Ctx.Info)
        *Info = *Ctx.Info;
      Info->push_back(summarizeLoop(Ctx.Loops));
      std::shared_ptr<const std::vector<LoopSummary>> Outer =
          std::exchange(Ctx.Info, std::move(Info));
      uint64_t OuterChain =
          std::exchange(Ctx.Chain, extendLoopChain(P, Ctx.Chain, L));
      collectFrom(P, L.body(), Ctx, Out);
      Ctx.Chain = OuterChain;
      Ctx.Info = std::move(Outer);
      Ctx.Loops.pop_back();
      continue;
    }
    const AssignStmt &A = asAssign(*S);
    if (A.isArrayLhs()) {
      ArrayReference Write;
      Write.ArrayId = A.lhsArray();
      Write.Stmt = &A;
      Write.Slot = -1;
      Write.IsWrite = true;
      Write.Subscripts = A.lhsSubscripts();
      Write.Loops = Ctx.Loops;
      Write.LoopInfo = Ctx.Info;
      fingerprintRef(P, Ctx, Write);
      summarizeSubscripts(P, Write);
      Out.push_back(std::move(Write));
    }
    std::vector<const Expr *> Reads = collectStmtReads(A);
    for (unsigned I = 0; I < Reads.size(); ++I) {
      ArrayReference Read;
      Read.ArrayId = Reads[I]->arrayId();
      Read.Stmt = &A;
      Read.Slot = static_cast<int>(I);
      Read.IsWrite = false;
      Read.Subscripts.assign(Reads[I]->subscripts().begin(),
                             Reads[I]->subscripts().end());
      Read.Loops = Ctx.Loops;
      Read.LoopInfo = Ctx.Info;
      fingerprintRef(P, Ctx, Read);
      summarizeSubscripts(P, Read);
      Out.push_back(std::move(Read));
    }
  }
}

} // namespace

std::vector<ArrayReference> edda::collectReferences(const Program &P) {
  std::vector<ArrayReference> Out;
  LoopContext Ctx;
  collectFrom(P, P.body(), Ctx, Out);
  return Out;
}

uint64_t edda::pairFingerprint(uint64_t FpA, uint64_t FpB,
                               unsigned NumCommon) {
  return hashCombine(hashCombine(FpA, FpB), NumCommon);
}

std::string edda::refStr(const Program &P, const ArrayReference &Ref) {
  std::string Out = P.array(Ref.ArrayId).Name;
  for (const Expr *Sub : Ref.Subscripts)
    Out += "[" +
           Sub->str([&P](unsigned V) { return P.var(V).Name; }) + "]";
  Out += Ref.IsWrite ? " (write" : " (read";
  Out += " at depth " + std::to_string(Ref.Loops.size()) + ")";
  return Out;
}
