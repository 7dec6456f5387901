//===- analysis/Builder.cpp - Reference pair -> problem --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Builder.h"

#include "support/IntMath.h"

#include <algorithm>

using namespace edda;

namespace {

/// Column allocation for one pair: symbolic variables get x columns in
/// first-appearance order (A/B subscripts by dimension, then A's
/// bounds, then B's bounds).
class Columns {
public:
  Columns(const Program &Prog, unsigned NumLoopsA, unsigned NumLoopVars,
          std::vector<unsigned> &SymbolicVars)
      : Prog(Prog), NumLoopsA(NumLoopsA), NumLoopVars(NumLoopVars),
        SymbolicVars(SymbolicVars) {}

  /// Column of symbolic variable \p Var, allocating it on first use.
  unsigned symbolic(unsigned Var) {
    for (unsigned S = 0; S < SymbolicVars.size(); ++S)
      if (SymbolicVars[S] == Var)
        return NumLoopVars + S;
    SymbolicVars.push_back(Var);
    return NumLoopVars + static_cast<unsigned>(SymbolicVars.size() - 1);
  }

  /// Column of term \p T of a form summarized for reference \p Ref (the
  /// A side when \p SideA). A bound's variable term is looked up among
  /// Ref's loops deeper than \p Depth, the loop the bound belongs to;
  /// a subscript's (Depth = Ref.Loops.size()) is symbolic by
  /// construction. std::nullopt when the variable has no column.
  std::optional<unsigned> column(const SummaryTerm &T,
                                 const ArrayReference &Ref, bool SideA,
                                 size_t Depth) {
    unsigned Base = SideA ? 0 : NumLoopsA;
    if (T.Loop != SummaryTerm::NoLoop)
      return Base + T.Loop;
    for (size_t L = Depth + 1; L < Ref.Loops.size(); ++L)
      if (Ref.Loops[L]->varId() == T.Var)
        return Base + static_cast<unsigned>(L);
    if (Prog.var(T.Var).Kind == VarKind::Symbolic)
      return symbolic(T.Var);
    return std::nullopt;
  }

private:
  const Program &Prog;
  unsigned NumLoopsA;
  unsigned NumLoopVars;
  std::vector<unsigned> &SymbolicVars;
};

/// Row storage for a build into a reused BuiltProblem: rows the new
/// problem drops go to the spares, rows it adds come from them.
class Rows {
public:
  explicit Rows(std::vector<std::vector<int64_t>> &Spare) : Spare(Spare) {}

  /// Engages \p Slot when \p On, else disengages it; a slot already in
  /// that state keeps its row.
  void engage(std::optional<XAffine> &Slot, bool On) {
    if (On && !Slot) {
      Slot.emplace();
      take(*Slot);
    } else if (!On && Slot) {
      Spare.push_back(std::move(Slot->Coeffs));
      Slot.reset();
    }
  }

  /// Resizes \p Slots to \p N, keeping the rows of dropped slots.
  void resize(std::vector<std::optional<XAffine>> &Slots, size_t N) {
    for (size_t S = N; S < Slots.size(); ++S)
      engage(Slots[S], false);
    Slots.resize(N);
  }

  /// Resizes \p Eqs to \p N, keeping the rows of dropped equations.
  void resize(std::vector<XAffine> &Eqs, size_t N) {
    for (size_t E = N; E < Eqs.size(); ++E)
      Spare.push_back(std::move(Eqs[E].Coeffs));
    Eqs.resize(std::min(N, Eqs.size()));
    while (Eqs.size() < N)
      take(Eqs.emplace_back());
  }

private:
  std::vector<std::vector<int64_t>> &Spare;

  void take(XAffine &Row) {
    if (Spare.empty())
      return;
    Row.Coeffs = std::move(Spare.back());
    Spare.pop_back();
  }
};

} // namespace

std::optional<BuiltProblem> edda::buildProblem(const Program &Prog,
                                               const ArrayReference &A,
                                               const ArrayReference &B) {
  std::optional<BuiltProblem> Built(std::in_place);
  if (!buildProblem(Prog, A, B, *Built))
    return std::nullopt;
  return Built;
}

bool edda::buildProblem(const Program &Prog, const ArrayReference &A,
                        const ArrayReference &B, BuiltProblem &Built) {
  if (A.ArrayId != B.ArrayId ||
      A.Subscripts.size() != B.Subscripts.size() || A.Unanalyzable ||
      B.Unanalyzable)
    return false;

  DependenceProblem &P = Built.Problem;
  Rows Storage(Built.SpareRows);
  Built.Exact = true;
  Built.SymbolicVars.clear();
  P.NumLoopsA = static_cast<unsigned>(A.Loops.size());
  P.NumLoopsB = static_cast<unsigned>(B.Loops.size());
  unsigned Common = 0;
  while (Common < P.NumLoopsA && Common < P.NumLoopsB &&
         A.Loops[Common] == B.Loops[Common])
    ++Common;
  P.NumCommon = Common;

  const unsigned NumLoopVars = P.NumLoopsA + P.NumLoopsB;
  const unsigned NumDims = static_cast<unsigned>(A.Subs.size());
  Columns Cols(Prog, P.NumLoopsA, NumLoopVars, Built.SymbolicVars);

  // Pass 1 allocates the symbolic columns in first-appearance order and
  // settles which bounds convert: a bound with a variable that has no
  // column is dropped, but the columns its earlier terms allocated stay.
  for (unsigned D = 0; D < NumDims; ++D) {
    for (const SummaryTerm &T : A.Subs[D].Terms)
      if (T.Loop == SummaryTerm::NoLoop)
        Cols.symbolic(T.Var);
    for (const SummaryTerm &T : B.Subs[D].Terms)
      if (T.Loop == SummaryTerm::NoLoop)
        Cols.symbolic(T.Var);
  }
  Storage.resize(P.Lo, NumLoopVars);
  Storage.resize(P.Hi, NumLoopVars);
  auto Converts = [&](const AffineSummary &Form, const ArrayReference &Ref,
                      bool SideA, size_t Depth) {
    if (!Form.Affine)
      return false;
    for (const SummaryTerm &T : Form.Terms)
      if (!Cols.column(T, Ref, SideA, Depth))
        return false;
    return true;
  };
  for (const bool SideA : {true, false}) {
    const ArrayReference *Ref = SideA ? &A : &B;
    const unsigned Base = SideA ? 0 : P.NumLoopsA;
    for (size_t L = 0; L < Ref->Loops.size(); ++L) {
      const LoopSummary &Info = Ref->loopInfo(L);
      if (!Info.UnitStep)
        Built.Exact = false;
      Storage.engage(P.Lo[Base + L], Converts(Info.Lo, *Ref, SideA, L));
      Storage.engage(P.Hi[Base + L], Converts(Info.Hi, *Ref, SideA, L));
    }
  }

  // Pass 2 writes the forms at their final width.
  P.NumSymbolic = static_cast<unsigned>(Built.SymbolicVars.size());
  const unsigned NumX = P.numX();

  // Equations: subA_d(x) - subB_d(x) == 0.
  Storage.resize(P.Equations, NumDims);
  for (unsigned D = 0; D < NumDims; ++D) {
    const AffineSummary &SA = A.Subs[D], &SB = B.Subs[D];
    XAffine &Eq = P.Equations[D];
    Eq.Coeffs.assign(NumX, 0);
    CheckedInt C = CheckedInt(SA.Const) - CheckedInt(SB.Const);
    if (!C.valid())
      return false;
    Eq.Const = C.get();
    for (const SummaryTerm &T : SA.Terms)
      Eq.Coeffs[*Cols.column(T, A, true, A.Loops.size())] = T.Coeff;
    for (const SummaryTerm &T : SB.Terms) {
      int64_t &Coeff = Eq.Coeffs[*Cols.column(T, B, false, B.Loops.size())];
      CheckedInt Diff = CheckedInt(Coeff) - CheckedInt(T.Coeff);
      if (!Diff.valid())
        return false;
      Coeff = Diff.get();
    }
  }

  auto Fill = [&](const AffineSummary &Form, const ArrayReference &Ref,
                  bool SideA, size_t Depth, std::optional<XAffine> &Slot) {
    if (!Slot)
      return;
    Slot->Coeffs.assign(NumX, 0);
    Slot->Const = Form.Const;
    for (const SummaryTerm &T : Form.Terms)
      Slot->Coeffs[*Cols.column(T, Ref, SideA, Depth)] = T.Coeff;
  };
  for (const bool SideA : {true, false}) {
    const ArrayReference *Ref = SideA ? &A : &B;
    const unsigned Base = SideA ? 0 : P.NumLoopsA;
    for (size_t L = 0; L < Ref->Loops.size(); ++L) {
      const LoopSummary &Info = Ref->loopInfo(L);
      Fill(Info.Lo, *Ref, SideA, L, P.Lo[Base + L]);
      Fill(Info.Hi, *Ref, SideA, L, P.Hi[Base + L]);
    }
  }

  assert(P.wellFormed() && "builder produced a malformed problem");
  return true;
}

std::optional<ConstantPair> edda::constantPair(const ArrayReference &A,
                                               const ArrayReference &B) {
  if (A.ArrayId != B.ArrayId ||
      A.Subscripts.size() != B.Subscripts.size() || A.Unanalyzable ||
      B.Unanalyzable)
    return std::nullopt;
  ConstantPair CP;
  for (size_t D = 0; D < A.Subs.size(); ++D) {
    const AffineSummary &SA = A.Subs[D], &SB = B.Subs[D];
    // Loop columns of A and B are disjoint, so the difference is
    // constant exactly when neither side has a loop term and the
    // symbolic parts cancel.
    if (SA.hasLoopTerms() || SB.hasLoopTerms() ||
        !std::ranges::equal(SA.Terms, SB.Terms))
      return std::nullopt;
    CheckedInt C = CheckedInt(SA.Const) - CheckedInt(SB.Const);
    if (!C.valid())
      return std::nullopt; // The builder rejects the pair.
    CP.NonzeroDifference = CP.NonzeroDifference || C.get() != 0;
  }
  for (const ArrayReference *Ref : {&A, &B})
    for (size_t L = 0; L < Ref->Loops.size(); ++L) {
      CP.ConstantEmptyLoop =
          CP.ConstantEmptyLoop || Ref->loopInfo(L).ConstantEmpty;
      CP.Exact = CP.Exact && Ref->loopInfo(L).UnitStep;
    }
  return CP;
}
