//===- tests/testutil/ReferenceBuilder.cpp - Reference builder -----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "testutil/ReferenceBuilder.h"

#include "support/IntMath.h"

using namespace edda;

namespace {

/// Maps program-variable ids to x columns for one reference's side.
class ColumnMap {
public:
  ColumnMap(const Program &Prog, const ArrayReference &Ref,
            unsigned LoopColBase, std::vector<unsigned> &SymbolicVars,
            unsigned NumLoopVarsTotal)
      : Prog(Prog), Ref(Ref), LoopColBase(LoopColBase),
        SymbolicVars(SymbolicVars), NumLoopVarsTotal(NumLoopVarsTotal) {}

  /// Column for program variable \p VarId, allocating symbolic columns
  /// on demand; std::nullopt when the variable is unanalyzable here.
  std::optional<unsigned> columnOf(unsigned VarId) {
    for (unsigned L = 0; L < Ref.Loops.size(); ++L)
      if (Ref.Loops[L]->varId() == VarId)
        return LoopColBase + L;
    if (Prog.var(VarId).Kind == VarKind::Symbolic) {
      for (unsigned S = 0; S < SymbolicVars.size(); ++S)
        if (SymbolicVars[S] == VarId)
          return NumLoopVarsTotal + S;
      SymbolicVars.push_back(VarId);
      return NumLoopVarsTotal +
             static_cast<unsigned>(SymbolicVars.size() - 1);
    }
    return std::nullopt; // scalar the prepass could not remove
  }

private:
  const Program &Prog;
  const ArrayReference &Ref;
  unsigned LoopColBase;
  std::vector<unsigned> &SymbolicVars;
  unsigned NumLoopVarsTotal;
};

/// Converts \p E into an XAffine over the columns of \p Map. The vector
/// is sized for the final numX later; here columns are collected as
/// (column, coeff) pairs.
bool convert(const Expr *E, ColumnMap &Map,
             std::vector<std::pair<unsigned, int64_t>> &Terms,
             int64_t &Const) {
  std::optional<AffineExpr> Affine = toAffine(E);
  if (!Affine)
    return false;
  Const = Affine->constant();
  for (const AffineExpr::Term &T : Affine->terms()) {
    std::optional<unsigned> Col = Map.columnOf(T.VarId);
    if (!Col)
      return false;
    Terms.push_back({*Col, T.Coeff});
  }
  return true;
}

} // namespace

std::optional<BuiltProblem>
edda::testutil::referenceBuildProblem(const Program &Prog,
                                      const ArrayReference &A,
                                      const ArrayReference &B) {
  if (A.ArrayId != B.ArrayId ||
      A.Subscripts.size() != B.Subscripts.size())
    return std::nullopt;

  BuiltProblem Built;
  DependenceProblem &P = Built.Problem;
  P.NumLoopsA = static_cast<unsigned>(A.Loops.size());
  P.NumLoopsB = static_cast<unsigned>(B.Loops.size());
  unsigned Common = 0;
  while (Common < P.NumLoopsA && Common < P.NumLoopsB &&
         A.Loops[Common] == B.Loops[Common])
    ++Common;
  P.NumCommon = Common;

  const unsigned NumLoopVars = P.NumLoopsA + P.NumLoopsB;
  ColumnMap MapA(Prog, A, 0, Built.SymbolicVars, NumLoopVars);
  ColumnMap MapB(Prog, B, P.NumLoopsA, Built.SymbolicVars, NumLoopVars);

  // First pass: convert everything into (column, coeff) term lists so
  // the number of symbolic columns is known before sizing the forms.
  struct PendingForm {
    std::vector<std::pair<unsigned, int64_t>> Terms;
    int64_t Const = 0;
    bool Present = false;
  };
  const unsigned NumDims = static_cast<unsigned>(A.Subscripts.size());
  std::vector<PendingForm> SubsA(NumDims), SubsB(NumDims);
  for (unsigned D = 0; D < NumDims; ++D) {
    SubsA[D].Present = true;
    SubsB[D].Present = true;
    if (!convert(A.Subscripts[D], MapA, SubsA[D].Terms, SubsA[D].Const))
      return std::nullopt;
    if (!convert(B.Subscripts[D], MapB, SubsB[D].Terms, SubsB[D].Const))
      return std::nullopt;
  }

  std::vector<PendingForm> Los(NumLoopVars), His(NumLoopVars);
  auto ConvertBounds = [&](const ArrayReference &Ref, ColumnMap &Map,
                           unsigned ColBase) {
    for (unsigned L = 0; L < Ref.Loops.size(); ++L) {
      const LoopStmt &Loop = *Ref.Loops[L];
      unsigned Col = ColBase + L;
      // A surviving non-unit step relaxes the range to its interval.
      if (Loop.step() != 1)
        Built.Exact = false;
      const Expr *LoExpr = Loop.step() > 0 ? Loop.lo() : Loop.hi();
      const Expr *HiExpr = Loop.step() > 0 ? Loop.hi() : Loop.lo();
      PendingForm Lo;
      if (convert(LoExpr, Map, Lo.Terms, Lo.Const)) {
        Lo.Present = true;
        Los[Col] = std::move(Lo);
      }
      PendingForm Hi;
      if (convert(HiExpr, Map, Hi.Terms, Hi.Const)) {
        Hi.Present = true;
        His[Col] = std::move(Hi);
      }
    }
  };
  ConvertBounds(A, MapA, 0);
  ConvertBounds(B, MapB, P.NumLoopsA);

  P.NumSymbolic = static_cast<unsigned>(Built.SymbolicVars.size());
  const unsigned NumX = P.numX();
  auto Materialize = [NumX](const PendingForm &Form) {
    XAffine Out(NumX);
    Out.Const = Form.Const;
    for (const auto &[Col, Coeff] : Form.Terms)
      Out.Coeffs[Col] = Coeff;
    return Out;
  };

  // Equations: subA_d(x) - subB_d(x) == 0.
  for (unsigned D = 0; D < NumDims; ++D) {
    XAffine FA = Materialize(SubsA[D]);
    XAffine FB = Materialize(SubsB[D]);
    XAffine Eq(NumX);
    bool Ok = true;
    {
      CheckedInt C = CheckedInt(FA.Const) - CheckedInt(FB.Const);
      Ok = C.valid();
      if (Ok)
        Eq.Const = C.get();
    }
    for (unsigned J = 0; J < NumX && Ok; ++J) {
      CheckedInt C = CheckedInt(FA.Coeffs[J]) - CheckedInt(FB.Coeffs[J]);
      Ok = C.valid();
      if (Ok)
        Eq.Coeffs[J] = C.get();
    }
    if (!Ok)
      return std::nullopt;
    P.Equations.push_back(std::move(Eq));
  }

  P.Lo.resize(NumLoopVars);
  P.Hi.resize(NumLoopVars);
  for (unsigned L = 0; L < NumLoopVars; ++L) {
    if (Los[L].Present)
      P.Lo[L] = Materialize(Los[L]);
    if (His[L].Present)
      P.Hi[L] = Materialize(His[L]);
  }

  assert(P.wellFormed() && "builder produced a malformed problem");
  return Built;
}
