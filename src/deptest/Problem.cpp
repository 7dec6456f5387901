//===- deptest/Problem.cpp - Dependence problem representation -----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Problem.h"

#include "support/IntMath.h"

#include <algorithm>

using namespace edda;

bool DependenceProblem::wellFormed() const {
  if (NumCommon > std::min(NumLoopsA, NumLoopsB))
    return false;
  if (Lo.size() != numLoopVars() || Hi.size() != numLoopVars())
    return false;
  for (const XAffine &E : Equations)
    if (E.Coeffs.size() != numX())
      return false;
  for (const std::optional<XAffine> &B : Lo)
    if (B && B->Coeffs.size() != numX())
      return false;
  for (const std::optional<XAffine> &B : Hi)
    if (B && B->Coeffs.size() != numX())
      return false;
  return true;
}

std::vector<int64_t> DependenceProblem::serialize(bool IncludeBounds) const {
  assert(wellFormed() && "serializing a malformed problem");
  std::vector<int64_t> Out;
  Out.push_back(NumLoopsA);
  Out.push_back(NumLoopsB);
  Out.push_back(NumCommon);
  Out.push_back(NumSymbolic);
  Out.push_back(static_cast<int64_t>(Equations.size()));
  for (const XAffine &E : Equations) {
    Out.push_back(E.Const);
    Out.insert(Out.end(), E.Coeffs.begin(), E.Coeffs.end());
  }
  if (!IncludeBounds)
    return Out;
  auto AppendBound = [&Out](const std::optional<XAffine> &B) {
    if (!B) {
      Out.push_back(0); // absent marker
      return;
    }
    Out.push_back(1);
    Out.push_back(B->Const);
    Out.insert(Out.end(), B->Coeffs.begin(), B->Coeffs.end());
  };
  for (const std::optional<XAffine> &B : Lo)
    AppendBound(B);
  for (const std::optional<XAffine> &B : Hi)
    AppendBound(B);
  return Out;
}

namespace {

/// True when dropping loop variable \p L's bound pair cannot change the
/// feasibility of the rest of the system: a one-sided range always
/// admits a value, and a two-sided range Lo <= v <= Hi is inhabited for
/// every assignment of the other variables when the two forms differ
/// only in their constants with Lo.Const <= Hi.Const (and neither
/// references v itself). Anything else — an empty constant range, a
/// triangular or symbolic pair — constrains the remaining variables
/// through the Fourier-Motzkin projection Lo(x) <= Hi(x), so the
/// variable must stay alive even when no subscript mentions it.
bool boundPairVacuous(unsigned L, const std::optional<XAffine> &Lo,
                      const std::optional<XAffine> &Hi) {
  if (!Lo || !Hi)
    return true;
  if (Lo->Coeffs[L] != 0 || Hi->Coeffs[L] != 0 || Lo->Const > Hi->Const)
    return false;
  for (size_t J = 0; J < Lo->Coeffs.size(); ++J)
    if (Lo->Coeffs[J] != Hi->Coeffs[J])
      return false;
  return true;
}

} // namespace

std::vector<bool> DependenceProblem::unusedCommonLoops() const {
  // A loop variable is "used" when it occurs in a subscript equation or
  // in the bound of a variable that is itself used. Compute the used set
  // to a fixpoint, then report the common loops where both copies are
  // unused.
  unsigned NumL = numLoopVars();
  std::vector<bool> Used(NumL, false);
  for (const XAffine &E : Equations)
    for (unsigned J = 0; J < NumL; ++J)
      if (E.Coeffs[J] != 0)
        Used[J] = true;
  // A non-vacuous bound pair constrains the rest of the iteration space
  // even when no subscript mentions the variable (an empty constant
  // range refutes everything; a triangular pair implies bounds on the
  // outer variables), so the variable cannot be eliminated.
  for (unsigned L = 0; L < NumL; ++L)
    if (!boundPairVacuous(L, Lo[L], Hi[L]))
      Used[L] = true;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned L = 0; L < NumL; ++L) {
      if (!Used[L])
        continue;
      // The bounds of a used variable make the variables they mention
      // used as well.
      for (const std::optional<XAffine> *Side : {&Lo[L], &Hi[L]}) {
        if (!*Side)
          continue;
        for (unsigned J = 0; J < NumL; ++J) {
          if ((**Side).Coeffs[J] != 0 && !Used[J]) {
            Used[J] = true;
            Changed = true;
          }
        }
      }
    }
  }

  std::vector<bool> Unused(NumCommon, false);
  for (unsigned C = 0; C < NumCommon; ++C)
    Unused[C] = !Used[xOfCommonA(C)] && !Used[xOfCommonB(C)];
  return Unused;
}

void DependenceProblem::usedColumns(std::vector<uint64_t> &Bits) const {
  assert(wellFormed() && "malformed problem");
  const unsigned NumL = numLoopVars(), NumX = numX();

  // Used-variable closure, as in unusedCommonLoops but for every loop
  // variable (not just common ones). Symbolics are kept when they occur
  // in an equation or a surviving bound. A common loop's two copies are
  // kept or removed together — dropping only one would break the
  // direction-vector pairing (e.g. a[i + j] vs a[j]: i' is absent from
  // the equation but the i loop is still tested).
  //
  // Bits holds two column bitsets: the used set, and the loop variables
  // already expanded. Each loop variable is expanded once, when it is
  // found used: its bounds' columns join the used set.
  const unsigned Words = (NumX + 63) / 64;
  Bits.assign(2 * Words, 0);
  uint64_t *Used = Bits.data(), *Expanded = Used + Words;
  auto Has = [](const uint64_t *Set, unsigned J) {
    return (Set[J / 64] >> (J % 64)) & 1;
  };
  auto AddNonzero = [&](const XAffine &Form) {
    for (unsigned J = 0; J < NumX; ++J)
      Used[J / 64] |= uint64_t(Form.Coeffs[J] != 0) << (J % 64);
  };
  for (const XAffine &E : Equations)
    AddNonzero(E);
  // Same vacuity rule as unusedCommonLoops: only bound pairs whose
  // Fourier-Motzkin projection is trivially satisfied may be dropped.
  for (unsigned L = 0; L < NumL; ++L)
    if (!boundPairVacuous(L, Lo[L], Hi[L]))
      Used[L / 64] |= uint64_t(1) << (L % 64);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned L = 0; L < NumL; ++L) {
      if (!Has(Used, L) || Has(Expanded, L))
        continue;
      Expanded[L / 64] |= uint64_t(1) << (L % 64);
      Changed = true;
      unsigned Partner = L;
      if (L < NumCommon)
        Partner = xOfCommonB(L);
      else if (L >= NumLoopsA && L - NumLoopsA < NumCommon)
        Partner = xOfCommonA(L - NumLoopsA);
      Used[Partner / 64] |= uint64_t(1) << (Partner % 64);
      if (Lo[L])
        AddNonzero(*Lo[L]);
      if (Hi[L])
        AddNonzero(*Hi[L]);
    }
  }
}

DependenceProblem DependenceProblem::withUnusedLoopsRemoved(
    std::vector<std::optional<unsigned>> &CommonMap) const {
  assert(wellFormed() && "malformed problem");
  unsigned NumL = numLoopVars();
  std::vector<uint64_t> Bits;
  usedColumns(Bits);
  auto Used = [&Bits](unsigned J) { return (Bits[J / 64] >> (J % 64)) & 1; };

  // Build the old-x -> new-x mapping.
  std::vector<std::optional<unsigned>> XMap(numX());
  DependenceProblem Out;
  unsigned Next = 0;
  for (unsigned L = 0; L < NumLoopsA; ++L)
    if (Used(L))
      XMap[L] = Next++;
  Out.NumLoopsA = Next;
  for (unsigned L = 0; L < NumLoopsB; ++L)
    if (Used(NumLoopsA + L))
      XMap[NumLoopsA + L] = Next++;
  Out.NumLoopsB = Next - Out.NumLoopsA;
  for (unsigned S = 0; S < NumSymbolic; ++S)
    if (Used(NumL + S))
      XMap[NumL + S] = Next++;
  Out.NumSymbolic = Next - Out.NumLoopsA - Out.NumLoopsB;

  // Common pairs are kept or removed together (synced above), and
  // removal preserves order, so the kept pairs renumber consecutively
  // and remain a prefix of both loop blocks.
  CommonMap.assign(NumCommon, std::nullopt);
  unsigned NewCommon = 0;
  for (unsigned C = 0; C < NumCommon; ++C) {
    assert(Used(xOfCommonA(C)) == Used(xOfCommonB(C)) &&
           "common pair usage out of sync");
    if (Used(xOfCommonA(C)))
      CommonMap[C] = NewCommon++;
  }
  Out.NumCommon = NewCommon;

  unsigned NewNumX = Next;
  auto Remap = [&](const XAffine &Form) {
    XAffine NewForm(NewNumX);
    NewForm.Const = Form.Const;
    for (unsigned J = 0; J < numX(); ++J)
      if (Form.Coeffs[J] != 0) {
        assert(XMap[J] && "used variable lost in remap");
        NewForm.Coeffs[*XMap[J]] = Form.Coeffs[J];
      }
    return NewForm;
  };

  for (const XAffine &E : Equations)
    Out.Equations.push_back(Remap(E));
  Out.Lo.resize(Out.numLoopVars());
  Out.Hi.resize(Out.numLoopVars());
  for (unsigned L = 0; L < NumL; ++L) {
    if (!Used(L))
      continue;
    unsigned NewL = *XMap[L];
    if (Lo[L])
      Out.Lo[NewL] = Remap(*Lo[L]);
    if (Hi[L])
      Out.Hi[NewL] = Remap(*Hi[L]);
  }
  assert(Out.wellFormed() && "remap produced a malformed problem");
  return Out;
}

namespace {

/// Magnitude of \p X, defined for INT64_MIN too.
uint64_t magnitude(int64_t X) {
  return X < 0 ? 0 - static_cast<uint64_t>(X) : static_cast<uint64_t>(X);
}

/// Remaps an affine form under an x permutation.
XAffine permuteForm(const XAffine &Form,
                    const std::vector<unsigned> &NewIndex,
                    bool Negate) {
  XAffine Out(static_cast<unsigned>(Form.Coeffs.size()));
  Out.Const = Negate ? wrappingNeg(Form.Const) : Form.Const;
  for (unsigned J = 0; J < Form.Coeffs.size(); ++J)
    Out.Coeffs[NewIndex[J]] =
        Negate ? wrappingNeg(Form.Coeffs[J]) : Form.Coeffs[J];
  return Out;
}

} // namespace

DependenceProblem DependenceProblem::swapped() const {
  assert(wellFormed() && "malformed problem");
  DependenceProblem Out;
  Out.NumLoopsA = NumLoopsB;
  Out.NumLoopsB = NumLoopsA;
  Out.NumCommon = NumCommon;
  Out.NumSymbolic = NumSymbolic;

  // Old index -> new index: A block moves after B block.
  std::vector<unsigned> NewIndex(numX());
  for (unsigned L = 0; L < NumLoopsA; ++L)
    NewIndex[L] = NumLoopsB + L;
  for (unsigned L = 0; L < NumLoopsB; ++L)
    NewIndex[NumLoopsA + L] = L;
  for (unsigned S = 0; S < NumSymbolic; ++S)
    NewIndex[numLoopVars() + S] = numLoopVars() + S;

  // Equations were fA - fB == 0; after the swap they read fB - fA == 0.
  for (const XAffine &E : Equations)
    Out.Equations.push_back(permuteForm(E, NewIndex, /*Negate=*/true));

  Out.Lo.resize(numLoopVars());
  Out.Hi.resize(numLoopVars());
  for (unsigned L = 0; L < numLoopVars(); ++L) {
    if (Lo[L])
      Out.Lo[NewIndex[L]] = permuteForm(*Lo[L], NewIndex, /*Negate=*/false);
    if (Hi[L])
      Out.Hi[NewIndex[L]] = permuteForm(*Hi[L], NewIndex, /*Negate=*/false);
  }
  assert(Out.wellFormed() && "swap produced a malformed problem");
  return Out;
}

namespace {

std::string formStr(const XAffine &Form) {
  std::string Out;
  bool First = true;
  for (unsigned J = 0; J < Form.Coeffs.size(); ++J) {
    if (Form.Coeffs[J] == 0)
      continue;
    if (!First)
      Out += Form.Coeffs[J] < 0 ? " - " : " + ";
    else if (Form.Coeffs[J] < 0)
      Out += "-";
    First = false;
    uint64_t Mag = magnitude(Form.Coeffs[J]);
    if (Mag != 1)
      Out += std::to_string(Mag) + "*";
    Out += "x" + std::to_string(J);
  }
  if (First)
    return std::to_string(Form.Const);
  if (Form.Const != 0) {
    Out += Form.Const < 0 ? " - " : " + ";
    Out += std::to_string(magnitude(Form.Const));
  }
  return Out;
}

} // namespace

std::string DependenceProblem::str() const {
  std::string Out = "problem loopsA=" + std::to_string(NumLoopsA) +
                    " loopsB=" + std::to_string(NumLoopsB) +
                    " common=" + std::to_string(NumCommon) +
                    " symbolic=" + std::to_string(NumSymbolic) + "\n";
  for (const XAffine &E : Equations)
    Out += "  eq: " + formStr(E) + " == 0\n";
  for (unsigned L = 0; L < numLoopVars(); ++L) {
    Out += "  x" + std::to_string(L) + " in [";
    Out += Lo[L] ? formStr(*Lo[L]) : std::string("-inf");
    Out += ", ";
    Out += Hi[L] ? formStr(*Hi[L]) : std::string("+inf");
    Out += "]\n";
  }
  return Out;
}
