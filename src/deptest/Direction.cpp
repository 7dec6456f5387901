//===- deptest/Direction.cpp - Direction and distance vectors -------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Direction.h"

#include "deptest/ExtendedGcd.h"

#include <algorithm>

using namespace edda;

char edda::dirChar(Dir D) {
  switch (D) {
  case Dir::Less:
    return '<';
  case Dir::Equal:
    return '=';
  case Dir::Greater:
    return '>';
  case Dir::Any:
    return '*';
  }
  return '?';
}

std::string edda::dirVectorStr(const DirVector &V) {
  std::string Out = "(";
  for (unsigned K = 0; K < V.size(); ++K) {
    if (K)
      Out += ", ";
    Out += dirChar(V[K]);
  }
  Out += ")";
  return Out;
}

namespace {

/// Appends the linear constraints (forms required <= 0) imposing
/// direction \p D on common loop \p K.
void appendDirConstraints(const DependenceProblem &P, unsigned K, Dir D,
                          std::vector<XAffine> &Out) {
  unsigned A = P.xOfCommonA(K);
  unsigned B = P.xOfCommonB(K);
  switch (D) {
  case Dir::Less: { // i < i'  <=>  xA - xB + 1 <= 0
    XAffine F(P.numX());
    F.Coeffs[A] = 1;
    F.Coeffs[B] = -1;
    F.Const = 1;
    Out.push_back(std::move(F));
    return;
  }
  case Dir::Equal: { // xA - xB <= 0 and xB - xA <= 0
    XAffine F1(P.numX());
    F1.Coeffs[A] = 1;
    F1.Coeffs[B] = -1;
    Out.push_back(std::move(F1));
    XAffine F2(P.numX());
    F2.Coeffs[A] = -1;
    F2.Coeffs[B] = 1;
    Out.push_back(std::move(F2));
    return;
  }
  case Dir::Greater: { // i > i'  <=>  xB - xA + 1 <= 0
    XAffine F(P.numX());
    F.Coeffs[A] = -1;
    F.Coeffs[B] = 1;
    F.Const = 1;
    Out.push_back(std::move(F));
    return;
  }
  case Dir::Any:
    return;
  }
}

/// Number of constraint forms appendDirConstraints adds for \p D.
unsigned dirConstraintCount(Dir D) { return D == Dir::Equal ? 2 : 1; }

/// Recursive hierarchical refinement state.
struct Refiner {
  const DependenceProblem &P;
  const DirectionOptions &Opts;
  DirectionResult &R;
  /// Directions already determined per common loop (distance pruning),
  /// or Any-marked loops that need no testing (unused elimination).
  std::vector<std::optional<Dir>> Fixed;
  std::vector<XAffine> Constraints;
  DirVector Prefix;
  /// Set when some recorded vector's decisive answer was Unknown.
  bool AnyUnknownLeaf = false;
  /// Set when some vector was recorded with an exact Dependent answer.
  bool AnyExactDependent = false;

  /// True once the refinement tree has spent its cumulative
  /// Fourier-Motzkin budget (Opts.MaxRefineFmWork). The root query's
  /// work counts against it too — a root that alone exhausts the
  /// budget yields a single all-'*' vector.
  bool overBudget() const {
    return Opts.MaxRefineFmWork != 0 &&
           R.TestStats.FmWork >= Opts.MaxRefineFmWork;
  }

  /// Summarizes the untested remainder of the current subtree by one
  /// conservative vector: Prefix followed by '*' for every remaining
  /// level. Coverage is preserved (Any covers all three directions);
  /// exactness is forfeited via AnyUnknownLeaf.
  void bailConservatively(unsigned Level) {
    size_t Keep = Prefix.size();
    for (unsigned L = Level; L < P.NumCommon; ++L)
      Prefix.push_back(Dir::Any);
    R.Vectors.push_back(Prefix);
    Prefix.resize(Keep);
    AnyUnknownLeaf = true;
  }

  void refine(unsigned Level, DepAnswer Incoming) {
    if (Level == P.NumCommon) {
      R.Vectors.push_back(Prefix);
      if (Incoming == DepAnswer::Unknown)
        AnyUnknownLeaf = true;
      else
        AnyExactDependent = true;
      return;
    }
    if (Fixed[Level]) {
      // Forced by a constant distance or marked '*': no test needed.
      Prefix.push_back(*Fixed[Level]);
      refine(Level + 1, Incoming);
      Prefix.pop_back();
      return;
    }
    for (Dir D : {Dir::Less, Dir::Equal, Dir::Greater}) {
      if (overBudget()) {
        bailConservatively(Level);
        return;
      }
      // Never let a single query overshoot the remaining budget: cap
      // its combine operations (per widening tier) at what is left, on
      // top of whatever caps the caller configured.
      CascadeOptions QOpts = Opts.Cascade;
      if (Opts.MaxRefineFmWork != 0) {
        uint64_t Remaining = Opts.MaxRefineFmWork - R.TestStats.FmWork;
        QOpts.Fm.MaxCombines = QOpts.Fm.MaxCombines == 0
                                   ? Remaining
                                   : std::min(QOpts.Fm.MaxCombines,
                                              Remaining);
      }
      appendDirConstraints(P, Level, D, Constraints);
      ++R.TestsRun;
      CascadeResult Test = testDependenceConstrained(
          P, Constraints, QOpts, &R.TestStats);
      R.Widened |= Test.Widened;
      if (Test.Answer != DepAnswer::Independent) {
        Prefix.push_back(D);
        refine(Level + 1, Test.Answer);
        Prefix.pop_back();
      }
      Constraints.resize(Constraints.size() - dirConstraintCount(D));
    }
  }
};

/// Checks the Burke-Cytron separability conditions on \p P: every loop is
/// common, every equation couples exactly one common pair with no
/// symbolics, and every bound is constant.
bool isSeparable(const DependenceProblem &P) {
  if (P.NumLoopsA != P.NumCommon || P.NumLoopsB != P.NumCommon)
    return false;
  for (unsigned L = 0; L < P.numLoopVars(); ++L) {
    if (P.Lo[L] && !P.Lo[L]->isConstant())
      return false;
    if (P.Hi[L] && !P.Hi[L]->isConstant())
      return false;
  }
  for (const XAffine &Eq : P.Equations) {
    int Pair = -1;
    for (unsigned S = 0; S < P.NumSymbolic; ++S)
      if (Eq.Coeffs[P.numLoopVars() + S] != 0)
        return false;
    for (unsigned K = 0; K < P.NumCommon; ++K) {
      bool Involves = Eq.Coeffs[P.xOfCommonA(K)] != 0 ||
                      Eq.Coeffs[P.xOfCommonB(K)] != 0;
      if (!Involves)
        continue;
      if (Pair >= 0)
        return false; // couples two loops
      Pair = static_cast<int>(K);
    }
  }
  return true;
}

/// Extracts the one-loop subproblem for common loop \p K of a separable
/// problem.
DependenceProblem dimensionSubproblem(const DependenceProblem &P,
                                      unsigned K) {
  DependenceProblem Sub;
  Sub.NumLoopsA = Sub.NumLoopsB = Sub.NumCommon = 1;
  Sub.NumSymbolic = 0;
  unsigned A = P.xOfCommonA(K);
  unsigned B = P.xOfCommonB(K);
  for (const XAffine &Eq : P.Equations) {
    if (Eq.Coeffs[A] == 0 && Eq.Coeffs[B] == 0)
      continue;
    XAffine NewEq(2);
    NewEq.Const = Eq.Const;
    NewEq.Coeffs[0] = Eq.Coeffs[A];
    NewEq.Coeffs[1] = Eq.Coeffs[B];
    Sub.Equations.push_back(std::move(NewEq));
  }
  Sub.Lo.resize(2);
  Sub.Hi.resize(2);
  auto CopyBound = [](const std::optional<XAffine> &In)
      -> std::optional<XAffine> {
    if (!In)
      return std::nullopt;
    XAffine Out(2);
    Out.Const = In->Const;
    return Out;
  };
  Sub.Lo[0] = CopyBound(P.Lo[A]);
  Sub.Hi[0] = CopyBound(P.Hi[A]);
  Sub.Lo[1] = CopyBound(P.Lo[B]);
  Sub.Hi[1] = CopyBound(P.Hi[B]);
  return Sub;
}

/// Per-dimension computation for separable problems: 3 tests per
/// dimension instead of 3^n, with the result the cross product.
DirectionResult computeSeparable(const DependenceProblem &P,
                                 const DirectionOptions &Opts) {
  DirectionResult R;
  R.Distances.assign(P.NumCommon, std::nullopt);

  // Equations that involve no common pair at all are dropped by
  // dimensionSubproblem, but an infeasible constant row (c == 0 with
  // c != 0) refutes the whole problem — including the NumCommon == 0
  // case, where the cross product below would otherwise fabricate an
  // empty "dependent" vector.
  for (const XAffine &Eq : P.Equations) {
    bool AnyLoopCoeff = false;
    for (unsigned J = 0; J < P.numLoopVars(); ++J)
      AnyLoopCoeff |= Eq.Coeffs[J] != 0;
    if (!AnyLoopCoeff && Eq.Const != 0) {
      R.RootAnswer = DepAnswer::Independent;
      R.RootDecidedBy = TestKind::ArrayConstant;
      return R;
    }
  }

  std::vector<std::vector<Dir>> PerDim(P.NumCommon);
  // A dimension whose surviving directions were all answered Unknown
  // has no proved dependence; the cross product must not claim a
  // Dependent root from it.
  bool AllDimsProved = true;
  for (unsigned K = 0; K < P.NumCommon; ++K) {
    DependenceProblem Sub = dimensionSubproblem(P, K);
    if (Opts.DistanceVectorPruning) {
      DiophantineSolution Sol = solveEquations(Sub);
      if (Sol.Solvable && !Sol.Overflow) {
        XAffine Delta(2);
        Delta.Coeffs[0] = -1;
        Delta.Coeffs[1] = 1;
        std::vector<int64_t> TCoeffs;
        int64_t TConst;
        if (projectToFree(Delta, Sol, TCoeffs, TConst) &&
            std::all_of(TCoeffs.begin(), TCoeffs.end(),
                        [](int64_t C) { return C == 0; }))
          R.Distances[K] =
              Opts.InjectMisSignedPruning ? -TConst : TConst;
      }
    }
    bool DimProved = false;
    for (Dir D : {Dir::Less, Dir::Equal, Dir::Greater}) {
      std::vector<XAffine> Constraints;
      appendDirConstraints(Sub, 0, D, Constraints);
      ++R.TestsRun;
      CascadeResult Test = testDependenceConstrained(
          Sub, Constraints, Opts.Cascade, &R.TestStats);
      R.Widened |= Test.Widened;
      if (Test.Answer != DepAnswer::Independent)
        PerDim[K].push_back(D);
      if (Test.Answer == DepAnswer::Dependent)
        DimProved = true;
      if (Test.Answer == DepAnswer::Unknown)
        R.Exact = false;
    }
    if (PerDim[K].empty()) {
      // All three directional tests refuted this dimension: the whole
      // nest is independent, exactly, whatever other dimensions said.
      R.RootAnswer = DepAnswer::Independent;
      R.Exact = true;
      R.Distances.assign(P.NumCommon, std::nullopt);
      return R;
    }
    AllDimsProved &= DimProved;
  }
  // Cross product of the per-dimension sets.
  std::vector<DirVector> Acc = {{}};
  for (unsigned K = 0; K < P.NumCommon; ++K) {
    std::vector<DirVector> Next;
    for (const DirVector &V : Acc) {
      for (Dir D : PerDim[K]) {
        DirVector Extended = V;
        Extended.push_back(D);
        Next.push_back(std::move(Extended));
      }
    }
    Acc = std::move(Next);
  }
  R.Vectors = std::move(Acc);
  // Separable dimensions are independent, so one proved witness per
  // dimension combines into a witness for the whole nest; a dimension
  // that only ever answered Unknown leaves the root Unknown.
  R.RootAnswer =
      AllDimsProved ? DepAnswer::Dependent : DepAnswer::Unknown;
  return R;
}

} // namespace

DirectionResult
edda::computeDirectionVectors(const DependenceProblem &Problem,
                              const DirectionOptions &Opts) {
  assert(Problem.wellFormed() && "malformed problem");

  // Unused-variable elimination: compute on the reduced problem and map
  // the vectors back with '*' components for removed loops.
  DependenceProblem Reduced;
  std::vector<std::optional<unsigned>> CommonMap(Problem.NumCommon);
  const DependenceProblem *Work = &Problem;
  if (Opts.EliminateUnusedVars) {
    Reduced = Problem.withUnusedLoopsRemoved(CommonMap);
    Work = &Reduced;
  } else {
    for (unsigned K = 0; K < Problem.NumCommon; ++K)
      CommonMap[K] = K;
  }

  // Sub-result sharing: one table per computation, threaded to every
  // cascade query (root, refinements, separable dimensions) through the
  // FM options. Queries run sequentially and insertion is
  // first-insert-wins, so the vectors, stats, and answers are
  // deterministic.
  FmShareTable Share;
  DirectionOptions SharedOpts = Opts;
  SharedOpts.Cascade.Fm.Share = &Share;

  DirectionResult Inner;
  if (Opts.SeparableDimensions && isSeparable(*Work)) {
    Inner = computeSeparable(*Work, SharedOpts);
  } else {
    Inner.Distances.assign(Work->NumCommon, std::nullopt);
    // Root (*,...,*) test.
    ++Inner.TestsRun;
    CascadeResult Root =
        testDependence(*Work, SharedOpts.Cascade, &Inner.TestStats);
    Inner.RootAnswer = Root.Answer;
    Inner.RootDecidedBy = Root.DecidedBy;
    Inner.RootWidened = Root.Widened;
    Inner.Widened = Root.Widened;
    if (Root.Answer != DepAnswer::Independent) {
      Refiner Ref{*Work, SharedOpts, Inner,
                  std::vector<std::optional<Dir>>(Work->NumCommon),
                  {}, {}, false, false};

      // Distance-vector pruning: a constant i'_k - i_k forces the
      // direction and yields the distance.
      if (Opts.DistanceVectorPruning && Work->NumCommon > 0) {
        DiophantineSolution Sol = solveEquations(*Work);
        if (Sol.Solvable && !Sol.Overflow) {
          for (unsigned K = 0; K < Work->NumCommon; ++K) {
            XAffine Delta(Work->numX());
            Delta.Coeffs[Work->xOfCommonA(K)] = -1;
            Delta.Coeffs[Work->xOfCommonB(K)] = 1;
            std::vector<int64_t> TCoeffs;
            int64_t TConst;
            if (!projectToFree(Delta, Sol, TCoeffs, TConst))
              continue;
            if (!std::all_of(TCoeffs.begin(), TCoeffs.end(),
                             [](int64_t C) { return C == 0; }))
              continue;
            int64_t Dist =
                Opts.InjectMisSignedPruning ? -TConst : TConst;
            Inner.Distances[K] = Dist;
            Ref.Fixed[K] = Dist > 0   ? Dir::Less
                           : Dist < 0 ? Dir::Greater
                                      : Dir::Equal;
          }
        }
      }

      Ref.refine(0, Root.Answer);

      // Implicit branch & bound (paper end of section 6): an inexact
      // root refuted on every leaf is exact independence; a root proved
      // dependent on some exact leaf is exact dependence.
      if (Inner.RootAnswer == DepAnswer::Unknown) {
        if (Inner.Vectors.empty() && !Ref.AnyUnknownLeaf)
          Inner.RootAnswer = DepAnswer::Independent;
        else if (Ref.AnyExactDependent)
          Inner.RootAnswer = DepAnswer::Dependent;
      }
      Inner.Exact = Inner.RootAnswer != DepAnswer::Unknown &&
                    !Ref.AnyUnknownLeaf;
    }
  }

  return expandDirections(std::move(Inner), CommonMap);
}

DirectionResult
edda::expandDirections(DirectionResult R,
                       std::span<const std::optional<unsigned>> CommonMap) {
  const unsigned NumCommon = static_cast<unsigned>(CommonMap.size());
  std::vector<std::optional<int64_t>> Distances(NumCommon);
  for (unsigned K = 0; K < NumCommon; ++K)
    if (CommonMap[K] && *CommonMap[K] < R.Distances.size())
      Distances[K] = R.Distances[*CommonMap[K]];
  std::vector<DirVector> Vectors;
  Vectors.reserve(R.Vectors.size());
  for (const DirVector &V : R.Vectors) {
    DirVector &Mapped = Vectors.emplace_back(NumCommon, Dir::Any);
    for (unsigned K = 0; K < NumCommon; ++K)
      if (CommonMap[K] && *CommonMap[K] < V.size())
        Mapped[K] = V[*CommonMap[K]];
  }
  R.Distances = std::move(Distances);
  R.Vectors = std::move(Vectors);
  return R;
}
