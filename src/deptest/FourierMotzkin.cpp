//===- deptest/FourierMotzkin.cpp - Fourier-Motzkin backup test -----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The Omega-style exact core (docs/ALGORITHMS.md section 13). The solve
// order is chosen so the expensive machinery almost never runs:
//
//   1. a deterministic multi-start witness search (guessWitness) decides
//      most satisfiable systems with zero combines;
//   2. redundant-inequality pruning (fmPruneRedundant) shrinks the row
//      set before every elimination round;
//   3. exact-shadow variables eliminate first, fewest-combines next;
//   4. only a genuinely non-exact elimination pays for the dark-shadow /
//      real-shadow / splinter decomposition.
//
//===----------------------------------------------------------------------===//

#include "deptest/FourierMotzkin.h"

#include "support/WideInt.h"

#include <algorithm>
#include <limits>
#include <map>
#include <type_traits>

using namespace edda;

namespace {

/// One exact elimination step: the variable removed and the bounds
/// involving it, kept for back substitution.
template <typename T> struct ElimStep {
  unsigned Var;
  std::vector<LinearConstraintT<T>> Uppers; ///< Coefficient of Var > 0.
  std::vector<LinearConstraintT<T>> Lowers; ///< Coefficient of Var < 0.
};

/// Combines an upper bound (A > 0 on Var) with a lower bound (C < 0 on
/// Var): (-C)*Upper + A*Lower, whose Var column cancels. The result is
/// the raw (un-normalized) real-shadow row. Returns false on overflow.
template <typename T>
bool combine(const LinearConstraintT<T> &Upper,
             const LinearConstraintT<T> &Lower, unsigned Var,
             LinearConstraintT<T> &Out) {
  T A = Upper.Coeffs[Var];
  T C = Lower.Coeffs[Var];
  assert(A > T(0) && C < T(0) && "combine requires opposite signs");
  std::optional<T> NegC = checkedNeg(C);
  if (!NegC)
    return false;
  const unsigned NumVars = static_cast<unsigned>(Upper.Coeffs.size());
  Out.Coeffs.assign(NumVars, T(0));
  for (unsigned K = 0; K < NumVars; ++K) {
    Checked<T> V = Checked<T>(*NegC) * Upper.Coeffs[K] +
                   Checked<T>(A) * Lower.Coeffs[K];
    if (!V.valid())
      return false;
    Out.Coeffs[K] = V.get();
  }
  assert(Out.Coeffs[Var] == T(0) && "variable failed to cancel");
  Checked<T> B =
      Checked<T>(*NegC) * Upper.Bound + Checked<T>(A) * Lower.Bound;
  if (!B.valid())
    return false;
  Out.Bound = B.get();
  return true;
}

enum class ElimStatus { Ok, Overflow, Budget, TooBig };

/// The elimination engine shared by the solver and fmEliminateVariable.
/// \p Rows must be normalized with at least one active variable each.
/// Every upper-lower pair is combined once; the real- and dark-shadow
/// rows are derived from the same raw combination, then normalized
/// separately (normalizing first would change the dark offset).
template <typename T>
ElimStatus eliminateRows(const std::vector<LinearConstraintT<T>> &Rows,
                         unsigned Var, bool InjectDarkShadowOffByOne,
                         uint64_t *CombinesUsed, uint64_t MaxCombines,
                         size_t MaxConstraints, FmEliminationT<T> &E) {
  E.Var = Var;
  for (const LinearConstraintT<T> &C : Rows) {
    if (C.Coeffs[Var] > T(0))
      E.Uppers.push_back(C);
    else if (C.Coeffs[Var] < T(0))
      E.Lowers.push_back(C);
    else {
      E.Real.push_back(C);
      E.Dark.push_back(C);
    }
  }
  bool AllUnitUppers = true, AllUnitLowers = true;
  for (const LinearConstraintT<T> &U : E.Uppers)
    AllUnitUppers &= U.Coeffs[Var] == T(1);
  for (const LinearConstraintT<T> &L : E.Lowers)
    AllUnitLowers &= L.Coeffs[Var] == T(-1);
  E.Exact =
      E.Uppers.empty() || E.Lowers.empty() || AllUnitUppers || AllUnitLowers;

  for (const LinearConstraintT<T> &U : E.Uppers) {
    for (const LinearConstraintT<T> &L : E.Lowers) {
      ++E.Combines;
      if (CombinesUsed) {
        ++*CombinesUsed;
        if (MaxCombines != 0 && *CombinesUsed > MaxCombines)
          return ElimStatus::Budget;
      }
      LinearConstraintT<T> Raw;
      if (!combine(U, L, Var, Raw))
        return ElimStatus::Overflow;
      // Dark-shadow offset (a-1)(c-1); a unit coefficient on either
      // side makes the pair exact (dark == real).
      Checked<T> CMinus1 = Checked<T>(T(0)) - L.Coeffs[Var] - T(1);
      Checked<T> Delta = (Checked<T>(U.Coeffs[Var]) - T(1)) * CMinus1;
      if (!Delta.valid())
        return ElimStatus::Overflow;
      T Offset = Delta.get();
      if (InjectDarkShadowOffByOne && Offset > T(0))
        Offset = Offset - T(1);
      Checked<T> DarkBound = Checked<T>(Raw.Bound) - Offset;
      if (!DarkBound.valid())
        return ElimStatus::Overflow;

      LinearConstraintT<T> DarkRow(Raw.Coeffs, DarkBound.get());
      LinearConstraintT<T> RealRow = std::move(Raw);
      if (!RealRow.normalize()) {
        // The dark shadow is a subset of the real shadow.
        E.RealInfeasible = true;
        E.DarkInfeasible = true;
        return ElimStatus::Ok;
      }
      if (RealRow.numActiveVars() > 0)
        E.Real.push_back(std::move(RealRow));
      if (!E.DarkInfeasible) {
        if (!DarkRow.normalize())
          E.DarkInfeasible = true;
        else if (DarkRow.numActiveVars() > 0)
          E.Dark.push_back(std::move(DarkRow));
      }
      if (E.Real.size() > MaxConstraints)
        return ElimStatus::TooBig;
    }
  }
  return ElimStatus::Ok;
}

/// Per-variable interval implied by the single-variable rows; nullopt
/// means unbounded on that side (including when the division overflows).
template <typename T> struct VarBox {
  std::optional<T> Lo, Hi;
};

template <typename T>
std::vector<VarBox<T>> boxOf(const std::vector<LinearConstraintT<T>> &Rows,
                             unsigned NumVars) {
  std::vector<VarBox<T>> Box(NumVars);
  for (const LinearConstraintT<T> &C : Rows) {
    if (C.numActiveVars() != 1)
      continue;
    unsigned V = C.soleVar();
    T A = C.Coeffs[V];
    if (A > T(0)) {
      std::optional<T> H = checkedFloorDiv(C.Bound, A);
      if (H && (!Box[V].Hi || *H < *Box[V].Hi))
        Box[V].Hi = *H;
    } else {
      std::optional<T> L = checkedCeilDiv(C.Bound, A);
      if (L && (!Box[V].Lo || *L > *Box[V].Lo))
        Box[V].Lo = *L;
    }
  }
  return Box;
}

template <typename T> T clampToBox(T V, const VarBox<T> &B) {
  if (B.Lo && V < *B.Lo)
    V = *B.Lo;
  if (B.Hi && V > *B.Hi)
    V = *B.Hi;
  return V;
}

/// Deterministic multi-start repair search for a satisfying integer
/// point: from each starting point, repeatedly move one variable of the
/// first violated row just far enough to satisfy it, staying inside the
/// single-variable box so earlier repairs are not undone gratuitously.
/// Every returned point has been verified against every row, so a
/// success is a sound Dependent verdict; failure proves nothing.
template <typename T>
std::optional<std::vector<T>>
guessWitness(const std::vector<LinearConstraintT<T>> &Rows,
             unsigned NumVars) {
  if (Rows.empty())
    return std::vector<T>(NumVars, T(0));
  std::vector<VarBox<T>> Box = boxOf(Rows, NumVars);

  std::vector<std::vector<T>> Starts;
  {
    // The low corner: loop-style systems are usually satisfiable at
    // their lower bounds.
    std::vector<T> P(NumVars, T(0));
    for (unsigned V = 0; V < NumVars; ++V)
      P[V] = Box[V].Lo ? *Box[V].Lo : clampToBox(T(0), Box[V]);
    Starts.push_back(std::move(P));
  }
  {
    // The box midpoint.
    std::vector<T> P(NumVars, T(0));
    for (unsigned V = 0; V < NumVars; ++V) {
      const VarBox<T> &B = Box[V];
      if (B.Lo && B.Hi) {
        std::optional<T> Span = checkedSub(*B.Hi, *B.Lo);
        P[V] = Span ? *B.Lo + *Span / T(2) : *B.Lo;
      } else if (B.Lo)
        P[V] = *B.Lo;
      else if (B.Hi)
        P[V] = *B.Hi;
    }
    Starts.push_back(std::move(P));
  }
  {
    // Zero, clamped into the box: catches dependence equations whose
    // difference variables vanish.
    std::vector<T> P(NumVars, T(0));
    for (unsigned V = 0; V < NumVars; ++V)
      P[V] = clampToBox(T(0), Box[V]);
    Starts.push_back(std::move(P));
  }

  const unsigned MaxIters = 4 * std::max(1u, NumVars);
  for (std::vector<T> &Pt : Starts) {
    bool Aborted = false;
    for (unsigned Iter = 0; Iter <= MaxIters && !Aborted; ++Iter) {
      const LinearConstraintT<T> *Violated = nullptr;
      T Lhs{};
      for (const LinearConstraintT<T> &C : Rows) {
        std::optional<T> V = C.lhsAt(Pt);
        if (!V) {
          Aborted = true;
          break;
        }
        if (*V > C.Bound) {
          Violated = &C;
          Lhs = *V;
          break;
        }
      }
      if (Aborted)
        break;
      if (!Violated)
        return Pt;
      if (Iter == MaxIters)
        break;
      std::optional<T> Diff = checkedSub(Violated->Bound, Lhs);
      if (!Diff)
        break;
      bool Fixed = false;
      for (unsigned V = 0; V < NumVars && !Fixed; ++V) {
        T A = Violated->Coeffs[V];
        if (A == T(0))
          continue;
        // The exact minimal move that satisfies the row; skipped when
        // it would leave the variable's own box.
        std::optional<T> Delta =
            A > T(0) ? checkedFloorDiv(*Diff, A) : checkedCeilDiv(*Diff, A);
        if (!Delta)
          continue;
        std::optional<T> New = checkedAdd(Pt[V], *Delta);
        if (!New)
          continue;
        if (A > T(0) && Box[V].Lo && *New < *Box[V].Lo)
          continue;
        if (A < T(0) && Box[V].Hi && *New > *Box[V].Hi)
          continue;
        Pt[V] = *New;
        Fixed = true;
      }
      if (!Fixed)
        break;
    }
  }
  return std::nullopt;
}

enum class LiftStatus { Ok, Overflow, Empty };

/// Recursive solver carrying the shared combine and splinter budgets.
template <typename T> class FmSolver {
public:
  FmSolver(const FourierMotzkinOptions &Opts) : Opts(Opts) {}

  FmResultT<T> solve(const LinearSystemT<T> &System) {
    const unsigned NumVars = System.numVars();
    std::vector<LinearConstraintT<T>> Work;
    bool Contradiction = false;
    for (const LinearConstraintT<T> &C : System.constraints()) {
      LinearConstraintT<T> Copy = C;
      if (!Copy.normalize()) {
        Contradiction = true;
        break;
      }
      if (Copy.numActiveVars() > 0)
        Work.push_back(std::move(Copy));
    }
    FmResultT<T> Result =
        Contradiction ? independent() : attempt(std::move(Work), NumVars);
    Result.BranchNodes = NodesUsed;
    Result.Combines = CombinesUsed;
    Result.DarkDecided = DarkDecided;
    Result.RedundantPruned = Pruned;
    assert((Result.St != FmResultT<T>::Status::Dependent ||
            Opts.InjectDarkShadowOffByOne ||
            System.satisfiedBy(*Result.Sample)) &&
           "Dependent verdict with an invalid witness");
    return Result;
  }

private:
  const FourierMotzkinOptions &Opts;
  unsigned NodesUsed = 0;
  uint64_t CombinesUsed = 0;
  unsigned DarkDecided = 0;
  uint64_t Pruned = 0;

  FmResultT<T> attempt(std::vector<LinearConstraintT<T>> Work,
                       unsigned NumVars);

  FmResultT<T> unknown(bool Overflowed) {
    FmResultT<T> Result;
    Result.St = FmResultT<T>::Status::Unknown;
    Result.Overflowed = Overflowed;
    return Result;
  }

  FmResultT<T> independent() {
    FmResultT<T> Result;
    Result.St = FmResultT<T>::Status::Independent;
    return Result;
  }

  FmResultT<T> dependent(std::vector<T> Sample) {
    FmResultT<T> Result;
    Result.St = FmResultT<T>::Status::Dependent;
    Result.Sample = std::move(Sample);
    return Result;
  }

  /// Picks the next variable to eliminate: exact shadows first, fewest
  /// upper-x-lower combines next, lowest index as the tiebreak.
  unsigned pickVariable(const std::vector<LinearConstraintT<T>> &Work,
                        unsigned NumVars) const {
    struct Info {
      uint64_t P = 0, Q = 0;
      bool UnitUp = true, UnitLo = true;
      bool Active = false;
    };
    std::vector<Info> Infos(NumVars);
    for (const LinearConstraintT<T> &C : Work)
      for (unsigned V = 0; V < NumVars; ++V) {
        T A = C.Coeffs[V];
        if (A == T(0))
          continue;
        Infos[V].Active = true;
        if (A > T(0)) {
          ++Infos[V].P;
          Infos[V].UnitUp &= A == T(1);
        } else {
          ++Infos[V].Q;
          Infos[V].UnitLo &= A == T(-1);
        }
      }
    unsigned Best = NumVars;
    uint64_t BestKey = 0;
    for (unsigned V = 0; V < NumVars; ++V) {
      const Info &I = Infos[V];
      if (!I.Active)
        continue;
      bool Exact = I.P == 0 || I.Q == 0 || I.UnitUp || I.UnitLo;
      uint64_t Key = (Exact ? 0 : uint64_t(1) << 63) | (I.P * I.Q);
      if (Best == NumVars || Key < BestKey) {
        Best = V;
        BestKey = Key;
      }
    }
    assert(Best < NumVars && "no active variable in a nonempty system");
    return Best;
  }

  /// Assigns Sample[Var] an integer between the lower and upper bounds
  /// evaluated at the other components. Empty ranges cannot happen for
  /// exact eliminations or dark-shadow lifts unless the injected
  /// dark-shadow bug is active, in which case the range is clamped so
  /// the unsound witness propagates to the fuzzer's oracle.
  LiftStatus assignVar(const std::vector<LinearConstraintT<T>> &Uppers,
                       const std::vector<LinearConstraintT<T>> &Lowers,
                       unsigned Var, std::vector<T> &Sample) {
    std::optional<T> Lo, Hi;
    for (const LinearConstraintT<T> &U : Uppers) {
      Checked<T> Rhs(U.Bound);
      for (unsigned K = 0; K < Sample.size(); ++K)
        if (K != Var)
          Rhs -= Checked<T>(U.Coeffs[K]) * Sample[K];
      if (!Rhs.valid())
        return LiftStatus::Overflow;
      std::optional<T> Cand = checkedFloorDiv(Rhs.get(), U.Coeffs[Var]);
      if (!Cand)
        return LiftStatus::Overflow;
      if (!Hi || *Cand < *Hi)
        Hi = *Cand;
    }
    for (const LinearConstraintT<T> &L : Lowers) {
      Checked<T> Rhs(L.Bound);
      for (unsigned K = 0; K < Sample.size(); ++K)
        if (K != Var)
          Rhs -= Checked<T>(L.Coeffs[K]) * Sample[K];
      if (!Rhs.valid())
        return LiftStatus::Overflow;
      std::optional<T> Cand = checkedCeilDiv(Rhs.get(), L.Coeffs[Var]);
      if (!Cand)
        return LiftStatus::Overflow;
      if (!Lo || *Cand > *Lo)
        Lo = *Cand;
    }
    if (Lo && Hi && *Lo > *Hi) {
      if (!Opts.InjectDarkShadowOffByOne)
        return LiftStatus::Empty;
      Sample[Var] = *Lo;
      return LiftStatus::Ok;
    }
    if (Lo && Hi) {
      std::optional<T> Span = checkedSub(*Hi, *Lo);
      Sample[Var] = Span ? *Lo + *Span / T(2) : *Lo;
    } else if (Lo)
      Sample[Var] = *Lo;
    else if (Hi)
      Sample[Var] = *Hi;
    else
      Sample[Var] = T(0);
    return LiftStatus::Ok;
  }

  /// Replays the exact elimination steps in reverse, assigning each
  /// eliminated variable from its recorded bounds.
  LiftStatus backSubstitute(const std::vector<ElimStep<T>> &Steps,
                            std::vector<T> &Sample) {
    for (auto It = Steps.rbegin(); It != Steps.rend(); ++It) {
      LiftStatus S = assignVar(It->Uppers, It->Lowers, It->Var, Sample);
      if (S != LiftStatus::Ok)
        return S;
    }
    return LiftStatus::Ok;
  }

  /// Back-substitutes \p Sample through \p Steps and wraps it as a
  /// Dependent result; maps lift failures to sound Unknowns.
  FmResultT<T> liftedDependent(const std::vector<ElimStep<T>> &Steps,
                               std::vector<T> Sample) {
    switch (backSubstitute(Steps, Sample)) {
    case LiftStatus::Overflow:
      return unknown(true);
    case LiftStatus::Empty:
      assert(false && "exact elimination lifted into an empty range");
      return unknown(false);
    case LiftStatus::Ok:
      break;
    }
    return dependent(std::move(Sample));
  }
};

template <typename T>
FmResultT<T> FmSolver<T>::attempt(std::vector<LinearConstraintT<T>> Work,
                                  unsigned NumVars) {
  // Entry invariant: rows are normalized with at least one active
  // variable; the scan below is a cheap safety net for constant
  // falsehoods slipping through a caller.
  for (const LinearConstraintT<T> &C : Work)
    if (C.numActiveVars() == 0 && C.Bound < T(0))
      return independent();

  Pruned += fmPruneRedundant(Work);

  if (Work.empty())
    return dependent(std::vector<T>(NumVars, T(0)));

  if (std::optional<std::vector<T>> W = guessWitness(Work, NumVars))
    return dependent(std::move(*W));

  std::vector<ElimStep<T>> Steps;
  while (!Work.empty()) {
    unsigned Var = pickVariable(Work, NumVars);
    FmEliminationT<T> E;
    switch (eliminateRows(Work, Var, Opts.InjectDarkShadowOffByOne,
                          &CombinesUsed, Opts.MaxCombines,
                          Opts.MaxConstraints, E)) {
    case ElimStatus::Overflow:
      return unknown(true);
    case ElimStatus::Budget:
    case ElimStatus::TooBig:
      return unknown(false);
    case ElimStatus::Ok:
      break;
    }
    if (E.RealInfeasible)
      return independent();

    if (E.Exact) {
      Work = std::move(E.Real);
      Pruned += fmPruneRedundant(Work);
      Steps.push_back(
          ElimStep<T>{Var, std::move(E.Uppers), std::move(E.Lowers)});
      continue;
    }

    // Dark shadow first: any integer point of it lifts to an integer
    // point of the original system.
    FmResultT<T> DarkR;
    if (E.DarkInfeasible)
      DarkR.St = FmResultT<T>::Status::Independent;
    else
      DarkR = attempt(std::move(E.Dark), NumVars);
    if (DarkR.St == FmResultT<T>::Status::Dependent) {
      ++DarkDecided;
      std::vector<T> Sample = std::move(*DarkR.Sample);
      LiftStatus LS = assignVar(E.Uppers, E.Lowers, Var, Sample);
      if (LS == LiftStatus::Overflow)
        return unknown(true);
      if (LS == LiftStatus::Empty) {
        assert(false && "dark-shadow point failed to lift");
        return unknown(false);
      }
      return liftedDependent(Steps, std::move(Sample));
    }

    FmResultT<T> RealR = attempt(std::move(E.Real), NumVars);
    if (RealR.St == FmResultT<T>::Status::Independent) {
      ++DarkDecided;
      return independent();
    }
    if (RealR.St == FmResultT<T>::Status::Unknown)
      return unknown(RealR.Overflowed);
    if (DarkR.St == FmResultT<T>::Status::Unknown)
      return unknown(DarkR.Overflowed);

    // Real shadow integer-satisfiable, dark shadow not: first try to
    // lift the real-shadow point directly (its Var range often happens
    // to contain an integer), then close the gap by splinters.
    {
      std::vector<T> Sample = std::move(*RealR.Sample);
      LiftStatus LS = assignVar(E.Uppers, E.Lowers, Var, Sample);
      if (LS == LiftStatus::Overflow)
        return unknown(true);
      if (LS == LiftStatus::Ok) {
        ++DarkDecided;
        return liftedDependent(Steps, std::move(Sample));
      }
    }

    T MaxUpper = T(0);
    for (const LinearConstraintT<T> &U : E.Uppers)
      if (U.Coeffs[Var] > MaxUpper)
        MaxUpper = U.Coeffs[Var];
    bool SawUnknown = false, SawOverflow = false;
    for (const LinearConstraintT<T> &L : E.Lowers) {
      std::optional<T> C = checkedNeg(L.Coeffs[Var]);
      if (!C)
        return unknown(true);
      if (*C == T(1))
        continue;
      Checked<T> Numer = Checked<T>(MaxUpper) * *C - MaxUpper - *C;
      if (!Numer.valid())
        return unknown(true);
      if (Numer.get() < T(0))
        continue;
      std::optional<T> MaxI = checkedFloorDiv(Numer.get(), MaxUpper);
      if (!MaxI)
        return unknown(true);
      for (T I(0); I <= *MaxI; I = I + T(1)) {
        if (Opts.MaxBranchNodes == 0 || NodesUsed >= Opts.MaxBranchNodes)
          return unknown(false);
        ++NodesUsed;
        // Work plus the equality c*Var == beta + I as an inequality
        // pair (see fmSplinterSystems for the derivation).
        std::vector<LinearConstraintT<T>> Splinter = Work;
        LinearConstraintT<T> Row1;
        Row1.Coeffs.resize(NumVars);
        bool RowOk = true;
        for (unsigned K = 0; K < NumVars; ++K) {
          std::optional<T> N = checkedNeg(L.Coeffs[K]);
          if (!N) {
            RowOk = false;
            break;
          }
          Row1.Coeffs[K] = *N;
        }
        std::optional<T> B1 = checkedSub(I, L.Bound);
        std::optional<T> B2 = checkedSub(L.Bound, I);
        if (!RowOk || !B1 || !B2)
          return unknown(true);
        Row1.Bound = *B1;
        LinearConstraintT<T> Row2 = L;
        Row2.Bound = *B2;
        bool Contradiction = false;
        for (LinearConstraintT<T> *R : {&Row1, &Row2}) {
          if (!R->normalize()) {
            Contradiction = true;
            break;
          }
          if (R->numActiveVars() > 0)
            Splinter.push_back(*R);
        }
        if (Contradiction)
          continue;
        FmResultT<T> SubR = attempt(std::move(Splinter), NumVars);
        if (SubR.St == FmResultT<T>::Status::Dependent)
          return liftedDependent(Steps, std::move(*SubR.Sample));
        if (SubR.St == FmResultT<T>::Status::Unknown) {
          SawUnknown = true;
          SawOverflow |= SubR.Overflowed;
        }
      }
    }
    if (SawUnknown)
      return unknown(SawOverflow);
    return independent();
  }

  // Every variable eliminated exactly: lift from the empty system.
  return liftedDependent(Steps, std::vector<T>(NumVars, T(0)));
}

} // namespace

namespace edda {

template <typename T>
uint64_t fmPruneRedundant(std::vector<LinearConstraintT<T>> &Rows) {
  uint64_t Dropped = 0;

  // Phase 1: drop constant tautologies; duplicate coefficient vectors
  // keep the minimum bound. Constant falsehoods survive for the caller.
  std::vector<LinearConstraintT<T>> Keep;
  Keep.reserve(Rows.size());
  std::map<std::vector<T>, size_t> ByCoeffs;
  for (LinearConstraintT<T> &C : Rows) {
    if (C.numActiveVars() == 0) {
      if (C.Bound >= T(0)) {
        ++Dropped;
        continue;
      }
      Keep.push_back(std::move(C));
      continue;
    }
    auto It = ByCoeffs.find(C.Coeffs);
    if (It == ByCoeffs.end()) {
      ByCoeffs.emplace(C.Coeffs, Keep.size());
      Keep.push_back(std::move(C));
    } else {
      if (C.Bound < Keep[It->second].Bound)
        Keep[It->second].Bound = C.Bound;
      ++Dropped;
    }
  }

  // Phase 2: drop row I when two other surviving rows J and K sum to
  // it with a bound at most I's — then J and K together imply I.
  // Implication through surviving rows is transitive, so checking Drop
  // at use time keeps this sound regardless of drop order.
  const size_t N = Keep.size();
  std::vector<bool> Drop(N, false);
  for (size_t I = 0; I < N; ++I) {
    if (Drop[I] || Keep[I].numActiveVars() == 0)
      continue;
    for (size_t J = 0; J < N; ++J) {
      if (J == I || Drop[J] || Keep[J].numActiveVars() == 0)
        continue;
      std::vector<T> Need(Keep[I].Coeffs.size());
      bool Ok = true;
      for (size_t V = 0; V < Need.size(); ++V) {
        std::optional<T> D =
            checkedSub(Keep[I].Coeffs[V], Keep[J].Coeffs[V]);
        if (!D) {
          Ok = false;
          break;
        }
        Need[V] = *D;
      }
      if (!Ok)
        continue;
      auto It = ByCoeffs.find(Need);
      if (It == ByCoeffs.end())
        continue;
      size_t K = It->second;
      if (K == I || K == J || Drop[K])
        continue;
      std::optional<T> Sum = checkedAdd(Keep[J].Bound, Keep[K].Bound);
      if (Sum && *Sum <= Keep[I].Bound) {
        Drop[I] = true;
        ++Dropped;
        break;
      }
    }
  }

  Rows.clear();
  for (size_t I = 0; I < N; ++I)
    if (!Drop[I])
      Rows.push_back(std::move(Keep[I]));
  return Dropped;
}

template <typename T>
std::optional<FmEliminationT<T>>
fmEliminateVariable(const LinearSystemT<T> &System, unsigned Var,
                    bool InjectDarkShadowOffByOne) {
  assert(Var < System.numVars() && "variable out of range");
  FmEliminationT<T> E;
  std::vector<LinearConstraintT<T>> Rows;
  for (const LinearConstraintT<T> &C : System.constraints()) {
    LinearConstraintT<T> Copy = C;
    if (!Copy.normalize()) {
      E.Var = Var;
      E.RealInfeasible = true;
      E.DarkInfeasible = true;
      return E;
    }
    if (Copy.numActiveVars() > 0)
      Rows.push_back(std::move(Copy));
  }
  if (eliminateRows(Rows, Var, InjectDarkShadowOffByOne, nullptr, 0,
                    std::numeric_limits<size_t>::max(),
                    E) == ElimStatus::Overflow)
    return std::nullopt;
  return E;
}

template <typename T>
std::optional<std::vector<LinearSystemT<T>>>
fmSplinterSystems(const LinearSystemT<T> &System, unsigned Var,
                  unsigned MaxSystems) {
  assert(Var < System.numVars() && "variable out of range");
  const unsigned NumVars = System.numVars();
  std::vector<LinearConstraintT<T>> Rows;
  for (const LinearConstraintT<T> &C : System.constraints()) {
    LinearConstraintT<T> Copy = C;
    if (!Copy.normalize())
      return std::vector<LinearSystemT<T>>{}; // Infeasible: no splinters.
    if (Copy.numActiveVars() > 0)
      Rows.push_back(std::move(Copy));
  }
  T MaxUpper = T(0);
  bool HasLower = false;
  for (const LinearConstraintT<T> &C : Rows) {
    if (C.Coeffs[Var] > MaxUpper)
      MaxUpper = C.Coeffs[Var];
    HasLower |= C.Coeffs[Var] < T(0);
  }
  std::vector<LinearSystemT<T>> Out;
  if (MaxUpper == T(0) || !HasLower)
    return Out; // One-sided: the elimination is exact.
  for (const LinearConstraintT<T> &L : Rows) {
    if (L.Coeffs[Var] >= T(0))
      continue;
    std::optional<T> C = checkedNeg(L.Coeffs[Var]);
    if (!C)
      return std::nullopt;
    if (*C == T(1))
      continue; // Unit lower bounds splinter nothing.
    Checked<T> Numer = Checked<T>(MaxUpper) * *C - MaxUpper - *C;
    if (!Numer.valid())
      return std::nullopt;
    if (Numer.get() < T(0))
      continue;
    std::optional<T> MaxI = checkedFloorDiv(Numer.get(), MaxUpper);
    if (!MaxI)
      return std::nullopt;
    for (T I(0); I <= *MaxI; I = I + T(1)) {
      if (Out.size() >= MaxSystems)
        return std::nullopt;
      // System plus c*Var == beta + I: with the lower row L being
      // a.x <= B (a_Var = -c and beta = sum' a_k x_k - B), the
      // equality is the pair  a.x <= B - I  and  -a.x <= I - B.
      LinearSystemT<T> S(NumVars);
      for (const LinearConstraintT<T> &R : Rows)
        S.add(R);
      LinearConstraintT<T> Row1;
      Row1.Coeffs.resize(NumVars);
      for (unsigned K = 0; K < NumVars; ++K) {
        std::optional<T> N = checkedNeg(L.Coeffs[K]);
        if (!N)
          return std::nullopt;
        Row1.Coeffs[K] = *N;
      }
      std::optional<T> B1 = checkedSub(I, L.Bound);
      std::optional<T> B2 = checkedSub(L.Bound, I);
      if (!B1 || !B2)
        return std::nullopt;
      Row1.Bound = *B1;
      LinearConstraintT<T> Row2 = L;
      Row2.Bound = *B2;
      S.add(std::move(Row1));
      S.add(std::move(Row2));
      Out.push_back(std::move(S));
    }
  }
  return Out;
}

std::string FmShareTable::keyFor(const LinearSystem &System) {
  std::vector<std::string> RenderedRows;
  RenderedRows.reserve(System.constraints().size());
  for (const LinearConstraint &C : System.constraints()) {
    std::string Row;
    for (int64_t V : C.Coeffs) {
      Row += std::to_string(V);
      Row += ',';
    }
    Row += ':';
    Row += std::to_string(C.Bound);
    RenderedRows.push_back(std::move(Row));
  }
  // Sorting makes the key insensitive to row order, which varies with
  // the direction-constraint append order across sibling refinements.
  std::sort(RenderedRows.begin(), RenderedRows.end());
  std::string Key = std::to_string(System.numVars());
  Key += '|';
  for (const std::string &Row : RenderedRows) {
    Key += Row;
    Key += ';';
  }
  return Key;
}

template <typename T>
FmResultT<T> runFourierMotzkin(const LinearSystemT<T> &System,
                               const FourierMotzkinOptions &Opts) {
  if constexpr (std::is_same_v<T, int64_t>) {
    if (Opts.Share) {
      std::string Key = FmShareTable::keyFor(System);
      if (const FmResult *Hit = Opts.Share->lookup(Key)) {
        FmResult Result = *Hit;
        Result.ShareHit = true;
        return Result;
      }
      FmResult Result = FmSolver<int64_t>(Opts).solve(System);
      Opts.Share->insert(std::move(Key), Result);
      return Result;
    }
  }
  return FmSolver<T>(Opts).solve(System);
}

template uint64_t
fmPruneRedundant<int64_t>(std::vector<LinearConstraintT<int64_t>> &);
template uint64_t
fmPruneRedundant<Int128>(std::vector<LinearConstraintT<Int128>> &);

template std::optional<FmEliminationT<int64_t>>
fmEliminateVariable<int64_t>(const LinearSystemT<int64_t> &, unsigned, bool);
template std::optional<FmEliminationT<Int128>>
fmEliminateVariable<Int128>(const LinearSystemT<Int128> &, unsigned, bool);

template std::optional<std::vector<LinearSystemT<int64_t>>>
fmSplinterSystems<int64_t>(const LinearSystemT<int64_t> &, unsigned, unsigned);
template std::optional<std::vector<LinearSystemT<Int128>>>
fmSplinterSystems<Int128>(const LinearSystemT<Int128> &, unsigned, unsigned);

template FmResultT<int64_t>
runFourierMotzkin<int64_t>(const LinearSystemT<int64_t> &,
                           const FourierMotzkinOptions &);
template FmResultT<Int128>
runFourierMotzkin<Int128>(const LinearSystemT<Int128> &,
                          const FourierMotzkinOptions &);

} // namespace edda
