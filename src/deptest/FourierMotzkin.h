//===- deptest/FourierMotzkin.h - Fourier-Motzkin backup test --*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backup Fourier-Motzkin test (paper section 3.5), rebuilt as an
/// Omega-style exact core (docs/ALGORITHMS.md section 13):
///
///   * a cheap multi-start witness search tries to satisfy the system
///     outright before any elimination — most dependent queries decide
///     here for free;
///   * redundant-inequality pruning (duplicate-coefficient rows keep the
///     tighter bound, rows implied by the sum of two others drop) runs
///     before every elimination round;
///   * variables are eliminated exact-shadow-first, fewest upper-x-lower
///     combines next (replacing plain least-fill order);
///   * a non-exact elimination splits into the real and dark shadows in
///     one pass: an integer point of the dark shadow lifts to an integer
///     witness, an integer-infeasible real shadow proves independence,
///     and the leftover gap is closed by splinter enumeration (Pugh's
///     Omega test) instead of branch & bound over the original system.
///
/// Sub-results can be shared across the direction hierarchy's sibling
/// refinements through FmShareTable (first-insert-wins, decisive results
/// only), threaded in via FourierMotzkinOptions::Share.
///
/// Templated on the scalar type for the widening ladder: int64_t is the
/// fast path, Int128 the retry tier. Only overflow-caused Unknowns are
/// worth retrying wide, so the result distinguishes them from budget
/// exhaustion via the Overflowed flag.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_FOURIERMOTZKIN_H
#define EDDA_DEPTEST_FOURIERMOTZKIN_H

#include "deptest/LinearSystem.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace edda {

class FmShareTable;

/// Resource limits for the Fourier-Motzkin test.
struct FourierMotzkinOptions {
  /// Abort (Unknown) when an elimination round grows the system past
  /// this many constraints.
  unsigned MaxConstraints = 4096;
  /// Splinter subproblem budget for non-exact eliminations whose dark
  /// shadow is integer-infeasible while the real shadow is not; 0
  /// disables splinter enumeration (the paper's configuration — no
  /// integer branching beyond the exact shadows).
  unsigned MaxBranchNodes = 64;
  /// Abort (Unknown) after this many upper-x-lower combine operations
  /// across the whole solve, splinter subproblems included. Combines
  /// are the unit elimination cost actually scales with —
  /// MaxConstraints only caps the surviving system, not the work spent
  /// deriving it — and the unit the direction hierarchy's refinement
  /// budget is charged in (DepStats::FmWork). 0 disables the cap.
  uint64_t MaxCombines = 0;
  /// Optional sub-result sharing table (int64_t tier only; the widened
  /// tier runs rarely enough that keying 128-bit systems is not worth
  /// it). Not owned. See FmShareTable.
  FmShareTable *Share = nullptr;
  /// Fuzzer hook: shrink the dark-shadow offset (a-1)(c-1) by one,
  /// making the dark shadow unsoundly large. The injected unsoundness
  /// surfaces as invalid Dependent witnesses; see
  /// docs/TESTING.md ("fm-dark-shadow").
  bool InjectDarkShadowOffByOne = false;
};

/// Outcome of the Fourier-Motzkin test.
template <typename T> struct FmResultT {
  enum class Status {
    Independent, ///< Real-infeasible, or integer-empty with certainty.
    Dependent,   ///< Integral witness found.
    Unknown,     ///< Budget exhausted or overflow: conservatively
                 ///< dependent, flagged inexact.
  };

  Status St = Status::Unknown;
  /// Witness when Dependent.
  std::optional<std::vector<T>> Sample;
  /// Splinter subproblems expended (nonzero exactly when splinter
  /// enumeration was entered).
  unsigned BranchNodes = 0;
  /// Upper-x-lower combine operations performed (the solver's work
  /// measure; see FourierMotzkinOptions::MaxCombines).
  uint64_t Combines = 0;
  /// Non-exact eliminations settled by the shadow decomposition alone
  /// (dark-shadow witness lift or integer-infeasible real shadow),
  /// i.e. without splinter enumeration.
  unsigned DarkDecided = 0;
  /// Constraints dropped by redundant-inequality pruning.
  uint64_t RedundantPruned = 0;
  /// True when the result was served from FourierMotzkinOptions::Share
  /// instead of being solved (Combines/BranchNodes are then the
  /// original solve's counts; the stage charges no new work).
  bool ShareHit = false;
  /// True when Unknown was caused by arithmetic overflow (so retrying
  /// at a wider scalar type can help); false for budget exhaustion.
  bool Overflowed = false;
};

/// The 64-bit fast-path instantiation (the historical name).
using FmResult = FmResultT<int64_t>;

/// Shares decisive FM results between queries over identical constraint
/// systems — the direction hierarchy's sibling refinements re-solve
/// near-identical systems, and after the pipeline's equation
/// substitution many of them collapse to the same system. Keys are the
/// exact (sorted) constraint rows, so a hit returns precisely what a
/// fresh solve would; only decisive results are stored because they are
/// budget-independent (an Unknown under one MaxCombines clamp is not an
/// Unknown under another). Insertion is first-insert-wins, which keeps
/// the table's contents — and therefore every served answer —
/// independent of lookup order beyond the first solve of each system.
class FmShareTable {
public:
  /// Canonical key: variable count plus the sorted rendered rows.
  static std::string keyFor(const LinearSystem &System);

  /// Returns the stored result for \p Key, or nullptr.
  const FmResult *lookup(const std::string &Key) const {
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : &It->second;
  }

  /// Stores \p Result under \p Key unless already present
  /// (first-insert-wins). Unknown results are rejected.
  void insert(std::string Key, const FmResult &Result) {
    if (Result.St != FmResult::Status::Unknown)
      Map.emplace(std::move(Key), Result);
  }

  size_t size() const { return Map.size(); }

private:
  std::unordered_map<std::string, FmResult> Map;
};

/// One variable elimination, exposed for the property tests: the real
/// and dark shadows of \p System with respect to the eliminated
/// variable, plus the bound rows needed to lift a shadow point back.
template <typename T> struct FmEliminationT {
  unsigned Var = 0;
  /// The projection preserves integer points exactly: the variable was
  /// one-sided, or every upper bound (or every lower bound) on it has a
  /// unit coefficient.
  bool Exact = false;
  /// A derived real-shadow row normalized to a constant falsehood; the
  /// system is infeasible (Real/Dark are cut short).
  bool RealInfeasible = false;
  /// A derived dark-shadow row normalized to a constant falsehood; the
  /// dark shadow is empty (Dark is cut short).
  bool DarkInfeasible = false;
  /// Rows not mentioning Var plus the derived real-shadow rows.
  std::vector<LinearConstraintT<T>> Real;
  /// Rows not mentioning Var plus the derived dark-shadow rows (each
  /// real row's bound reduced by (a-1)(c-1) for upper coefficient a and
  /// lower magnitude c).
  std::vector<LinearConstraintT<T>> Dark;
  /// The bounds on Var that were combined away, for witness lifting.
  std::vector<LinearConstraintT<T>> Uppers;
  std::vector<LinearConstraintT<T>> Lowers;
  /// Upper-x-lower pairs combined.
  uint64_t Combines = 0;
};

/// Eliminates \p Var from \p System by one Fourier-Motzkin round,
/// deriving the real and dark shadows together. Input rows are
/// gcd-normalized first; a constant-false input row reports
/// RealInfeasible. Returns std::nullopt on arithmetic overflow.
template <typename T>
std::optional<FmEliminationT<T>>
fmEliminateVariable(const LinearSystemT<T> &System, unsigned Var,
                    bool InjectDarkShadowOffByOne = false);

/// The splinter systems for eliminating \p Var from \p System: for each
/// lower bound c*v >= beta(x) with magnitude c > 1, the systems
/// System ∧ (c*v == beta(x) + i) for i in 0..floor((m*c - m - c)/m),
/// where m is the largest upper-bound coefficient on Var. Together with
/// the dark shadow these cover every integer point of System (Pugh's
/// splinter theorem), which the property tests check by enumeration.
/// Returns std::nullopt on overflow or when more than \p MaxSystems
/// splinters would be generated; an empty vector when Var is one-sided
/// or every lower coefficient is a unit.
template <typename T>
std::optional<std::vector<LinearSystemT<T>>>
fmSplinterSystems(const LinearSystemT<T> &System, unsigned Var,
                  unsigned MaxSystems = 4096);

/// Redundant-inequality pruning over normalized rows, in place:
/// duplicate-coefficient rows keep the minimum bound, constant
/// tautologies drop, and a row implied by the sum of two surviving rows
/// drops. Constant falsehoods are kept (the caller detects them).
/// Preserves the integer solution set exactly. Returns the number of
/// rows dropped.
template <typename T>
uint64_t fmPruneRedundant(std::vector<LinearConstraintT<T>> &Rows);

/// Runs Fourier-Motzkin elimination with integral witness recovery on
/// \p System.
template <typename T>
FmResultT<T> runFourierMotzkin(const LinearSystemT<T> &System,
                               const FourierMotzkinOptions &Opts = {});

} // namespace edda

#endif // EDDA_DEPTEST_FOURIERMOTZKIN_H
