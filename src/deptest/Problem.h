//===- deptest/Problem.h - Dependence problem representation ---*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR-independent statement of one dependence question (paper section
/// 2): do integer iteration vectors i (for reference A) and i' (for
/// reference B) exist such that every subscript pair is equal and every
/// loop bound is respected? The unknown vector x concatenates A's loop
/// variables, B's loop variables, and the shared symbolic constants:
///
///   x = [ iA_0 .. iA_{nA-1} | iB_0 .. iB_{nB-1} | s_0 .. s_{k-1} ]
///
/// The first NumCommon loops of A and of B are the same source loops
/// (their direction relationship is what direction vectors describe).
/// Symbolic constants are shared between the two references — they are
/// loop invariant, which is exactly the paper's section 8 extension.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_PROBLEM_H
#define EDDA_DEPTEST_PROBLEM_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace edda {

/// An affine form over the problem's x vector: Const + sum Coeffs[j]*x_j.
/// Coeffs always has exactly numX() entries (dense).
struct XAffine {
  std::vector<int64_t> Coeffs;
  int64_t Const = 0;

  XAffine() = default;
  explicit XAffine(unsigned NumX) : Coeffs(NumX, 0) {}

  bool isConstant() const {
    for (int64_t C : Coeffs)
      if (C != 0)
        return false;
    return true;
  }

  bool operator==(const XAffine &RHS) const = default;
};

/// One dependence question between a pair of array references.
struct DependenceProblem {
  unsigned NumLoopsA = 0;   ///< Enclosing loops of reference A.
  unsigned NumLoopsB = 0;   ///< Enclosing loops of reference B.
  unsigned NumCommon = 0;   ///< Shared outer loops (<= min(nA, nB)).
  unsigned NumSymbolic = 0; ///< Shared symbolic constants.

  /// Subscript equations, one per array dimension: form == 0.
  std::vector<XAffine> Equations;

  /// Loop bound constraints, indexed by loop-variable position in x
  /// (0..NumLoopsA+NumLoopsB). Lo[l] <= x_l and x_l <= Hi[l]. A missing
  /// entry means the bound is unknown (unanalyzable); the tests simply
  /// get a weaker system, which is still sound.
  std::vector<std::optional<XAffine>> Lo;
  std::vector<std::optional<XAffine>> Hi;

  unsigned numLoopVars() const { return NumLoopsA + NumLoopsB; }
  unsigned numX() const { return NumLoopsA + NumLoopsB + NumSymbolic; }

  /// Position in x of common loop \p L for reference A / reference B.
  unsigned xOfCommonA(unsigned L) const {
    assert(L < NumCommon && "not a common loop");
    return L;
  }
  unsigned xOfCommonB(unsigned L) const {
    assert(L < NumCommon && "not a common loop");
    return NumLoopsA + L;
  }

  /// Structural validation (sizes consistent); used by asserts and tests.
  bool wellFormed() const;

  /// Serializes the problem to a flat integer vector. The encoding is
  /// injective, so it doubles as the memoization key (section 5).
  /// \p IncludeBounds distinguishes the with-bounds and without-bounds
  /// tables (the GCD test ignores bounds).
  std::vector<int64_t> serialize(bool IncludeBounds) const;

  /// The paper's "improved" memoization scheme: returns a copy with every
  /// loop variable that appears in no equation and in no other variable's
  /// bound removed (its own bounds are dropped with it), together with
  /// the mapping from old common-loop index to new (or nullopt when
  /// removed). Removed common loops carry direction '*'.
  DependenceProblem
  withUnusedLoopsRemoved(std::vector<std::optional<unsigned>> &CommonMap)
      const;

  /// The used-variable fixpoint behind withUnusedLoopsRemoved: the x
  /// columns the improved scheme keeps. A loop variable is used when it
  /// occurs in an equation, has a non-vacuous bound pair, occurs in a
  /// used variable's bound, or is the partner of a used common loop; a
  /// symbolic is used when it occurs in an equation or a used loop
  /// variable's bound. Column J lands in bit J % 64 of \p Bits[J / 64];
  /// the words after the first (numX() + 63) / 64 are scratch. \p Bits
  /// is caller-owned so a hot caller can keep it across calls.
  void usedColumns(std::vector<uint64_t> &Bits) const;

  /// Identifies the common loops whose variables are unused (appear in no
  /// equation and no other loop's bounds), without rebuilding.
  std::vector<bool> unusedCommonLoops() const;

  /// Swaps the roles of references A and B (used by the symmetric
  /// memoization extension): x blocks exchanged, equations negated.
  DependenceProblem swapped() const;

  /// Debug rendering.
  std::string str() const;
};

} // namespace edda

#endif // EDDA_DEPTEST_PROBLEM_H
