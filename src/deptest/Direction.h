//===- deptest/Direction.h - Direction and distance vectors ----*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direction and distance vector computation (paper section 6). The
/// hierarchical scheme of Burke and Cytron starts from (*,...,*) and
/// refines a '*' into '<', '=' and '>' only under dependent parents; each
/// refinement adds linear constraints relating a common loop's two
/// iteration variables and re-runs the cascade. Pruning implemented:
///
///   * unused-variable elimination: loops that appear in no subscript or
///     relevant bound carry '*' without testing;
///   * distance-vector pruning: when the GCD solution pins i'_k - i_k to
///     a constant, the direction is forced and the distance recorded;
///   * the implicit branch & bound: an Unknown root with all-independent
///     leaves is exact independence;
///   * optionally, Burke and Cytron's per-dimension scheme for separable
///     problems.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_DIRECTION_H
#define EDDA_DEPTEST_DIRECTION_H

#include "deptest/Cascade.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace edda {

/// One component of a direction vector, relating a common loop's source
/// iteration i to its sink iteration i'.
enum class Dir : uint8_t {
  Less,    ///< i < i' (forward loop-carried).
  Equal,   ///< i == i' (loop-independent at this level).
  Greater, ///< i > i' (backward; the reversed pair carries it).
  Any,     ///< Unconstrained ('*').
};

/// A direction vector over the common loops, outermost first.
using DirVector = std::vector<Dir>;

/// "(<, =, *)" rendering.
std::string dirVectorStr(const DirVector &V);
char dirChar(Dir D);

/// Knobs for direction vector computation.
struct DirectionOptions {
  CascadeOptions Cascade;
  /// Prepend '*' for unused loops instead of testing them (on for the
  /// paper's Table 5, off for Table 4).
  bool EliminateUnusedVars = true;
  /// Skip directions contradicting a GCD-constant distance (on for
  /// Table 5, off for Table 4).
  bool DistanceVectorPruning = true;
  /// Burke and Cytron's per-dimension computation for separable
  /// problems (extension; see DESIGN.md ablations).
  bool SeparableDimensions = false;
  /// Testing hook (edda-fuzz --inject-bug=dir-prune-sign): flips the
  /// sign of every distance the GCD pruning pins, so the forced
  /// direction is mirrored. Never set outside the fuzzer's
  /// injected-bug self-check.
  bool InjectMisSignedPruning = false;
  /// Cumulative Fourier-Motzkin work budget (in combine operations;
  /// see DepStats::FmWork) for the refinement tree of one computation.
  /// Coupled equations under triangular bounds can drive nearly every
  /// constrained query into branch & bound, and at the default FM
  /// budget a single 3-deep hierarchy then costs tens of seconds while
  /// the root cascade answers in milliseconds. Once the budget is
  /// spent, the unexplored remainder of the tree is summarized by one
  /// conservative '*'-filled vector per open level and the result is
  /// marked inexact — coverage is preserved, minimality is not
  /// claimed. The root query and the separable per-dimension path
  /// (two-variable subproblems) are not limited, but the root's work
  /// does count against the budget. 0 disables the cap.
  uint64_t MaxRefineFmWork = 1u << 20;
};

/// Result of direction/distance vector computation.
struct DirectionResult {
  /// Answer of the root (*,...,*) test, upgraded to Independent when the
  /// implicit branch & bound refutes an Unknown root.
  DepAnswer RootAnswer = DepAnswer::Unknown;
  /// The test that decided the root query (Svpc as a stand-in when the
  /// separable per-dimension path skipped the root test).
  TestKind RootDecidedBy = TestKind::Svpc;
  bool Exact = true;
  /// True when any cascade query in the hierarchy (root, refinement, or
  /// separable per-dimension test) climbed the 128-bit widening ladder.
  bool Widened = false;
  /// The root query's own widened bit — what a plain testDependence of
  /// the same problem would report. Stays false on the separable path,
  /// which never runs a root query.
  bool RootWidened = false;
  /// All direction vectors under which the references depend. Components
  /// may be Any for unused loops.
  std::vector<DirVector> Vectors;
  /// Per common loop: the constant dependence distance i'_k - i_k when
  /// the GCD solution determines one.
  std::vector<std::optional<int64_t>> Distances;
  /// Cascade statistics for every test run during the computation — the
  /// per-kind counts of the paper's Tables 4, 5 and 7.
  DepStats TestStats;
  /// Number of cascade invocations (root + refinements).
  uint64_t TestsRun = 0;
};

/// Computes the dependent direction vectors of \p Problem. FM results
/// are shared between the hierarchy's queries through one FmShareTable
/// per call: after equation substitution, many direction refinements
/// collapse to the same constraint system, and a shared decisive answer
/// costs no FM work. The table dies with the call, so computations stay
/// independent and thread-safe.
DirectionResult computeDirectionVectors(const DependenceProblem &Problem,
                                        const DirectionOptions &Opts = {});

/// Expands \p R, computed on a problem with unused loops removed, to the
/// common loops of the problem they were removed from: \p CommonMap
/// holds, per original common loop, its index in the reduced problem
/// (see DependenceProblem::withUnusedLoopsRemoved). Removed loops get
/// '*' and no distance.
DirectionResult
expandDirections(DirectionResult R,
                 std::span<const std::optional<unsigned>> CommonMap);

} // namespace edda

#endif // EDDA_DEPTEST_DIRECTION_H
