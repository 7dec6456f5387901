//===- analysis/Refs.h - Array reference enumeration -----------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumeration of array references in a program, with their enclosing
/// loop nests. References are addressed by (statement, slot):
/// slot -1 is the statement's array write; slots 0.. number the array
/// reads in a fixed order (left-hand-side subscript reads first, then
/// right-hand-side reads, depth-first left to right). The interpreter's
/// access trace uses the same addressing so analysis results can be
/// validated against observed behaviour.
///
/// Enumeration also summarizes what the problem builder needs, so that
/// no pair re-derives it: every subscript as an affine form whose terms
/// name enclosing loops by depth, and every enclosing loop's bounds,
/// converted once per loop and shared by all references inside it.
///
/// Storage. One collectReferences call makes one immutable
/// ReferenceTables block. For each loop that directly holds a
/// reference, it stores the loop's chain of enclosing loops and their
/// summaries contiguously (each loop is summarized once); it also holds
/// every subscript summary with its terms. A reference allocates
/// nothing of its own. Its Loops, LoopInfo and
/// Subs are spans into that block, and its Subscripts span the
/// statement's left-hand-side subscripts or the array-read node's own.
/// Every reference holds a shared pointer to the block, so a reference
/// copied out of a result keeps the block alive after the result is
/// gone. The rule: the spans stay valid while the Program and any
/// reference of the collection are alive (and the Program's statements
/// are not edited).
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_ANALYSIS_REFS_H
#define EDDA_ANALYSIS_REFS_H

#include "ir/Program.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace edda {

/// One term of a summarized affine form: Coeff times either an
/// enclosing loop's index variable, named by its depth, or a program
/// variable.
struct SummaryTerm {
  static constexpr unsigned NoLoop = ~0u;
  /// Depth into the reference's Loops, or NoLoop for a variable term.
  unsigned Loop = NoLoop;
  /// Program variable id (loop terms keep theirs too).
  unsigned Var = 0;
  int64_t Coeff = 0;

  bool operator==(const SummaryTerm &RHS) const = default;
};

/// An expression converted by toAffine once: Const plus Terms, in
/// toAffine's term order (ascending variable id, no zero coefficient).
/// Affine is false when the conversion failed; Terms is then empty.
struct AffineSummary {
  std::span<const SummaryTerm> Terms;
  int64_t Const = 0;
  bool Affine = false;

  bool hasLoopTerms() const {
    for (const SummaryTerm &T : Terms)
      if (T.Loop != SummaryTerm::NoLoop)
        return true;
    return false;
  }
};

/// What the builder needs of one loop, computed once per LoopStmt and
/// shared by every reference inside it.
struct LoopSummary {
  /// The range's lower and upper bound, after orienting by the step's
  /// sign. A loop term is resolved against the loops enclosing this one
  /// and the loop itself. A variable term names a variable that is not
  /// among those. The builder first looks for it among the reference's
  /// deeper loops, then takes it as a symbolic column if it is symbolic.
  /// Otherwise the bound is dropped.
  AffineSummary Lo, Hi;
  /// Both bounds are constants and Lo > Hi: the loop never runs.
  bool ConstantEmpty = false;
  /// The step is 1. Otherwise (a step normalization could not remove)
  /// the builder relaxes the range to its interval and flags the
  /// problem inexact.
  bool UnitStep = true;
};

/// The storage one collectReferences call shares among its references
/// (defined in Refs.cpp; see the file comment).
struct ReferenceTables;

/// One static array reference.
struct ArrayReference {
  unsigned ArrayId = 0;
  const AssignStmt *Stmt = nullptr;
  /// -1 for the write on the left-hand side, otherwise the read index.
  int Slot = -1;
  bool IsWrite = false;
  std::span<const Expr *const> Subscripts;
  /// Enclosing loops, outermost first.
  std::span<const LoopStmt *const> Loops;
  /// Stable content fingerprint: array name, read/write, subscript
  /// expressions and the full enclosing bound chain (ir/Fingerprint.h).
  /// Equal fingerprints imply structurally identical references that
  /// build identical dependence problems, which is what incremental
  /// re-analysis keys reuse on — ids do not participate, so the value
  /// survives print -> edit -> re-parse.
  uint64_t Fingerprint = 0;
  /// The same fingerprint with the enclosing bound chain left out.
  /// Distinguishing the two is load-bearing: "same statement text under
  /// different bounds" must split Fingerprint while sharing this one
  /// (and the fuzzer's stale-fingerprint injected bug swaps the two to
  /// prove the incr axis notices).
  uint64_t FingerprintNoBounds = 0;
  /// Subscripts as affine forms, index for index. A subscript variable
  /// is resolved against Loops (first match); any other variable must be
  /// symbolic. Meaningful only when !Unanalyzable.
  std::span<const AffineSummary> Subs;
  /// Some subscript is not affine, or names a variable that is neither
  /// an enclosing loop's nor symbolic: every pair with this reference is
  /// unanalyzable.
  bool Unanalyzable = false;
  /// Summaries of Loops, index for index, shared by every reference
  /// with the same innermost loop.
  std::span<const LoopSummary> LoopInfo;
  /// Keeps the block that Loops, Subs and LoopInfo point into alive.
  std::shared_ptr<const ReferenceTables> Tables;

  const LoopSummary &loopInfo(size_t L) const { return LoopInfo[L]; }
};

/// Reuse key for an ordered reference pair (fingerprints \p FpA, \p FpB)
/// with \p NumCommon shared enclosing loops. The common-loop count is
/// part of the key because builder commonality is decided by
/// loop-object identity: content-identical chains may still differ in
/// sharing. Callers pass either the full or the no-bounds reference
/// fingerprints (the latter only by the fuzzer's injected bug).
uint64_t pairFingerprint(uint64_t FpA, uint64_t FpB, unsigned NumCommon);

/// Collects every array reference in the program, in statement order.
std::vector<ArrayReference> collectReferences(const Program &P);

/// "a[i][j+1] (write at depth 2)" rendering for diagnostics.
std::string refStr(const Program &P, const ArrayReference &Ref);

} // namespace edda

#endif // EDDA_ANALYSIS_REFS_H
