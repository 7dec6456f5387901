//===- analysis/Builder.h - Reference pair -> problem ----------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the IR-independent DependenceProblem for a pair of array
/// references: subscript difference equations over the two iteration
/// vectors plus shared symbolic constants, and the enclosing loop bounds
/// (paper section 2). References with non-affine subscripts or
/// references to out-of-scope variables are unanalyzable; loops with
/// non-unit steps that normalization could not remove are relaxed to
/// their bounding interval (sound: independence over the relaxation
/// implies independence, but the problem is flagged inexact).
///
/// The builder reads the affine summaries collectReferences stores on
/// each reference and concatenates them into the final forms; it never
/// converts an expression itself. The same summaries let the analyzer
/// recognize an all-constant pair without building it (constantPair).
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_ANALYSIS_BUILDER_H
#define EDDA_ANALYSIS_BUILDER_H

#include "analysis/Refs.h"
#include "deptest/Problem.h"
#include "ir/Program.h"

#include <optional>
#include <vector>

namespace edda {

/// A built problem plus bookkeeping the analyzer needs.
struct BuiltProblem {
  DependenceProblem Problem;
  /// False when some loop range was relaxed (non-unit step survived);
  /// Dependent answers are then conservative rather than exact.
  bool Exact = true;
  /// Program variable ids of the symbolic columns, in x order.
  std::vector<unsigned> SymbolicVars;
  /// Coefficient rows an earlier build into this object held but the
  /// current problem does not use (a dropped equation or bound), kept
  /// for a later build to take. Not part of the problem.
  std::vector<std::vector<int64_t>> SpareRows;
};

/// Builds the dependence problem for references \p A and \p B of
/// \p Program. Returns std::nullopt when the pair is unanalyzable
/// (non-affine subscripts, out-of-scope variables, differing array
/// ranks, or arithmetic overflow).
std::optional<BuiltProblem> buildProblem(const Program &Prog,
                                         const ArrayReference &A,
                                         const ArrayReference &B);

/// The same build, written into \p Out: the problem equals the one the
/// form above returns, but the storage an earlier build left in \p Out
/// (equation and bound rows, the Lo/Hi slots, SymbolicVars) is reused,
/// so building pair after pair into one object allocates only when a
/// problem is larger than every one before it. Returns false when the
/// pair is unanalyzable; \p Out then holds no meaningful problem but
/// stays reusable.
bool buildProblem(const Program &Prog, const ArrayReference &A,
                  const ArrayReference &B, BuiltProblem &Out);

/// What the const stage needs of a pair whose built problem would have
/// only constant equations (paper section 4).
struct ConstantPair {
  /// Some subscript difference is nonzero.
  bool NonzeroDifference = false;
  /// Some enclosing loop of either reference has constant bounds with
  /// lo > hi.
  bool ConstantEmptyLoop = false;
  /// BuiltProblem::Exact: every enclosing loop has unit step.
  bool Exact = true;
};

/// Reads \p A against \p B off the reference summaries: a value exactly
/// when buildProblem would succeed with only constant equations. That
/// holds when, in every dimension, neither side has a loop term and
/// both sides have the same symbolic part (so a[N+1] against a[N]
/// qualifies), and no constant difference overflows.
std::optional<ConstantPair> constantPair(const ArrayReference &A,
                                         const ArrayReference &B);

} // namespace edda

#endif // EDDA_ANALYSIS_BUILDER_H
