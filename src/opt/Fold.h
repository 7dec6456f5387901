//===- opt/Fold.h - Constant folding ---------------------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant folding and algebraic simplification of expression trees:
/// the enabling cleanup behind the paper's prepass optimizations
/// (section 2). Folding is overflow-checked; an overflowing operation is
/// left unfolded, which downstream analysis treats as non-affine.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_OPT_FOLD_H
#define EDDA_OPT_FOLD_H

#include "ir/Program.h"

namespace edda {

/// Returns a simplified equivalent of \p E: constants folded, identity
/// elements dropped, double negation removed, subtraction of a constant
/// canonicalized. Idempotent: a result folds to itself, and folding it
/// again returns the same node without rebuilding it.
ExprPtr foldExpr(const ExprPtr &E);

/// Folds every expression in \p P (subscripts, right-hand sides, loop
/// bounds).
void foldConstants(Program &P);

} // namespace edda

#endif // EDDA_OPT_FOLD_H
