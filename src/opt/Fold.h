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

/// Returns a simplified equivalent of \p E, made in \p A: constants
/// folded, identity elements dropped, double negation removed,
/// subtraction of a constant canonicalized. Idempotent: a result folds to
/// itself. \p A memoizes the fold of every node it has folded, so folding
/// a node again costs one lookup.
const Expr *foldExpr(ExprArena &A, const Expr *E);

/// Folds every expression in \p P (subscripts, right-hand sides, loop
/// bounds).
void foldConstants(Program &P);

} // namespace edda

#endif // EDDA_OPT_FOLD_H
