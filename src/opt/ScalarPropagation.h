//===- opt/ScalarPropagation.h - Const prop + forward subst ----*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant propagation and forward substitution (paper sections 2 and
/// 8): scalar uses are replaced by their known defining expressions when
/// that expression is built only from constants, symbolic constants and
/// loop variables that are still live and unchanged. Constant
/// propagation is the special case of a constant defining expression.
/// The pass is conservative and semantics-preserving: values that might
/// have changed (reassigned inside a loop, or referencing a loop
/// variable that went out of scope or restarted) are forgotten.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_OPT_SCALARPROPAGATION_H
#define EDDA_OPT_SCALARPROPAGATION_H

#include "ir/Program.h"

namespace edda {

/// Runs constant propagation + forward substitution over \p P, folding
/// every expression it visits. A program that assigns no scalar is left
/// as it is, unfolded too: callers fold first, as runPrepass does.
void propagateScalars(Program &P);

} // namespace edda

#endif // EDDA_OPT_SCALARPROPAGATION_H
