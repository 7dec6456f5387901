//===- opt/Pipeline.h - Prepass optimization pipeline ----------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prepass pipeline the paper relies on (sections 2 and 8) to make
/// subscripts and bounds affine: constant folding, scalar propagation
/// (constant propagation + forward substitution), loop normalization and
/// induction variable substitution, in an order where each pass enables
/// the next.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_OPT_PIPELINE_H
#define EDDA_OPT_PIPELINE_H

#include "ir/Program.h"

namespace edda {

/// Runs the full prepass: fold, propagate, normalize, propagate,
/// induction-substitute, propagate (which leaves every expression
/// folded).
void runPrepass(Program &P);

} // namespace edda

#endif // EDDA_OPT_PIPELINE_H
