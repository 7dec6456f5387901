//===- opt/Pipeline.cpp - Prepass optimization pipeline --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"

#include "opt/Fold.h"
#include "opt/Induction.h"
#include "opt/Normalize.h"
#include "opt/ScalarPropagation.h"

using namespace edda;

void edda::runPrepass(Program &P) {
  foldConstants(P);
  // Resolve params and simple scalars so strided loops get constant
  // bounds before normalization.
  propagateScalars(P);
  normalizeLoops(P);
  // Substitute the i = L + s*i_n recomputations normalization inserted.
  propagateScalars(P);
  // Induction rewriting needs normalized loops and entry values.
  substituteInductionVariables(P);
  // Propagation folds every expression it visits, so its output is
  // already folded. Each pass after foldConstants returns at once when
  // the program, as that pass sees it, assigns no scalar (normalization
  // may have inserted one): 10 of the 13 suite programs assign none.
  propagateScalars(P);
}
