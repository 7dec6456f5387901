//===- tests/testutil/ReferenceBuilder.h - Reference builder ---*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The direct problem builder: converts both references' subscripts and
/// every enclosing bound with toAffine on each call, mapping variables to
/// columns by scanning the reference's loop stack. buildProblem reads the
/// same facts from the summaries collectReferences stores; the builder
/// differential test holds the two to field-for-field equality.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_TESTS_TESTUTIL_REFERENCEBUILDER_H
#define EDDA_TESTS_TESTUTIL_REFERENCEBUILDER_H

#include "analysis/Builder.h"

#include <optional>

namespace edda {
namespace testutil {

/// buildProblem's specification, computed directly from the IR.
std::optional<BuiltProblem> referenceBuildProblem(const Program &Prog,
                                                  const ArrayReference &A,
                                                  const ArrayReference &B);

} // namespace testutil
} // namespace edda

#endif // EDDA_TESTS_TESTUTIL_REFERENCEBUILDER_H
