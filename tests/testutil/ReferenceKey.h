//===- tests/testutil/ReferenceKey.h - Reference memo key ------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The copy-based statement of a memo key: under the improved scheme,
/// reduce a copy of the problem with withUnusedLoopsRemoved; then
/// serialize it. DependenceCache::makeKey computes the same words in one
/// pass; the memo key identity test holds the two to word-for-word
/// equality.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_TESTS_TESTUTIL_REFERENCEKEY_H
#define EDDA_TESTS_TESTUTIL_REFERENCEKEY_H

#include "deptest/Memo.h"

#include <vector>

namespace edda {
namespace testutil {

/// The key \p P maps to under \p Opts, with or without bounds.
std::vector<int64_t> referenceKey(const MemoOptions &Opts,
                                  const DependenceProblem &P,
                                  bool IncludeBounds);

} // namespace testutil
} // namespace edda

#endif // EDDA_TESTS_TESTUTIL_REFERENCEKEY_H
