//===- tests/testutil/ReferenceKey.cpp - Reference memo key ---------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "testutil/ReferenceKey.h"

using namespace edda;

std::vector<int64_t> edda::testutil::referenceKey(const MemoOptions &Opts,
                                                  const DependenceProblem &P,
                                                  bool IncludeBounds) {
  if (!Opts.ImprovedKey)
    return P.serialize(IncludeBounds);
  std::vector<std::optional<unsigned>> CommonMap;
  return P.withUnusedLoopsRemoved(CommonMap).serialize(IncludeBounds);
}
