//===- tests/testutil/ReferenceKey.cpp - Reference memo key ---------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "testutil/ReferenceKey.h"

#include <algorithm>

using namespace edda;

namespace {

void sortEquations(DependenceProblem &P) {
  std::sort(P.Equations.begin(), P.Equations.end(),
            [](const XAffine &A, const XAffine &B) {
              if (A.Coeffs != B.Coeffs)
                return A.Coeffs < B.Coeffs;
              return A.Const < B.Const;
            });
}

} // namespace

std::vector<int64_t> edda::testutil::referenceKey(const MemoOptions &Opts,
                                                  const DependenceProblem &P,
                                                  bool IncludeBounds,
                                                  bool &Swapped) {
  Swapped = false;
  DependenceProblem Work = P;
  if (Opts.ImprovedKey) {
    std::vector<std::optional<unsigned>> CommonMap;
    Work = P.withUnusedLoopsRemoved(CommonMap);
  }
  if (Opts.CanonicalizeEquations)
    sortEquations(Work);
  std::vector<int64_t> Key = Work.serialize(IncludeBounds);
  if (Opts.SymmetricKey) {
    DependenceProblem SwappedProblem = Work.swapped();
    if (Opts.CanonicalizeEquations)
      sortEquations(SwappedProblem);
    std::vector<int64_t> SwappedKey =
        SwappedProblem.serialize(IncludeBounds);
    if (SwappedKey < Key) {
      Key = std::move(SwappedKey);
      Swapped = true;
    }
  }
  return Key;
}
