//===- support/WideInt.h - Two-tier widening arithmetic policy -*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue of the widening arithmetic ladder: the dependence-test
/// kernels are templated on a scalar type T (int64_t for the fast path,
/// Int128 for the widened retry) and written against the overload set
/// in IntMath.h — checkedAdd/Sub/Mul/Neg, gcdOf,
/// checkedFloorDiv/checkedCeilDiv, the Checked<T> poison accumulator —
/// plus toDecimalString. A kernel that poisons at 64 bits is re-run at
/// 128 bits by the pipeline; only a 128-bit poison makes a query
/// Unanalyzable.
///
/// Conversions: widening int64 -> Int128 is implicit and total;
/// narrowing is explicit and partial (narrowVec, below, fails when any
/// component exceeds the int64 range).
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SUPPORT_WIDEINT_H
#define EDDA_SUPPORT_WIDEINT_H

#include "support/IntMath.h"

#include <optional>
#include <vector>

namespace edda {

/// Widens a 64-bit vector; total.
inline std::vector<Int128> widenVec(const std::vector<int64_t> &V) {
  return std::vector<Int128>(V.begin(), V.end());
}

/// Narrows a 128-bit vector; fails when any component is out of the
/// int64 range.
inline std::optional<std::vector<int64_t>>
narrowVec(const std::vector<Int128> &V) {
  std::vector<int64_t> Out;
  Out.reserve(V.size());
  for (Int128 X : V) {
    if (!X.fitsInt64())
      return std::nullopt;
    Out.push_back(X.toInt64());
  }
  return Out;
}

} // namespace edda

#endif // EDDA_SUPPORT_WIDEINT_H
