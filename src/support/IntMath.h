//===- support/IntMath.h - Exact integer arithmetic helpers ----*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact integer helpers for both scalars of the arithmetic ladder
/// (int64_t for the fast path, Int128 for the widened retry): checked
/// arithmetic, the Checked<T> poison accumulator, floor/ceiling division
/// and gcd. Every decision procedure in the library must be exact, so
/// silent wraparound is never acceptable: callers either use the checked
/// helpers and handle overflow, or use the plain helpers whose
/// preconditions rule overflow out. The division helpers and gcd are
/// written once, as templates over the scalar; everything is inline
/// `__builtin_*_overflow` on the native values.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SUPPORT_INTMATH_H
#define EDDA_SUPPORT_INTMATH_H

#include "support/Int128.h"

#include <cassert>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>

namespace edda {

/// The two scalars of the arithmetic ladder.
template <typename T>
concept ExactScalar = std::same_as<T, int64_t> || std::same_as<T, Int128>;

/// Checked addition; std::nullopt on signed overflow.
inline std::optional<int64_t> checkedAdd(int64_t A, int64_t B) {
  int64_t R = 0;
  if (__builtin_add_overflow(A, B, &R))
    return std::nullopt;
  return R;
}

/// Checked subtraction; std::nullopt on signed overflow.
inline std::optional<int64_t> checkedSub(int64_t A, int64_t B) {
  int64_t R = 0;
  if (__builtin_sub_overflow(A, B, &R))
    return std::nullopt;
  return R;
}

/// Checked multiplication; std::nullopt on signed overflow.
inline std::optional<int64_t> checkedMul(int64_t A, int64_t B) {
  int64_t R = 0;
  if (__builtin_mul_overflow(A, B, &R))
    return std::nullopt;
  return R;
}

/// Checked negation; std::nullopt for INT64_MIN.
inline std::optional<int64_t> checkedNeg(int64_t A) {
  return checkedSub(0, A);
}

/// Two's-complement negation, for words that are data, not quantities:
/// the minimum maps to itself instead of overflowing.
inline int64_t wrappingNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}
inline Int128 wrappingNeg(Int128 A) { return -A; }

/// Floor division: largest Q with Q*B <= A.
/// \pre B != 0 and (A, B) != (min, -1) — the one quotient that
/// overflows. Callers reachable with arbitrary coefficients must use
/// checkedFloorDiv instead.
template <ExactScalar T> T floorDiv(T A, std::type_identity_t<T> B) {
  assert(B != T(0) && "floorDiv by zero");
  assert((B != T(-1) || checkedNeg(A)) &&
         "floorDiv(min, -1) overflows; use checkedFloorDiv");
  T Q = A / B;
  T R = A % B;
  // C++ truncates toward zero; adjust when the remainder has the opposite
  // sign of the divisor.
  if (R != T(0) && ((R < T(0)) != (B < T(0))))
    Q -= T(1);
  return Q;
}

/// Ceiling division: smallest Q with Q*B >= A.
/// \pre B != 0 and (A, B) != (min, -1); see floorDiv.
template <ExactScalar T> T ceilDiv(T A, std::type_identity_t<T> B) {
  assert(B != T(0) && "ceilDiv by zero");
  assert((B != T(-1) || checkedNeg(A)) &&
         "ceilDiv(min, -1) overflows; use checkedCeilDiv");
  T Q = A / B;
  T R = A % B;
  if (R != T(0) && ((R < T(0)) == (B < T(0))))
    Q += T(1);
  return Q;
}

/// Checked floor/ceiling division: std::nullopt exactly for the
/// (min, -1) overflow pair. \pre B != 0.
template <ExactScalar T>
std::optional<T> checkedFloorDiv(T A, std::type_identity_t<T> B) {
  assert(B != T(0) && "checkedFloorDiv by zero");
  if (B == T(-1))
    return checkedNeg(A);
  return floorDiv(A, B);
}

template <ExactScalar T>
std::optional<T> checkedCeilDiv(T A, std::type_identity_t<T> B) {
  assert(B != T(0) && "checkedCeilDiv by zero");
  if (B == T(-1))
    return checkedNeg(A);
  return ceilDiv(A, B);
}

/// gcd of magnitudes; gcd(0, 0) == 0. The single unrepresentable case,
/// gcd(min, min) == |min|, wraps to min; callers dividing by a gcd > 1
/// are unaffected.
template <ExactScalar T> T gcdOf(T A, std::type_identity_t<T> B) {
  while (B != T(0)) {
    // x % -1 is 0, and computing min % -1 would overflow.
    T R = B == T(-1) ? T(0) : A % B;
    A = B;
    B = R;
  }
  return A < T(0) ? wrappingNeg(A) : A;
}

inline int64_t gcd64(int64_t A, int64_t B) { return gcdOf(A, B); }

/// An accumulator for chains of checked operations. Once any step
/// overflows the accumulator becomes poisoned and stays poisoned, so a
/// whole dot product can be computed with a single validity check at the
/// end. One body serves both tiers through the checkedAdd/Sub/Mul
/// overload set.
template <ExactScalar T> class Checked {
public:
  Checked() : Value(0), Valid(true) {}
  /*implicit*/ Checked(T V) : Value(V), Valid(true) {}

  /// True when no operation in the chain has overflowed.
  bool valid() const { return Valid; }

  /// The accumulated value. \pre valid().
  T get() const {
    assert(Valid && "reading an overflowed Checked value");
    return Value;
  }

  /// The accumulated value, or std::nullopt after overflow.
  std::optional<T> getOpt() const {
    if (!Valid)
      return std::nullopt;
    return Value;
  }

  Checked &operator+=(const Checked &R) {
    return set(R, checkedAdd(Value, R.Value));
  }
  Checked &operator-=(const Checked &R) {
    return set(R, checkedSub(Value, R.Value));
  }
  Checked &operator*=(const Checked &R) {
    return set(R, checkedMul(Value, R.Value));
  }

  friend Checked operator+(Checked A, const Checked &B) { return A += B; }
  friend Checked operator-(Checked A, const Checked &B) { return A -= B; }
  friend Checked operator*(Checked A, const Checked &B) { return A *= B; }

private:
  Checked &set(const Checked &R, std::optional<T> Result) {
    Valid = Valid && R.Valid && Result;
    if (Result)
      Value = *Result;
    return *this;
  }

  T Value;
  bool Valid;
};

/// The 64-bit accumulator, by its historical name.
using CheckedInt = Checked<int64_t>;

} // namespace edda

#endif // EDDA_SUPPORT_INTMATH_H
