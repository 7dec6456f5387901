//===- support/Int128.h - 128-bit integers ---------------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A signed 128-bit integer for the widening tier of the exact
/// arithmetic ladder (see docs/ALGORITHMS.md): when a 64-bit checked
/// computation poisons, the dependence tests retry at this precision
/// before giving a query up as Unanalyzable.
///
/// Int128 wraps the compiler's native `__int128` (GCC or Clang on a
/// 64-bit target). The wrapper exists to pin the semantics the kernels
/// rely on: widening from int64_t is implicit, narrowing is explicit,
/// the plain operators wrap in two's complement instead of invoking
/// undefined behaviour, and the checked_* overloads mirror the 64-bit
/// ones in IntMath.h so templated kernels can call checkedAdd(A, B) for
/// either scalar. Division and remainder truncate toward zero, like
/// int64_t.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SUPPORT_INT128_H
#define EDDA_SUPPORT_INT128_H

#ifndef __SIZEOF_INT128__
#error "edda needs native __int128 (GCC or Clang on a 64-bit target)"
#endif

#include <cassert>
#include <compare>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>

namespace edda {

/// Signed 128-bit integer, two's complement.
class Int128 {
  using U = unsigned __int128;

public:
  constexpr Int128() = default;
  /*implicit*/ constexpr Int128(int64_t V) : V(V) {}
  /// Explicit conversion from the native type (constrained so that an
  /// int argument still picks the int64_t constructor).
  template <std::same_as<__int128> N>
  constexpr explicit Int128(N V) : V(V) {}
  constexpr explicit operator __int128() const { return V; }

  static constexpr Int128 min() { return wrap(U(1) << 127); }
  static constexpr Int128 max() { return wrap(~(U(1) << 127)); }

  bool isNegative() const { return V < 0; }
  bool isZero() const { return V == 0; }

  /// True when the value is representable as int64_t.
  bool fitsInt64() const { return V >= INT64_MIN && V <= INT64_MAX; }

  /// Narrowing. \pre fitsInt64().
  int64_t toInt64() const {
    assert(fitsInt64() && "narrowing an out-of-range Int128");
    return static_cast<int64_t>(V);
  }

  /// Narrowing without the precondition: nullopt when out of range.
  std::optional<int64_t> tryInt64() const {
    if (!fitsInt64())
      return std::nullopt;
    return static_cast<int64_t>(V);
  }

  // The plain operators wrap; -min() is min(), exactly like the
  // hardware int64 case.
  Int128 operator-() const { return wrap(-U(V)); }
  Int128 operator+(Int128 R) const { return wrap(U(V) + U(R.V)); }
  Int128 operator-(Int128 R) const { return wrap(U(V) - U(R.V)); }
  Int128 operator*(Int128 R) const { return wrap(U(V) * U(R.V)); }
  /// Truncates toward zero. \pre R != 0; min() / -1 wraps to min().
  Int128 operator/(Int128 R) const {
    assert(R.V != 0 && "Int128 division by zero");
    return R.V == -1 ? -*this : Int128(V / R.V);
  }
  Int128 operator%(Int128 R) const {
    assert(R.V != 0 && "Int128 remainder by zero");
    return R.V == -1 ? Int128(0) : Int128(V % R.V);
  }

  Int128 &operator+=(Int128 R) { return *this = *this + R; }
  Int128 &operator-=(Int128 R) { return *this = *this - R; }
  Int128 &operator*=(Int128 R) { return *this = *this * R; }
  Int128 &operator/=(Int128 R) { return *this = *this / R; }

  friend bool operator==(const Int128 &, const Int128 &) = default;
  friend std::strong_ordering operator<=>(const Int128 &,
                                          const Int128 &) = default;

  /// Decimal rendering.
  std::string str() const {
    U Mag = V < 0 ? -U(V) : U(V);
    std::string Digits;
    do {
      Digits.insert(Digits.begin(), static_cast<char>('0' + Mag % 10));
      Mag /= 10;
    } while (Mag != 0);
    return V < 0 ? "-" + Digits : Digits;
  }

private:
  /// Two's-complement reinterpretation (modular since C++20).
  static constexpr Int128 wrap(U X) { return Int128(__int128(X)); }

  __int128 V = 0;
};

/// Checked arithmetic, mirroring the int64_t overloads in IntMath.h so
/// kernels templated on the scalar type pick the right one by overload
/// resolution.
inline std::optional<Int128> checkedAdd(Int128 A, Int128 B) {
  __int128 R = 0;
  if (__builtin_add_overflow(__int128(A), __int128(B), &R))
    return std::nullopt;
  return Int128(R);
}

inline std::optional<Int128> checkedSub(Int128 A, Int128 B) {
  __int128 R = 0;
  if (__builtin_sub_overflow(__int128(A), __int128(B), &R))
    return std::nullopt;
  return Int128(R);
}

inline std::optional<Int128> checkedMul(Int128 A, Int128 B) {
  __int128 R = 0;
  if (__builtin_mul_overflow(__int128(A), __int128(B), &R))
    return std::nullopt;
  return Int128(R);
}

inline std::optional<Int128> checkedNeg(Int128 A) {
  return checkedSub(Int128(0), A);
}

/// Decimal rendering overloads so templated code can stringify either
/// scalar.
inline std::string toDecimalString(int64_t V) { return std::to_string(V); }
inline std::string toDecimalString(Int128 V) { return V.str(); }

} // namespace edda

#endif // EDDA_SUPPORT_INT128_H
