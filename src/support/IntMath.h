//===- support/IntMath.h - Exact integer arithmetic helpers ----*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact 64-bit integer helpers used throughout the dependence tests: gcd
/// and extended gcd, floor/ceiling division, and overflow-checked
/// arithmetic. Every decision procedure in the library must be exact, so
/// silent wraparound is never acceptable: callers either use the checked_*
/// functions and handle overflow, or use the plain helpers whose
/// preconditions rule overflow out.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SUPPORT_INTMATH_H
#define EDDA_SUPPORT_INTMATH_H

#include <cassert>
#include <cstdint>
#include <optional>

namespace edda {

/// Greatest common divisor of |A| and |B|; gcd(0, 0) == 0.
int64_t gcd64(int64_t A, int64_t B);

/// Least common multiple of |A| and |B|; lcm(0, N) == lcm(N, 0) == 0,
/// so std::nullopt means overflow and nothing else (callers clearing
/// fractions over a constraint row must not conflate a zero coefficient
/// with arithmetic giving up).
std::optional<int64_t> lcm64(int64_t A, int64_t B);

/// Result of the extended Euclidean algorithm: Gcd == X*A + Y*B.
struct ExtGcdResult {
  int64_t Gcd;
  int64_t X;
  int64_t Y;
};

/// Extended gcd: finds G = gcd(|A|, |B|) and Bezout coefficients X, Y with
/// X*A + Y*B == G. extGcd64(0, 0) returns {0, 0, 0}.
ExtGcdResult extGcd64(int64_t A, int64_t B);

/// Floor division: largest Q with Q*B <= A.
/// \pre B != 0 and (A, B) != (INT64_MIN, -1) — the one quotient that
/// overflows. Callers reachable with arbitrary coefficients must use
/// checkedFloorDiv instead.
int64_t floorDiv(int64_t A, int64_t B);

/// Ceiling division: smallest Q with Q*B >= A.
/// \pre B != 0 and (A, B) != (INT64_MIN, -1); see floorDiv.
int64_t ceilDiv(int64_t A, int64_t B);

/// Checked floor/ceiling division: std::nullopt exactly for the
/// (INT64_MIN, -1) overflow pair. \pre B != 0.
std::optional<int64_t> checkedFloorDiv(int64_t A, int64_t B);
std::optional<int64_t> checkedCeilDiv(int64_t A, int64_t B);

/// Checked addition; std::nullopt on signed overflow.
std::optional<int64_t> checkedAdd(int64_t A, int64_t B);

/// Checked subtraction; std::nullopt on signed overflow.
std::optional<int64_t> checkedSub(int64_t A, int64_t B);

/// Checked multiplication; std::nullopt on signed overflow.
std::optional<int64_t> checkedMul(int64_t A, int64_t B);

/// Checked negation; std::nullopt for INT64_MIN.
std::optional<int64_t> checkedNeg(int64_t A);

/// Two's-complement negation, for words that are data, not quantities:
/// INT64_MIN maps to itself instead of overflowing.
inline int64_t wrappingNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// An accumulator for chains of checked operations. Once any step
/// overflows the accumulator becomes poisoned and stays poisoned, so a
/// whole dot product can be computed with a single validity check at the
/// end.
class CheckedInt {
public:
  CheckedInt() : Value(0), Valid(true) {}
  /*implicit*/ CheckedInt(int64_t V) : Value(V), Valid(true) {}

  /// True when no operation in the chain has overflowed.
  bool valid() const { return Valid; }

  /// The accumulated value. \pre valid().
  int64_t get() const {
    assert(Valid && "reading an overflowed CheckedInt");
    return Value;
  }

  /// The accumulated value, or std::nullopt after overflow.
  std::optional<int64_t> getOpt() const {
    if (!Valid)
      return std::nullopt;
    return Value;
  }

  CheckedInt &operator+=(CheckedInt RHS);
  CheckedInt &operator-=(CheckedInt RHS);
  CheckedInt &operator*=(CheckedInt RHS);

  friend CheckedInt operator+(CheckedInt A, CheckedInt B) { return A += B; }
  friend CheckedInt operator-(CheckedInt A, CheckedInt B) { return A -= B; }
  friend CheckedInt operator*(CheckedInt A, CheckedInt B) { return A *= B; }

private:
  int64_t Value;
  bool Valid;
};

} // namespace edda

#endif // EDDA_SUPPORT_INTMATH_H
