//===- support/Boxed.h - An optional value held out of line ----*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boxed<T>: an optional T that costs one pointer while empty. Records
/// kept by the thousand whose large member is usually absent (a
/// dependence pair's direction vectors) hold it boxed, so the record
/// stays a few cache lines smaller and value-initializing it writes no
/// T. It reads like std::optional<T> — test it, dereference it, assign
/// a T or an optional T to it — and copies deeply.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SUPPORT_BOXED_H
#define EDDA_SUPPORT_BOXED_H

#include <memory>
#include <optional>
#include <utility>

namespace edda {

template <typename T> class Boxed {
public:
  Boxed() = default;
  Boxed(const Boxed &Other)
      : Value(Other.Value ? std::make_unique<T>(*Other.Value) : nullptr) {}
  Boxed(Boxed &&) noexcept = default;
  Boxed &operator=(const Boxed &Other) {
    if (this != &Other)
      Value = Other.Value ? std::make_unique<T>(*Other.Value) : nullptr;
    return *this;
  }
  Boxed &operator=(Boxed &&) noexcept = default;

  Boxed &operator=(T V) {
    if (Value)
      *Value = std::move(V);
    else
      Value = std::make_unique<T>(std::move(V));
    return *this;
  }
  Boxed &operator=(std::optional<T> V) {
    if (V)
      return *this = std::move(*V);
    Value.reset();
    return *this;
  }

  bool has_value() const { return Value != nullptr; }
  explicit operator bool() const { return has_value(); }
  /// The value, or null when empty.
  const T *get() const { return Value.get(); }

  T &operator*() { return *Value; }
  const T &operator*() const { return *Value; }
  T *operator->() { return Value.get(); }
  const T *operator->() const { return Value.get(); }

private:
  std::unique_ptr<T> Value;
};

} // namespace edda

#endif // EDDA_SUPPORT_BOXED_H
