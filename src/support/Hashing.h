//===- support/Hashing.h - Hash utilities ----------------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hashing for the memoization tables (paper section 5). The tables hash
/// their keys with a splitmix-based mixer. The paper's literal hash,
///     h(x) = size(x) + sum_i 2^i * x_i            (mod 2^64),
/// chosen by the authors so that symmetrical or partially symmetrical
/// references do not collide, is kept for the Table 2 bench, which
/// compares the two hashes' collision behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SUPPORT_HASHING_H
#define EDDA_SUPPORT_HASHING_H

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace edda {

/// FNV-1a over a name's bytes, the id-independent identity of a symbol:
/// the lexer computes it while scanning an identifier, the symbol table
/// keys on it and fingerprints mix it in. The seed is not FNV's standard
/// offset basis; fingerprints have always used this one, so it stays.
constexpr uint64_t NameHashSeed = 1469598103934665603ull;

/// Folds one more byte into a running name hash.
constexpr uint64_t extendNameHash(uint64_t H, unsigned char C) {
  return (H ^ C) * 1099511628211ull;
}

constexpr uint64_t hashName(std::string_view Name) {
  uint64_t H = NameHashSeed;
  for (char C : Name)
    H = extendNameHash(H, static_cast<unsigned char>(C));
  return H;
}

/// Combine \p Value into the running hash \p Seed (boost-style mixer).
uint64_t hashCombine(uint64_t Seed, uint64_t Value);

/// Mixing hash of an integer vector (default for the memo tables).
uint64_t hashVector(const std::vector<int64_t> &Values);

/// The paper's hash: size(x) + sum_i 2^i * x_i, with 2^i wrapping mod
/// 2^64. Kept for the Table 2 reproduction.
uint64_t paperHash(const std::vector<int64_t> &Values);

/// The mixing hash over a word span.
uint64_t hashWords(std::span<const int64_t> Values);

/// The mixing hash of \p Values and of its first \p PrefixLen words, in
/// one pass: {hash of Values, hash of the prefix}. A memo key hashes its
/// without-bounds prefix this way.
std::pair<uint64_t, uint64_t>
hashWordsAndPrefix(std::span<const int64_t> Values, size_t PrefixLen);

} // namespace edda

#endif // EDDA_SUPPORT_HASHING_H
