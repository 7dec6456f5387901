//===- support/Hashing.cpp - Hash utilities ------------------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"

using namespace edda;

namespace {

/// splitmix64 finalizer of an incoming value (offset included).
uint64_t mixValue(uint64_t Value) {
  uint64_t V = Value + 0x9e3779b97f4a7c15ULL;
  V = (V ^ (V >> 30)) * 0xbf58476d1ce4e5b9ULL;
  V = (V ^ (V >> 27)) * 0x94d049bb133111ebULL;
  return V ^ (V >> 31);
}

/// Folds a mixed value into the running hash.
uint64_t fold(uint64_t Seed, uint64_t Mixed) {
  return Seed ^ (Mixed + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

uint64_t seedFor(size_t Size) {
  return 0x811c9dc5u ^ (Size * 0x100000001b3ULL);
}

} // namespace

uint64_t edda::hashCombine(uint64_t Seed, uint64_t Value) {
  // splitmix64 finalizer applied to the incoming value, folded into the
  // seed with the boost::hash_combine recipe widened to 64 bits.
  return fold(Seed, mixValue(Value));
}

uint64_t edda::hashVector(const std::vector<int64_t> &Values) {
  return hashWords(Values);
}

uint64_t edda::paperHash(const std::vector<int64_t> &Values) {
  uint64_t H = Values.size();
  uint64_t Pow = 1;
  for (int64_t V : Values) {
    H += Pow * static_cast<uint64_t>(V);
    Pow <<= 1; // 2^i, wrapping mod 2^64 after 64 elements.
  }
  return H;
}

uint64_t edda::hashWords(std::span<const int64_t> Values) {
  uint64_t H = seedFor(Values.size());
  for (int64_t V : Values)
    H = fold(H, mixValue(static_cast<uint64_t>(V)));
  return H;
}

std::pair<uint64_t, uint64_t>
edda::hashWordsAndPrefix(std::span<const int64_t> Values, size_t PrefixLen) {
  uint64_t Full = seedFor(Values.size()), Prefix = seedFor(PrefixLen);
  size_t I = 0;
  for (; I < PrefixLen && I < Values.size(); ++I) {
    uint64_t Mixed = mixValue(static_cast<uint64_t>(Values[I]));
    Full = fold(Full, Mixed);
    Prefix = fold(Prefix, Mixed);
  }
  for (; I < Values.size(); ++I)
    Full = fold(Full, mixValue(static_cast<uint64_t>(Values[I])));
  return {Full, Prefix};
}
