//===- tests/support/HashingTest.cpp - Hashing unit tests -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"

#include "gtest/gtest.h"

#include <set>

using namespace edda;

TEST(PaperHash, MatchesFormula) {
  // h(x) = size(x) + sum 2^i * x_i.
  EXPECT_EQ(paperHash({}), 0u);
  EXPECT_EQ(paperHash({5}), 1u + 5u);
  EXPECT_EQ(paperHash({5, 3}), 2u + 5u + 2u * 3u);
  EXPECT_EQ(paperHash({1, 1, 1}), 3u + 1u + 2u + 4u);
}

TEST(PaperHash, SymmetryBroken) {
  // The authors chose the 2^i weights so that symmetric references do
  // not collide.
  EXPECT_NE(paperHash({1, 2}), paperHash({2, 1}));
  EXPECT_NE(paperHash({0, 1, 0}), paperHash({0, 0, 1}));
}

TEST(PaperHash, NegativeValuesWrap) {
  // Wraps mod 2^64 but stays deterministic.
  EXPECT_EQ(paperHash({-1}), paperHash({-1}));
  EXPECT_NE(paperHash({-1}), paperHash({1}));
}

TEST(HashVector, DistinguishesSizeAndContent) {
  EXPECT_NE(hashVector({}), hashVector({0}));
  EXPECT_NE(hashVector({0}), hashVector({0, 0}));
  EXPECT_NE(hashVector({1, 2}), hashVector({2, 1}));
}

TEST(HashVector, Deterministic) {
  EXPECT_EQ(hashVector({7, -3, 42}), hashVector({7, -3, 42}));
}

TEST(HashVector, NoCollisionsOnSmallDenseSet) {
  // The mixing hash should be collision-free over a few thousand small
  // distinct keys (the paper hash is not, by design of this test).
  std::set<uint64_t> Seen;
  unsigned Collisions = 0;
  for (int64_t A = 0; A < 50; ++A)
    for (int64_t B = 0; B < 50; ++B)
      if (!Seen.insert(hashVector({A, B})).second)
        ++Collisions;
  EXPECT_EQ(Collisions, 0u);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hashCombine(hashCombine(0, 1), 2),
            hashCombine(hashCombine(0, 2), 1));
}

// The one-pass pair equals the two hashes taken separately, for every
// prefix length from empty to the whole span.
TEST(HashWords, PrefixPairMatchesSeparateHashes) {
  std::vector<int64_t> Words;
  for (int64_t I = 0; I < 70; ++I)
    Words.push_back(I * I * 7919 - 31 * I);
  for (size_t Len = 0; Len <= Words.size(); Len += 3) {
    std::span<const int64_t> All(Words.data(), Len);
    for (size_t Prefix = 0; Prefix <= Len; ++Prefix) {
      std::vector<int64_t> Head(Words.begin(), Words.begin() + Prefix);
      std::vector<int64_t> Whole(Words.begin(), Words.begin() + Len);
      EXPECT_EQ(hashWordsAndPrefix(All, Prefix),
                std::make_pair(hashVector(Whole), hashVector(Head)));
    }
  }
}
