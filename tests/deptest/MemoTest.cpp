//===- tests/deptest/MemoTest.cpp - Memoization tests ---------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Memo.h"

#include "analysis/Builder.h"
#include "fuzz/ProblemGen.h"
#include "opt/Pipeline.h"
#include "parser/Parser.h"
#include "support/Hashing.h"
#include "testutil/Helpers.h"
#include "testutil/ReferenceKey.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <thread>
#include <vector>

using namespace edda;
using namespace edda::testutil;

namespace {

DependenceProblem simpleProblem(int64_t Delta, int64_t Hi = 10) {
  return ProblemBuilder(1, 1, 1)
      .eq({1, -1}, Delta)
      .bounds(0, 1, Hi)
      .bounds(1, 1, Hi)
      .build();
}

/// The paper's section 5 motivating pair: the same inner dependence
/// under an unused outer loop whose bound differs.
DependenceProblem wrappedProblem(int64_t OuterHi) {
  return ProblemBuilder(2, 2, 2)
      .eq({0, 1, 0, -1}, -5)
      .bounds(0, 1, OuterHi)
      .bounds(1, 1, 10)
      .bounds(2, 1, OuterHi)
      .bounds(3, 1, 10)
      .build();
}

} // namespace

TEST(Memo, FullTableHitAndMiss) {
  DependenceCache Cache;
  DependenceProblem P = simpleProblem(3);
  EXPECT_FALSE(Cache.lookupFull(P).has_value());
  CascadeResult R = testDependence(P);
  Cache.insertFull(P, R);
  std::optional<CascadeResult> Hit = Cache.lookupFull(P);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Answer, R.Answer);
  EXPECT_EQ(Hit->DecidedBy, R.DecidedBy);
  EXPECT_EQ(Cache.fullQueries(), 2u);
  EXPECT_EQ(Cache.fullHits(), 1u);
  EXPECT_EQ(Cache.uniqueFull(), 1u);
}

TEST(Memo, DifferentProblemsMiss) {
  DependenceCache Cache;
  Cache.insertFull(simpleProblem(3), testDependence(simpleProblem(3)));
  EXPECT_FALSE(Cache.lookupFull(simpleProblem(4)).has_value());
  EXPECT_FALSE(Cache.lookupFull(simpleProblem(3, 20)).has_value());
}

TEST(Memo, GcdTableIgnoresBounds) {
  DependenceCache Cache;
  Cache.insertGcdSolvable(simpleProblem(3, 10), true);
  // Same equations, different bounds: still a hit.
  std::optional<bool> Hit = Cache.lookupGcdSolvable(simpleProblem(3, 99));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(*Hit);
}

TEST(Memo, ImprovedKeyMergesUnusedLoops) {
  MemoOptions Improved;
  Improved.ImprovedKey = true;
  DependenceCache Cache(Improved);
  Cache.insertFull(wrappedProblem(10),
                   testDependence(wrappedProblem(10)));
  // Different unused-loop bound: merged by the improved scheme.
  EXPECT_TRUE(Cache.lookupFull(wrappedProblem(50)).has_value());

  MemoOptions Simple;
  Simple.ImprovedKey = false;
  DependenceCache SimpleCache(Simple);
  SimpleCache.insertFull(wrappedProblem(10),
                         testDependence(wrappedProblem(10)));
  EXPECT_FALSE(SimpleCache.lookupFull(wrappedProblem(50)).has_value());
}

TEST(Memo, SymmetricKeyMergesSwappedPairs) {
  MemoOptions Opts;
  Opts.SymmetricKey = true;
  DependenceCache Cache(Opts);
  DependenceProblem P = simpleProblem(3);
  Cache.insertFull(P, testDependence(P));
  // a[i] vs a[i-3] is the same question as a[i-3] vs a[i].
  EXPECT_TRUE(Cache.lookupFull(P.swapped()).has_value());

  MemoOptions NoSym;
  DependenceCache Plain(NoSym);
  Plain.insertFull(P, testDependence(P));
  // The asymmetric layout of the swapped problem still collides here
  // because nA == nB and the improved key is identical; use distinct
  // nest depths to tell them apart.
  DependenceProblem Deep = ProblemBuilder(2, 1, 1)
                               .eq({1, 0, -1}, 3)
                               .bounds(0, 1, 10)
                               .bounds(1, 1, 5)
                               .bounds(2, 1, 10)
                               .build();
  Plain.insertFull(Deep, testDependence(Deep));
  EXPECT_FALSE(Plain.lookupFull(Deep.swapped()).has_value());
  DependenceCache Sym(Opts);
  Sym.insertFull(Deep, testDependence(Deep));
  EXPECT_TRUE(Sym.lookupFull(Deep.swapped()).has_value());
}

TEST(Memo, SymmetricDirectionsReversed) {
  MemoOptions Opts;
  Opts.SymmetricKey = true;
  Opts.ImprovedKey = false;
  DependenceCache Cache(Opts);
  // Asymmetric problem so the swapped key differs: a[i+1] vs a[i] in
  // nests of different depth.
  DependenceProblem P = ProblemBuilder(2, 1, 1)
                            .eq({1, 0, -1}, 1)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 5)
                            .bounds(2, 1, 10)
                            .build();
  DirectionResult Dirs = computeDirectionVectors(P);
  Cache.insertDirections(P, Dirs);
  std::optional<DirectionResult> Swapped =
      Cache.lookupDirections(P.swapped());
  ASSERT_TRUE(Swapped.has_value());
  ASSERT_EQ(Swapped->Vectors.size(), Dirs.Vectors.size());
  // '<' components flip to '>' and distances negate.
  for (unsigned V = 0; V < Dirs.Vectors.size(); ++V) {
    for (unsigned K = 0; K < Dirs.Vectors[V].size(); ++K) {
      Dir D = Dirs.Vectors[V][K];
      Dir E = Swapped->Vectors[V][K];
      if (D == Dir::Less)
        EXPECT_EQ(E, Dir::Greater);
      else if (D == Dir::Greater)
        EXPECT_EQ(E, Dir::Less);
      else
        EXPECT_EQ(E, D);
    }
  }
  for (unsigned K = 0; K < Dirs.Distances.size(); ++K)
    if (Dirs.Distances[K])
      EXPECT_EQ(*Swapped->Distances[K], -*Dirs.Distances[K]);
}

TEST(Memo, DirectionsRoundTripThroughImprovedKey) {
  DependenceCache Cache; // improved by default
  DependenceProblem P = wrappedProblem(10);
  DirectionResult Dirs = computeDirectionVectors(P);
  Cache.insertDirections(P, Dirs);
  std::optional<DirectionResult> Hit = Cache.lookupDirections(P);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Vectors.size(), Dirs.Vectors.size());
  ASSERT_FALSE(Hit->Vectors.empty());
  // The unused outer loop reads back as '*'.
  EXPECT_EQ(Hit->Vectors[0][0], Dir::Any);
  // The wrapped sibling with a different outer bound also hits.
  std::optional<DirectionResult> Sibling =
      Cache.lookupDirections(wrappedProblem(77));
  ASSERT_TRUE(Sibling.has_value());
  EXPECT_EQ(Sibling->Vectors.size(), Dirs.Vectors.size());
}

TEST(Memo, ReverseDirectionsHelper) {
  DirectionResult R;
  R.Vectors = {{Dir::Less, Dir::Equal}, {Dir::Greater, Dir::Any}};
  R.Distances = {std::optional<int64_t>(3), std::nullopt};
  DirectionResult Rev = reverseDirections(R);
  EXPECT_EQ(Rev.Vectors[0], (DirVector{Dir::Greater, Dir::Equal}));
  EXPECT_EQ(Rev.Vectors[1], (DirVector{Dir::Less, Dir::Any}));
  EXPECT_EQ(*Rev.Distances[0], -3);
  EXPECT_FALSE(Rev.Distances[1].has_value());
}

TEST(Memo, SwapWitnessLayout) {
  std::vector<int64_t> X = {1, 2, 3, 4, 5}; // A = {1,2}, B = {3}, sym {4,5}
  std::vector<int64_t> Swapped = swapWitness(X, 2, 1);
  EXPECT_EQ(Swapped, (std::vector<int64_t>{3, 1, 2, 4, 5}));
}

TEST(Memo, EquationOrderCanonicalization) {
  // a[i][j] vs a[i+1][j+2] and the dimension-swapped a[j][i] vs
  // a[j+2][i+1] pose the same equations in a different order; the
  // paper's "taken farther" extension merges them.
  DependenceProblem P1 = ProblemBuilder(2, 2, 2)
                             .eq({1, 0, -1, 0}, 1)
                             .eq({0, 1, 0, -1}, 2)
                             .bounds(0, 1, 10)
                             .bounds(1, 1, 10)
                             .bounds(2, 1, 10)
                             .bounds(3, 1, 10)
                             .build();
  DependenceProblem P2 = P1;
  std::swap(P2.Equations[0], P2.Equations[1]);

  DependenceCache Plain;
  Plain.insertFull(P1, testDependence(P1));
  EXPECT_FALSE(Plain.lookupFull(P2).has_value());

  MemoOptions Opts;
  Opts.CanonicalizeEquations = true;
  DependenceCache Canonical(Opts);
  Canonical.insertFull(P1, testDependence(P1));
  std::optional<CascadeResult> Hit = Canonical.lookupFull(P2);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Answer, testDependence(P2).Answer);
}

TEST(Memo, CanonicalizationPropertyOnRandomPermutations) {
  // Shuffling a problem's equations never changes the canonical key or
  // the cached answer.
  MemoOptions Opts;
  Opts.CanonicalizeEquations = true;
  SplitRng Rng(777);
  for (unsigned Iter = 0; Iter < 60; ++Iter) {
    DependenceProblem P = randomProblem(Rng);
    if (P.Equations.size() < 2)
      continue;
    DependenceCache Cache(Opts);
    CascadeResult Fresh = testDependence(P);
    Cache.insertFull(P, Fresh);
    DependenceProblem Shuffled = P;
    // Rotate the equations (a nontrivial permutation).
    std::rotate(Shuffled.Equations.begin(),
                Shuffled.Equations.begin() + 1,
                Shuffled.Equations.end());
    std::optional<CascadeResult> Hit = Cache.lookupFull(Shuffled);
    ASSERT_TRUE(Hit.has_value()) << P.str();
    EXPECT_EQ(Hit->Answer, Fresh.Answer);
    // And the permuted problem genuinely has that answer.
    EXPECT_EQ(testDependence(Shuffled).Answer, Fresh.Answer);
  }
}

TEST(Memo, CanonicalizationComposesWithSymmetry) {
  MemoOptions Opts;
  Opts.CanonicalizeEquations = true;
  Opts.SymmetricKey = true;
  DependenceCache Cache(Opts);
  DependenceProblem P = ProblemBuilder(2, 1, 1)
                            .eq({1, 0, -1}, 3)
                            .eq({0, 1, 0}, -2)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 5)
                            .bounds(2, 1, 10)
                            .build();
  Cache.insertFull(P, testDependence(P));
  DependenceProblem Swapped = P.swapped();
  std::swap(Swapped.Equations[0], Swapped.Equations[1]);
  EXPECT_TRUE(Cache.lookupFull(Swapped).has_value());
}

TEST(Memo, PaperLiteralHashStillCorrect) {
  MemoOptions Opts;
  Opts.Hash = MemoHashKind::PaperLiteral;
  DependenceCache Cache(Opts);
  for (int64_t D = 0; D < 50; ++D)
    Cache.insertFull(simpleProblem(D), testDependence(simpleProblem(D)));
  EXPECT_EQ(Cache.uniqueFull(), 50u);
  for (int64_t D = 0; D < 50; ++D)
    EXPECT_TRUE(Cache.lookupFull(simpleProblem(D)).has_value());
}

TEST(Memo, PersistenceRoundTrip) {
  std::string Path = ::testing::TempDir() + "/edda_cache_test.txt";
  {
    DependenceCache Cache;
    Cache.insertFull(simpleProblem(3), testDependence(simpleProblem(3)));
    Cache.insertFull(simpleProblem(99),
                     testDependence(simpleProblem(99)));
    Cache.insertGcdSolvable(simpleProblem(4), true);
    Cache.insertDirections(simpleProblem(1),
                           computeDirectionVectors(simpleProblem(1)));
    ASSERT_TRUE(Cache.saveToFile(Path));
  }
  DependenceCache Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(Path));
  EXPECT_EQ(Loaded.uniqueFull(), 2u);
  std::optional<CascadeResult> Hit = Loaded.lookupFull(simpleProblem(3));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Answer, DepAnswer::Dependent);
  std::optional<DirectionResult> Dirs =
      Loaded.lookupDirections(simpleProblem(1));
  ASSERT_TRUE(Dirs.has_value());
  ASSERT_EQ(Dirs->Vectors.size(), 1u);
  EXPECT_EQ(Dirs->Vectors[0], (DirVector{Dir::Less}));
  // Distances survive persistence too.
  ASSERT_EQ(Dirs->Distances.size(), 1u);
  ASSERT_TRUE(Dirs->Distances[0].has_value());
  EXPECT_EQ(*Dirs->Distances[0], 1);
  std::remove(Path.c_str());
}

TEST(Memo, DirectionsRoundTripWidenedBits) {
  // 3i - 7i' + 1 = 0 over near-full int64 ranges widens every query;
  // the v5 format must persist both direction widening bits, not
  // default them to false on reload.
  DependenceProblem Wide = ProblemBuilder(1, 1, 1)
                               .eq({3, -7}, 1)
                               .bounds(0, INT64_MIN + 2, INT64_MAX - 2)
                               .bounds(1, INT64_MIN + 2, INT64_MAX - 2)
                               .build();
  DependenceProblem Narrow = simpleProblem(1);
  DirectionResult WideDirs = computeDirectionVectors(Wide);
  ASSERT_TRUE(WideDirs.Widened);
  ASSERT_TRUE(WideDirs.RootWidened);
  DependenceCache Before;
  Before.insertDirections(Wide, WideDirs);
  Before.insertDirections(Narrow, computeDirectionVectors(Narrow));

  std::string Path = ::testing::TempDir() + "/edda_cache_widen_dirs.txt";
  ASSERT_TRUE(Before.saveToFile(Path));
  DependenceCache After;
  ASSERT_TRUE(After.loadFromFile(Path));
  std::remove(Path.c_str());

  std::optional<DirectionResult> W = After.lookupDirections(Wide);
  ASSERT_TRUE(W.has_value());
  EXPECT_TRUE(W->Widened);
  EXPECT_TRUE(W->RootWidened);
  EXPECT_EQ(W->Exact, WideDirs.Exact);
  std::optional<DirectionResult> N = After.lookupDirections(Narrow);
  ASSERT_TRUE(N.has_value());
  EXPECT_FALSE(N->Widened);
  EXPECT_FALSE(N->RootWidened);
}

TEST(Memo, LoadRejectsGarbage) {
  std::string Path = ::testing::TempDir() + "/edda_cache_garbage.txt";
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("not a cache file\n", F);
    std::fclose(F);
  }
  DependenceCache Cache;
  EXPECT_FALSE(Cache.loadFromFile(Path));
  EXPECT_FALSE(Cache.loadFromFile(Path + ".does-not-exist"));
  std::remove(Path.c_str());
}

TEST(Memo, ClearResets) {
  DependenceCache Cache;
  Cache.insertFull(simpleProblem(3), testDependence(simpleProblem(3)));
  Cache.clear();
  EXPECT_EQ(Cache.uniqueFull(), 0u);
  EXPECT_FALSE(Cache.lookupFull(simpleProblem(3)).has_value());
}

TEST(Memo, EvictOldestKeepsRecentlyUsed) {
  MemoOptions Opts;
  Opts.TrackRecency = true;
  DependenceCache Cache(Opts);
  for (int64_t Delta = 0; Delta < 8; ++Delta)
    Cache.insertFull(simpleProblem(Delta),
                     testDependence(simpleProblem(Delta)));
  // Touch two entries so they are the most recently used.
  ASSERT_TRUE(Cache.lookupFull(simpleProblem(1)).has_value());
  ASSERT_TRUE(Cache.lookupFull(simpleProblem(6)).has_value());

  EXPECT_EQ(Cache.evictOldest(2), 6u);
  EXPECT_EQ(Cache.uniqueFull(), 2u);
  EXPECT_TRUE(Cache.lookupFull(simpleProblem(1)).has_value());
  EXPECT_TRUE(Cache.lookupFull(simpleProblem(6)).has_value());
  EXPECT_FALSE(Cache.lookupFull(simpleProblem(0)).has_value());
}

TEST(Memo, CheckpointWhileInsertersRace) {
  // The serving checkpoint path: saveToFile() runs while analyzer
  // threads are still inserting. Every snapshot must load cleanly,
  // and a reloaded store must answer exactly like recomputation —
  // the warm-restart "reanalyze bit-identical" guarantee.
  std::string Path = ::testing::TempDir() + "/edda_cache_race.txt";
  MemoOptions Opts;
  Opts.TrackRecency = true; // The serving configuration.
  DependenceCache Cache(Opts);

  constexpr int64_t PerThread = 40;
  constexpr unsigned Writers = 4;
  std::atomic<unsigned> DoneWriters{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Writers; ++T)
    Threads.emplace_back([&, T] {
      for (int64_t I = 0; I < PerThread; ++I) {
        // Overlapping ranges across threads race on identical keys;
        // first-insert-wins must keep the stored answer identical to
        // recomputation either way.
        int64_t Delta = (T * PerThread) / 2 + I;
        DependenceProblem P = simpleProblem(Delta);
        Cache.insertFull(P, testDependence(P));
        Cache.insertDirections(P, computeDirectionVectors(P));
      }
      DoneWriters.fetch_add(1);
    });
  // Checkpoint continuously until every writer has finished, then
  // once more so the final file holds the complete store.
  unsigned Snapshots = 0;
  do {
    ASSERT_TRUE(Cache.saveToFile(Path));
    ++Snapshots;
  } while (DoneWriters.load() < Writers);
  for (std::thread &T : Threads)
    T.join();
  ASSERT_TRUE(Cache.saveToFile(Path));
  EXPECT_GE(Snapshots, 1u);

  DependenceCache Loaded(Opts);
  ASSERT_TRUE(Loaded.loadFromFile(Path));
  EXPECT_EQ(Loaded.uniqueFull(), Cache.uniqueFull());
  const int64_t MaxDelta = (Writers - 1) * PerThread / 2 + PerThread;
  for (int64_t Delta = 0; Delta < MaxDelta; ++Delta) {
    DependenceProblem P = simpleProblem(Delta);
    std::optional<CascadeResult> Hit = Loaded.lookupFull(P);
    ASSERT_TRUE(Hit.has_value()) << "delta " << Delta;
    CascadeResult Want = testDependence(P);
    EXPECT_EQ(Hit->Answer, Want.Answer) << "delta " << Delta;
    EXPECT_EQ(Hit->DecidedBy, Want.DecidedBy) << "delta " << Delta;
    EXPECT_EQ(Hit->Exact, Want.Exact) << "delta " << Delta;
    std::optional<DirectionResult> Dirs = Loaded.lookupDirections(P);
    ASSERT_TRUE(Dirs.has_value()) << "delta " << Delta;
    DirectionResult WantDirs = computeDirectionVectors(P);
    EXPECT_EQ(Dirs->Vectors, WantDirs.Vectors) << "delta " << Delta;
    EXPECT_EQ(Dirs->Distances, WantDirs.Distances) << "delta " << Delta;
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Fingerprint tags and format-v6 behaviour (incremental re-analysis).
//===----------------------------------------------------------------------===//

TEST(Memo, InvalidateFingerprintsRemovesOnlyTaggedEntries) {
  DependenceCache Cache;
  DependenceProblem A = simpleProblem(3), B = simpleProblem(99);
  Cache.insertFull(A, testDependence(A), /*Tag=*/11);
  Cache.insertFull(B, testDependence(B), /*Tag=*/22);
  Cache.insertDirections(A, computeDirectionVectors(A), /*Tag=*/11);

  EXPECT_EQ(Cache.invalidateFingerprints({11}), 2u);
  EXPECT_FALSE(Cache.lookupFull(A).has_value());
  EXPECT_FALSE(Cache.lookupDirections(A).has_value());
  EXPECT_TRUE(Cache.lookupFull(B).has_value());
  // A second pass finds nothing left to drop.
  EXPECT_EQ(Cache.invalidateFingerprints({11}), 0u);
}

TEST(Memo, UntaggedEntriesSurviveInvalidation) {
  DependenceCache Cache;
  DependenceProblem P = simpleProblem(3);
  Cache.insertFull(P, testDependence(P)); // Tag defaults to 0 = none.
  EXPECT_EQ(Cache.invalidateFingerprints({1, 2, 3}), 0u);
  EXPECT_TRUE(Cache.lookupFull(P).has_value());
}

TEST(Memo, SharedKeyKeepsFirstTagAndOnlyReMissesOnInvalidation) {
  // Same statement under different unused-loop bounds: both problems
  // canonicalize to one memo key, so the key carries the first
  // inserter's tag. Invalidating the *other* program's tag must not
  // remove it; invalidating the first tag removes the shared entry,
  // which costs the survivor one re-miss but never a wrong answer.
  DependenceCache Cache;
  DependenceProblem P5 = wrappedProblem(5), P7 = wrappedProblem(7);
  Cache.insertFull(P5, testDependence(P5), /*Tag=*/1);
  Cache.insertFull(P7, testDependence(P7), /*Tag=*/2); // First wins.
  ASSERT_EQ(Cache.uniqueFull(), 1u);

  EXPECT_EQ(Cache.invalidateFingerprints({2}), 0u);
  EXPECT_TRUE(Cache.lookupFull(P7).has_value());

  EXPECT_EQ(Cache.invalidateFingerprints({1}), 1u);
  EXPECT_FALSE(Cache.lookupFull(P5).has_value());
  EXPECT_FALSE(Cache.lookupFull(P7).has_value());
  // Re-inserting after the miss restores service for both.
  Cache.insertFull(P7, testDependence(P7), /*Tag=*/2);
  EXPECT_TRUE(Cache.lookupFull(P5).has_value());
}

TEST(Memo, DirectionCountersTrackQueriesAndHits) {
  DependenceCache Cache;
  DependenceProblem P = simpleProblem(1);
  EXPECT_FALSE(Cache.lookupDirections(P).has_value());
  Cache.insertDirections(P, computeDirectionVectors(P));
  EXPECT_TRUE(Cache.lookupDirections(P).has_value());
  EXPECT_EQ(Cache.dirQueries(), 2u);
  EXPECT_EQ(Cache.dirHits(), 1u);
  Cache.clear();
  EXPECT_EQ(Cache.dirQueries(), 0u);
  EXPECT_EQ(Cache.dirHits(), 0u);
}

TEST(Memo, TagsSurvivePersistence) {
  std::string Path = ::testing::TempDir() + "/edda_cache_tags.txt";
  {
    DependenceCache Cache;
    Cache.insertFull(simpleProblem(3), testDependence(simpleProblem(3)),
                     /*Tag=*/77);
    Cache.insertDirections(simpleProblem(1),
                           computeDirectionVectors(simpleProblem(1)),
                           /*Tag=*/77);
    Cache.insertFull(simpleProblem(99),
                     testDependence(simpleProblem(99)), /*Tag=*/88);
    ASSERT_TRUE(Cache.saveToFile(Path));
  }
  DependenceCache Loaded;
  ASSERT_TRUE(Loaded.loadFromFile(Path));
  // The reloaded entries still answer, and still invalidate by tag —
  // a warm-started edit session can drop its dead keys.
  EXPECT_TRUE(Loaded.lookupFull(simpleProblem(3)).has_value());
  EXPECT_EQ(Loaded.invalidateFingerprints({77}), 2u);
  EXPECT_FALSE(Loaded.lookupFull(simpleProblem(3)).has_value());
  EXPECT_FALSE(Loaded.lookupDirections(simpleProblem(1)).has_value());
  EXPECT_TRUE(Loaded.lookupFull(simpleProblem(99)).has_value());
  std::remove(Path.c_str());
}

namespace {

/// A hand-written cache file in the superseded v5 format: two full
/// entries, one direction entry (one vector, one pinned distance),
/// three GCD entries (counted but never parsed past the count).
const char *v5CacheFile() {
  return "edda-depcache 5\n"
         "2\n"
         "3 1 2 3\n"
         "1 5 1 0\n"
         "3 4 5 6\n"
         "0 7 1 0\n"
         "1\n"
         "2 9 9\n"
         "1 5 1 0 0 1 1\n"
         "1 0\n"
         "d 1\n"
         "3\n";
}

} // namespace

TEST(Memo, V5FileRejectedWithEntryCountsReported) {
  std::string Path = ::testing::TempDir() + "/edda_cache_v5.txt";
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs(v5CacheFile(), F);
    std::fclose(F);
  }
  DependenceCache Cache;
  CacheLoadStats LS;
  EXPECT_FALSE(Cache.loadFromFile(Path, &LS));
  EXPECT_EQ(LS.FileVersion, 5);
  EXPECT_EQ(LS.RejectedEntries, 6u); // 2 full + 1 dir + 3 gcd.
  EXPECT_EQ(LS.LoadedEntries, 0u);
  // Rejection leaves the cache cold, not half-loaded.
  EXPECT_EQ(Cache.uniqueFull(), 0u);
  EXPECT_EQ(Cache.uniqueDirections(), 0u);
  std::remove(Path.c_str());
}

TEST(Memo, V6RoundTripReportsLoadStats) {
  std::string Path = ::testing::TempDir() + "/edda_cache_v6_stats.txt";
  {
    DependenceCache Cache;
    Cache.insertFull(simpleProblem(3), testDependence(simpleProblem(3)));
    Cache.insertDirections(simpleProblem(1),
                           computeDirectionVectors(simpleProblem(1)));
    ASSERT_TRUE(Cache.saveToFile(Path));
  }
  DependenceCache Loaded;
  CacheLoadStats LS;
  ASSERT_TRUE(Loaded.loadFromFile(Path, &LS));
  EXPECT_EQ(LS.FileVersion, 6);
  EXPECT_EQ(LS.RejectedEntries, 0u);
  EXPECT_GE(LS.LoadedEntries, 2u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The one-pass key against the copy-based reference
//===----------------------------------------------------------------------===//

namespace {

/// Problems covering the key's corners: random fuzz draws (symbolics,
/// missing bounds, unused loops), random small problems, the suite's
/// built pairs, and hand-written ties and extreme words.
std::vector<DependenceProblem> keyCorpus() {
  std::vector<DependenceProblem> Out;
  SplitRng Rng(17);
  for (int I = 0; I < 300; ++I)
    Out.push_back(fuzz::randomFuzzProblem(Rng));
  for (int I = 0; I < 300; ++I)
    Out.push_back(randomProblem(Rng));
  unsigned Stride = 0;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    Program Prog = mustParse(Source);
    std::vector<ArrayReference> Refs = collectReferences(Prog);
    for (unsigned I = 0; I < Refs.size(); ++I)
      for (unsigned J = I; J < Refs.size(); ++J)
        if (Refs[I].ArrayId == Refs[J].ArrayId &&
            (Refs[I].IsWrite || Refs[J].IsWrite) && ++Stride % 7 == 0)
          if (std::optional<BuiltProblem> B =
                  buildProblem(Prog, Refs[I], Refs[J]))
            Out.push_back(std::move(B->Problem));
  }
  // Symmetric ties: the no-bounds words of (A,B) and (B,A) agree while
  // the bounds decide, and equations that sort differently once negated.
  Out.push_back(ProblemBuilder(1, 1, 1)
                    .eq({1, -1}, 0)
                    .bounds(0, 1, 10)
                    .bounds(1, 2, 10)
                    .build());
  Out.push_back(ProblemBuilder(1, 1, 1)
                    .eq({1, -1}, 0)
                    .bounds(0, 2, 10)
                    .bounds(1, 1, 10)
                    .build());
  Out.push_back(ProblemBuilder(2, 1, 1, 1)
                    .eq({1, 0, -1, 2}, 3)
                    .eq({0, 1, 0, -1}, -3)
                    .eq({0, 1, 0, -1}, -3)
                    .bounds(0, 1, 10)
                    .build());
  Out.push_back(ProblemBuilder(1, 1, 1)
                    .eq({INT64_MIN, 1}, INT64_MIN)
                    .eq({-1, INT64_MIN}, 0)
                    .build());
  Out.push_back(ProblemBuilder(0, 0, 0).eq({}, 4).build());
  return Out;
}

} // namespace

// Every ImprovedKey x SymmetricKey x CanonicalizeEquations scheme under
// both hash kinds: makeKey's words equal the copy-based serialization
// word for word, with the same swap flags; the no-bounds key is a
// prefix of the full key (the analyzer's determinism grouping relies on
// it); the hashes are the table hash of those words; and the improved
// scheme's common-loop map is withUnusedLoopsRemoved's. Every key made
// into one shared MemoKeyPool reads back as the key made alone.
TEST(MemoKey, OnePassKeyMatchesReferenceKey) {
  const std::vector<DependenceProblem> Corpus = keyCorpus();
  ASSERT_GT(Corpus.size(), 1000u);
  for (unsigned Scheme = 0; Scheme < 8; ++Scheme)
    for (MemoHashKind Hash :
         {MemoHashKind::Mixing, MemoHashKind::PaperLiteral}) {
      MemoOptions Opts;
      Opts.ImprovedKey = Scheme & 1;
      Opts.SymmetricKey = Scheme & 2;
      Opts.CanonicalizeEquations = Scheme & 4;
      Opts.Hash = Hash;
      DependenceCache Cache(Opts);
      auto HashOf = [Hash](std::span<const int64_t> W) {
        return Hash == MemoHashKind::PaperLiteral ? paperHashWords(W)
                                                  : hashWords(W);
      };
      MemoKeyPool Pool;
      for (size_t I = 0; I < Corpus.size(); ++I) {
        const DependenceProblem &P = Corpus[I];
        std::string Where = "scheme " + std::to_string(Scheme) +
                            " hash " + std::to_string(int(Hash)) +
                            " problem " + std::to_string(I) + "\n" +
                            P.str();
        bool WantSwapped, WantNbSwapped;
        std::vector<int64_t> Full =
            referenceKey(Opts, P, /*IncludeBounds=*/true, WantSwapped);
        std::vector<int64_t> NoBounds =
            referenceKey(Opts, P, /*IncludeBounds=*/false, WantNbSwapped);
        MemoKey K = Cache.makeKey(P);
        ASSERT_EQ(K.Words, Full) << Where;
        EXPECT_EQ(K.Swapped, WantSwapped) << Where;
        EXPECT_EQ(K.NoBoundsSwapped, WantNbSwapped) << Where;
        ASSERT_EQ(K.NoBoundsLen, NoBounds.size()) << Where;
        EXPECT_TRUE(std::equal(NoBounds.begin(), NoBounds.end(),
                               K.Words.begin()))
            << "no-bounds key is not a prefix of the full key: " << Where;
        EXPECT_EQ(K.Hash, HashOf(Full)) << Where;
        EXPECT_EQ(K.NoBoundsHash, HashOf(NoBounds)) << Where;
        EXPECT_EQ(K.NumLoopsA, P.NumLoopsA) << Where;
        EXPECT_EQ(K.NumLoopsB, P.NumLoopsB) << Where;
        EXPECT_EQ(K.NumCommon, P.NumCommon) << Where;
        if (Opts.ImprovedKey) {
          std::vector<std::optional<unsigned>> CommonMap;
          (void)P.withUnusedLoopsRemoved(CommonMap);
          EXPECT_EQ(K.CommonMap, CommonMap) << Where;
        }
        bool Swapped;
        EXPECT_EQ(Cache.keyFor(P, /*IncludeBounds=*/true, Swapped), Full);
        EXPECT_EQ(Swapped, WantSwapped) << Where;
        EXPECT_EQ(Cache.keyFor(P, /*IncludeBounds=*/false, Swapped),
                  NoBounds);
        EXPECT_EQ(Swapped, WantNbSwapped) << Where;
        EXPECT_EQ(Cache.makeKey(P, Pool), I) << Where;
      }
      // Read back only now, after every append has grown the pool.
      for (size_t I = 0; I < Corpus.size(); ++I) {
        const MemoKey K = Cache.makeKey(Corpus[I]);
        const MemoKeyRef R = Pool[I];
        std::string Where = "scheme " + std::to_string(Scheme) +
                            " hash " + std::to_string(int(Hash)) +
                            " pooled problem " + std::to_string(I);
        ASSERT_TRUE(std::ranges::equal(R.Words, K.Words)) << Where;
        EXPECT_TRUE(std::ranges::equal(R.CommonMap, K.CommonMap)) << Where;
        EXPECT_EQ(R.NoBoundsLen, K.NoBoundsLen) << Where;
        EXPECT_EQ(R.Hash, K.Hash) << Where;
        EXPECT_EQ(R.NoBoundsHash, K.NoBoundsHash) << Where;
        EXPECT_EQ(R.Swapped, K.Swapped) << Where;
        EXPECT_EQ(R.NoBoundsSwapped, K.NoBoundsSwapped) << Where;
        EXPECT_EQ(R.NumLoopsA, K.NumLoopsA) << Where;
        EXPECT_EQ(R.NumLoopsB, K.NumLoopsB) << Where;
        EXPECT_EQ(R.NumCommon, K.NumCommon) << Where;
        EXPECT_TRUE(R.noBounds() == K.noBounds()) << Where;
      }
    }
}

// A v6 cache file whose keys come from the copy-based reference loads
// into the one-pass cache and answers exactly as a file the cache saved
// itself: cache files need no version bump.
TEST(MemoKey, ReferenceKeyedFileAnswersLikeSavedFile) {
  const std::vector<DependenceProblem> Corpus = keyCorpus();
  for (unsigned Scheme = 0; Scheme < 8; ++Scheme) {
    MemoOptions Opts;
    Opts.ImprovedKey = Scheme & 1;
    Opts.SymmetricKey = Scheme & 2;
    Opts.CanonicalizeEquations = Scheme & 4;

    // Every other problem is stored; the rest must miss.
    DependenceCache Saved(Opts);
    std::string Full, Gcd;
    size_t NumFull = 0, NumGcd = 0;
    std::vector<std::vector<int64_t>> SeenFull, SeenGcd;
    for (size_t I = 0; I < Corpus.size(); I += 2) {
      const DependenceProblem &P = Corpus[I];
      CascadeResult R = testDependence(P);
      Saved.insertFull(P, R);
      Saved.insertGcdSolvable(P, R.Answer != DepAnswer::Independent);
      bool Swapped;
      std::vector<int64_t> K = referenceKey(Opts, P, true, Swapped);
      if (std::find(SeenFull.begin(), SeenFull.end(), K) == SeenFull.end()) {
        SeenFull.push_back(K);
        Full += std::to_string(K.size());
        for (int64_t W : K)
          Full += " " + std::to_string(W);
        Full += "\n" + std::to_string(int(R.Answer)) + " " +
                std::to_string(int(R.DecidedBy)) + " " +
                std::to_string(R.Exact) + " " + std::to_string(R.Widened) +
                " 0\n";
        ++NumFull;
      }
      K = referenceKey(Opts, P, false, Swapped);
      if (std::find(SeenGcd.begin(), SeenGcd.end(), K) == SeenGcd.end()) {
        SeenGcd.push_back(K);
        Gcd += std::to_string(K.size());
        for (int64_t W : K)
          Gcd += " " + std::to_string(W);
        Gcd += "\n" +
               std::to_string(R.Answer != DepAnswer::Independent) + "\n";
        ++NumGcd;
      }
    }
    std::string RefPath = ::testing::TempDir() + "/edda_cache_refkeys.txt";
    {
      std::FILE *F = std::fopen(RefPath.c_str(), "w");
      ASSERT_NE(F, nullptr);
      std::fprintf(F, "edda-depcache 6\n%zu\n%s0\n%zu\n%s", NumFull,
                   Full.c_str(), NumGcd, Gcd.c_str());
      std::fclose(F);
    }
    std::string SavedPath = ::testing::TempDir() + "/edda_cache_saved.txt";
    ASSERT_TRUE(Saved.saveToFile(SavedPath));

    DependenceCache FromRef(Opts), FromSaved(Opts);
    ASSERT_TRUE(FromRef.loadFromFile(RefPath)) << "scheme " << Scheme;
    ASSERT_TRUE(FromSaved.loadFromFile(SavedPath)) << "scheme " << Scheme;
    EXPECT_EQ(FromRef.uniqueFull(), FromSaved.uniqueFull());
    EXPECT_EQ(FromRef.uniqueNoBounds(), FromSaved.uniqueNoBounds());
    for (const DependenceProblem &P : Corpus) {
      std::optional<CascadeResult> A = FromRef.lookupFull(P);
      std::optional<CascadeResult> B = FromSaved.lookupFull(P);
      ASSERT_EQ(A.has_value(), B.has_value()) << "scheme " << Scheme;
      if (A) {
        EXPECT_EQ(A->Answer, B->Answer);
        EXPECT_EQ(A->DecidedBy, B->DecidedBy);
      }
      EXPECT_EQ(FromRef.lookupGcdSolvable(P), FromSaved.lookupGcdSolvable(P));
    }
    EXPECT_EQ(FromRef.fullHits(), FromSaved.fullHits());
    EXPECT_EQ(FromRef.gcdHits(), FromSaved.gcdHits());
    EXPECT_GT(FromRef.fullHits(), Corpus.size() / 2 - 1);
    std::remove(RefPath.c_str());
    std::remove(SavedPath.c_str());
  }
}
