//===- tests/deptest/MemoTest.cpp - Memoization tests ---------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Memo.h"

#include "analysis/Analyzer.h"
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

namespace {

void writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fputs(Text.c_str(), F);
  std::fclose(F);
}

uint64_t storeSize(const DependenceCache &C) {
  return C.uniqueFull() + C.uniqueDirections() + C.uniqueNoBounds();
}

/// A v6 cache file of one entry per table, from its three sections. The
/// direction entry's key says one common loop (key word 2), so its
/// vectors and distance list must have one component.
std::string v6File(const std::string &FullEntry = "2 7 7\n1 1 1 0 0\n",
                   const std::string &DirEntry =
                       "5 1 1 1 0 0\n1 2 1 0 0 0 1 1\n1 0\nd 1\n") {
  return "edda-depcache 6\n1\n" + FullEntry + "1\n" + DirEntry +
         "1\n2 7 7\n1\n";
}

} // namespace

TEST(Memo, LoadRejectsGarbage) {
  std::string Path = ::testing::TempDir() + "/edda_cache_garbage.txt";
  DependenceCache Cache;
  writeFile(Path, "not a cache file\n");
  EXPECT_FALSE(Cache.loadFromFile(Path));
  EXPECT_FALSE(Cache.loadFromFile(Path + ".does-not-exist"));

  // Hostile v6 files: enums out of range and direction entries whose
  // lengths disagree with their key. Each is refused whole, leaving the
  // tables empty rather than holding values later code indexes by.
  const std::vector<std::pair<const char *, std::string>> Hostile = {
      {"answer 3", v6File("2 7 7\n3 1 1 0 0\n")},
      {"answer -1", v6File("2 7 7\n-1 1 1 0 0\n")},
      {"decided-by 8", v6File("2 7 7\n1 8 1 0 0\n")},
      {"decided-by -1", v6File("2 7 7\n1 -1 1 0 0\n")},
      {"root answer 7",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n7 2 1 0 0 0 1 1\n1 0\nd 1\n")},
      {"root decided-by 42",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 42 1 0 0 0 1 1\n1 0\nd 1\n")},
      {"direction 4",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 2 1 0 0 0 1 1\n1 4\nd 1\n")},
      {"direction -1",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 2 1 0 0 0 1 1\n1 -1\nd 1\n")},
      {"vector longer than the common loops",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 2 1 0 0 0 1 1\n2 0 0\nd 1\n")},
      {"vector shorter than the common loops",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 2 1 0 0 0 1 1\n0\nd 1\n")},
      {"no distances",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 2 1 0 0 0 1 0\n1 0\n")},
      {"two distances",
       v6File("2 7 7\n1 1 1 0 0\n",
              "5 1 1 1 0 0\n1 2 1 0 0 0 0 2\nu\nu\n")},
      {"key without a common-loop word",
       v6File("2 7 7\n1 1 1 0 0\n", "2 1 1\n1 2 1 0 0 0 0 0\n")},
  };
  for (const auto &[What, Text] : Hostile) {
    writeFile(Path, Text);
    CacheLoadStats LS;
    EXPECT_FALSE(Cache.loadFromFile(Path, &LS)) << What;
    EXPECT_EQ(LS.LoadedEntries, 0u) << What;
    EXPECT_EQ(storeSize(Cache), 0u) << What;
  }

  // The template they were cut from loads.
  writeFile(Path, v6File());
  ASSERT_TRUE(Cache.loadFromFile(Path));
  EXPECT_EQ(Cache.uniqueFull(), 1u);
  EXPECT_EQ(Cache.uniqueDirections(), 1u);
  EXPECT_EQ(Cache.uniqueNoBounds(), 1u);
  std::remove(Path.c_str());
}

// A load that fails part way adds nothing: entries read before the
// failure do not reach the tables, and entries already there stay.
TEST(Memo, FailedLoadAddsNothing) {
  std::string Path = ::testing::TempDir() + "/edda_cache_whole.txt";
  std::string Cut = ::testing::TempDir() + "/edda_cache_cut.txt";
  {
    DependenceCache Cache;
    for (int64_t Delta = 0; Delta < 40; ++Delta) {
      DependenceProblem P = simpleProblem(Delta);
      Cache.insertFull(P, testDependence(P));
      Cache.insertDirections(P, computeDirectionVectors(P));
      Cache.insertGcdSolvable(simpleProblem(Delta, 99), true);
    }
    ASSERT_TRUE(Cache.saveToFile(Path));
  }
  std::string Text;
  {
    std::FILE *F = std::fopen(Path.c_str(), "r");
    ASSERT_NE(F, nullptr);
    for (int C; (C = std::fgetc(F)) != EOF;)
      Text.push_back(static_cast<char>(C));
    std::fclose(F);
  }
  ASSERT_GT(Text.size(), 800u);
  // Cuts in the full section, in the middle, and before the last GCD
  // entry's answer.
  for (size_t Len : {size_t(400), Text.size() / 2, Text.size() - 2}) {
    writeFile(Cut, Text.substr(0, Len));
    DependenceCache Cold;
    EXPECT_FALSE(Cold.loadFromFile(Cut)) << Len;
    EXPECT_EQ(Cold.uniqueFull(), 0u) << Len;
    EXPECT_EQ(Cold.uniqueDirections(), 0u) << Len;
    EXPECT_EQ(Cold.uniqueNoBounds(), 0u) << Len;
    EXPECT_FALSE(Cold.lookupFull(simpleProblem(0)).has_value()) << Len;

    DependenceCache Warm;
    Warm.insertFull(simpleProblem(500), testDependence(simpleProblem(500)));
    EXPECT_FALSE(Warm.loadFromFile(Cut)) << Len;
    EXPECT_EQ(storeSize(Warm), 1u) << Len;
  }
  DependenceCache Whole;
  ASSERT_TRUE(Whole.loadFromFile(Path));
  EXPECT_EQ(Whole.uniqueFull(), 40u);
  EXPECT_EQ(Whole.uniqueDirections(), 40u);
  EXPECT_EQ(Whole.uniqueNoBounds(), 40u);
  std::remove(Path.c_str());
  std::remove(Cut.c_str());
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
/// built pairs, and hand-written mirror images, repeated equations and
/// extreme words.
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
  // Mirror images whose no-bounds words agree while the bounds differ,
  // and a repeated equation.
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

// Under both schemes, makeKey's words equal the copy-based
// serialization word for word; the no-bounds key is a prefix of the
// full key (the analyzer's determinism grouping relies on it); the
// hashes are hashWords of those words; and the improved scheme's
// common-loop map is withUnusedLoopsRemoved's. Every key made into one
// shared MemoKeyPool reads back as the key made alone.
TEST(MemoKey, OnePassKeyMatchesReferenceKey) {
  const std::vector<DependenceProblem> Corpus = keyCorpus();
  ASSERT_GT(Corpus.size(), 1000u);
  for (bool Improved : {false, true}) {
    MemoOptions Opts;
    Opts.ImprovedKey = Improved;
    DependenceCache Cache(Opts);
    MemoKeyPool Pool;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const DependenceProblem &P = Corpus[I];
      std::string Where = "improved " + std::to_string(Improved) +
                          " problem " + std::to_string(I) + "\n" + P.str();
      std::vector<int64_t> Full =
          referenceKey(Opts, P, /*IncludeBounds=*/true);
      std::vector<int64_t> NoBounds =
          referenceKey(Opts, P, /*IncludeBounds=*/false);
      MemoKey K = Cache.makeKey(P);
      ASSERT_EQ(K.Words, Full) << Where;
      ASSERT_EQ(K.NoBoundsLen, NoBounds.size()) << Where;
      EXPECT_TRUE(std::equal(NoBounds.begin(), NoBounds.end(),
                             K.Words.begin()))
          << "no-bounds key is not a prefix of the full key: " << Where;
      EXPECT_EQ(K.Hash, hashWords(Full)) << Where;
      EXPECT_EQ(K.NoBoundsHash, hashWords(NoBounds)) << Where;
      EXPECT_EQ(K.NumCommon, P.NumCommon) << Where;
      if (Improved) {
        std::vector<std::optional<unsigned>> CommonMap;
        (void)P.withUnusedLoopsRemoved(CommonMap);
        EXPECT_EQ(K.CommonMap, CommonMap) << Where;
      }
      EXPECT_EQ(Cache.makeKey(P, Pool), I) << Where;
    }
    // Read back only now, after every append has grown the pool.
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const MemoKey K = Cache.makeKey(Corpus[I]);
      const MemoKeyRef R = Pool[I];
      std::string Where = "improved " + std::to_string(Improved) +
                          " pooled problem " + std::to_string(I);
      ASSERT_TRUE(std::ranges::equal(R.Words, K.Words)) << Where;
      EXPECT_TRUE(std::ranges::equal(R.CommonMap, K.CommonMap)) << Where;
      EXPECT_EQ(R.NoBoundsLen, K.NoBoundsLen) << Where;
      EXPECT_EQ(R.Hash, K.Hash) << Where;
      EXPECT_EQ(R.NoBoundsHash, K.NoBoundsHash) << Where;
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
  for (bool Improved : {false, true}) {
    MemoOptions Opts;
    Opts.ImprovedKey = Improved;

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
      std::vector<int64_t> K = referenceKey(Opts, P, true);
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
      K = referenceKey(Opts, P, false);
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
    writeFile(RefPath, "edda-depcache 6\n" + std::to_string(NumFull) +
                           "\n" + Full + "0\n" + std::to_string(NumGcd) +
                           "\n" + Gcd);
    std::string SavedPath = ::testing::TempDir() + "/edda_cache_saved.txt";
    ASSERT_TRUE(Saved.saveToFile(SavedPath));

    DependenceCache FromRef(Opts), FromSaved(Opts);
    ASSERT_TRUE(FromRef.loadFromFile(RefPath)) << "improved " << Improved;
    ASSERT_TRUE(FromSaved.loadFromFile(SavedPath)) << "improved " << Improved;
    EXPECT_EQ(FromRef.uniqueFull(), FromSaved.uniqueFull());
    EXPECT_EQ(FromRef.uniqueNoBounds(), FromSaved.uniqueNoBounds());
    for (const DependenceProblem &P : Corpus) {
      std::optional<CascadeResult> A = FromRef.lookupFull(P);
      std::optional<CascadeResult> B = FromSaved.lookupFull(P);
      ASSERT_EQ(A.has_value(), B.has_value()) << "improved " << Improved;
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

//===----------------------------------------------------------------------===//
// Key words are pinned
//===----------------------------------------------------------------------===//

namespace {

/// Folds every tested pair's key over the 13 suite programs, under
/// \p Opts, into one digest: the words, the no-bounds prefix length and
/// both table hashes, in analysis order. \p NumKeys counts the keys.
uint64_t suiteKeyDigest(const MemoOptions &Opts, size_t &NumKeys) {
  DependenceCache Cache(Opts);
  uint64_t Digest = 0;
  NumKeys = 0;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    Program Prog = mustParse(Source, /*Prepass=*/false);
    DependenceAnalyzer Analyzer{AnalyzerOptions()};
    AnalysisResult R = Analyzer.analyze(Prog);
    for (const DependencePair &Pair : R.Pairs) {
      std::optional<BuiltProblem> B =
          buildProblem(Prog, R.Refs[Pair.RefA], R.Refs[Pair.RefB]);
      if (!B || std::ranges::all_of(B->Problem.Equations,
                                    &XAffine::isConstant))
        continue;
      MemoKey K = Cache.makeKey(B->Problem);
      for (int64_t W : K.Words)
        Digest = hashCombine(Digest, static_cast<uint64_t>(W));
      Digest = hashCombine(Digest, K.NoBoundsLen);
      Digest = hashCombine(Digest, K.Hash);
      Digest = hashCombine(Digest, K.NoBoundsHash);
      ++NumKeys;
    }
  }
  return Digest;
}

} // namespace

// The keys of the suite's tested pairs, under both schemes, are pinned:
// cache files hold these words, so a change to them needs a cache format
// version bump (and a new digest).
TEST(MemoKey, SuiteKeysPinned) {
  const std::pair<bool, uint64_t> Want[] = {{false, 0x57a01c842ca24e93ull},
                                            {true, 0xe322deb0705e71baull}};
  for (const auto &[Improved, Digest] : Want) {
    MemoOptions Opts;
    Opts.ImprovedKey = Improved;
    size_t NumKeys = 0;
    EXPECT_EQ(suiteKeyDigest(Opts, NumKeys), Digest)
        << "improved " << Improved;
    // The golden's cache_full query count: one key per tested pair.
    EXPECT_EQ(NumKeys, 6074u) << "improved " << Improved;
  }
}
