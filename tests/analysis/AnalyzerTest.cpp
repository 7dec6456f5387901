//===- tests/analysis/AnalyzerTest.cpp - Analyzer tests -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "testutil/Helpers.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

using namespace edda;
using namespace edda::testutil;

namespace {

AnalysisResult analyzeSource(const std::string &Source,
                             AnalyzerOptions Opts = {}) {
  Program P = mustParse(Source, /*Prepass=*/false);
  DependenceAnalyzer Analyzer(Opts);
  return Analyzer.analyze(P);
}

/// Checks \p R's pair list against the definition of a candidate pair,
/// enumerated by brute force: every (I, J >= I) on one array with at
/// least one write, I ascending then J ascending, each with the loops
/// both references share.
void expectBruteForceEnumeration(const AnalysisResult &R,
                                 const std::string &What) {
  const std::vector<ArrayReference> &Refs = R.Refs;
  std::vector<std::pair<unsigned, unsigned>> Expected;
  for (unsigned I = 0; I < Refs.size(); ++I)
    for (unsigned J = I; J < Refs.size(); ++J)
      if (Refs[I].ArrayId == Refs[J].ArrayId &&
          (Refs[I].IsWrite || Refs[J].IsWrite))
        Expected.emplace_back(I, J);
  std::vector<std::pair<unsigned, unsigned>> Got;
  for (const DependencePair &Pair : R.Pairs)
    Got.emplace_back(Pair.RefA, Pair.RefB);
  ASSERT_EQ(Got, Expected) << What;
  EXPECT_EQ(R.PairsConsidered, Expected.size()) << What;
  for (const DependencePair &Pair : R.Pairs) {
    const std::vector<const LoopStmt *> &A = Refs[Pair.RefA].Loops;
    const std::vector<const LoopStmt *> &B = Refs[Pair.RefB].Loops;
    size_t Common = 0;
    while (Common < A.size() && Common < B.size() && A[Common] == B[Common])
      ++Common;
    EXPECT_EQ(Pair.CommonLoops,
              std::vector<const LoopStmt *>(A.begin(), A.begin() + Common))
        << What << ": pair (" << Pair.RefA << ", " << Pair.RefB << ")";
  }
}

} // namespace

TEST(Analyzer, IndependentLoopPairs) {
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i] = a[i + 10] + 3
  end
end
)");
  // Pairs: write/write self (dependent only at i == i', fine) and
  // write/read (independent).
  ASSERT_EQ(R.Pairs.size(), 2u);
  EXPECT_EQ(R.Pairs[0].Answer, DepAnswer::Dependent); // self pair
  EXPECT_EQ(R.Pairs[1].Answer, DepAnswer::Independent);
  EXPECT_EQ(R.Pairs[1].DecidedBy, TestKind::Svpc);
  EXPECT_EQ(R.PairsConsidered, 2u);
  EXPECT_EQ(R.UnanalyzablePairs, 0u);
}

TEST(Analyzer, ReadReadPairsSkipped) {
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  array b[100]
  for i = 1 to 10 do
    b[i] = a[i] + a[i + 1]
  end
end
)");
  // a is only read: the two a reads form no pair; b write self-pair
  // remains.
  EXPECT_EQ(R.PairsConsidered, 1u);
}

TEST(Analyzer, DifferentArraysNotPaired) {
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  array b[100]
  for i = 1 to 10 do
    a[i] = b[i]
    b[i] = 3
  end
end
)");
  // Pairs: a-self, b-self, b-write/b-read.
  EXPECT_EQ(R.PairsConsidered, 3u);
}

TEST(Analyzer, MemoizationCollapsesDuplicates) {
  // Five copies of the same loop shape over five distinct arrays (the
  // memo key is the problem's shape, not the array's identity).
  std::string Source = "program s\n";
  for (int K = 0; K < 5; ++K)
    Source += "  array a" + std::to_string(K) + "[100]\n";
  for (int K = 0; K < 5; ++K) {
    std::string A = "a" + std::to_string(K);
    Source += "  for i = 1 to 10 do\n    " + A + "[i + 1] = " + A +
              "[i]\n  end\n";
  }
  Source += "end\n";

  AnalyzerOptions Memoized;
  AnalysisResult R1 = analyzeSource(Source, Memoized);
  // 5 copies x 2 pairs each; only the first copy runs tests.
  EXPECT_EQ(R1.PairsConsidered, 10u);
  EXPECT_EQ(R1.Stats.totalDecided(), 2u);
  EXPECT_EQ(R1.Stats.MemoHitsFull, 8u);

  AnalyzerOptions Plain;
  Plain.UseMemoization = false;
  AnalysisResult R2 = analyzeSource(Source, Plain);
  EXPECT_EQ(R2.Stats.totalDecided(), 10u);
  EXPECT_EQ(R2.Stats.MemoHitsFull, 0u);
}

TEST(Analyzer, GcdCacheSharesAcrossBounds) {
  // Same equations under different bounds: the no-bounds table answers
  // the second one.
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  array b[100]
  for i = 1 to 10 do
    a[2 * i] = a[2 * i + 1]
  end
  for i = 1 to 77 do
    b[2 * i] = b[2 * i + 1]
  end
end
)");
  // Two no-bounds hits: the second program's self pair (equations
  // solvable) and its cross pair (equations unsolvable, answered
  // without running any test).
  EXPECT_EQ(R.Stats.MemoHitsNoBounds, 2u);
  // Both reported independent by GCD.
  unsigned GcdIndependent = 0;
  for (const DependencePair &Pair : R.Pairs)
    if (Pair.Answer == DepAnswer::Independent &&
        Pair.DecidedBy == TestKind::GcdTest)
      ++GcdIndependent;
  EXPECT_EQ(GcdIndependent, 2u);
}

TEST(Analyzer, UnanalyzableCounted) {
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  array idx[100]
  for i = 1 to 10 do
    a[idx[i]] = a[i]
  end
end
)");
  EXPECT_GT(R.UnanalyzablePairs, 0u);
  bool FoundUnknown = false;
  for (const DependencePair &Pair : R.Pairs)
    if (Pair.DecidedBy == TestKind::Unanalyzable) {
      EXPECT_EQ(Pair.Answer, DepAnswer::Unknown);
      EXPECT_FALSE(Pair.Exact);
      FoundUnknown = true;
    }
  EXPECT_TRUE(FoundUnknown);
}

TEST(Analyzer, DirectionsComputedOnDemand) {
  AnalyzerOptions Opts;
  Opts.ComputeDirections = true;
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 1] = a[i]
  end
end
)",
                                   Opts);
  bool FoundFlow = false;
  for (const DependencePair &Pair : R.Pairs) {
    if (Pair.Answer != DepAnswer::Dependent)
      continue;
    ASSERT_TRUE(Pair.Directions.has_value());
    for (const DirVector &V : Pair.Directions->Vectors)
      if (V == DirVector{Dir::Less})
        FoundFlow = true;
  }
  EXPECT_TRUE(FoundFlow);
}

TEST(Analyzer, DirectionCacheReused) {
  AnalyzerOptions Opts;
  Opts.ComputeDirections = true;
  std::string Source = R"(program s
  array a[100]
  array b[100]
  for i = 1 to 10 do
    a[i + 1] = a[i]
  end
  for i = 1 to 10 do
    b[i + 1] = b[i]
  end
end
)";
  AnalysisResult R = analyzeSource(Source, Opts);
  EXPECT_GT(R.Stats.MemoHitsFull, 0u);
  // Both pairs carry identical vectors.
  std::vector<const DependencePair *> Flow;
  for (const DependencePair &Pair : R.Pairs)
    if (!Pair.CommonLoops.empty() &&
        Pair.Answer == DepAnswer::Dependent && Pair.Directions &&
        !Pair.Directions->Vectors.empty() &&
        Pair.Directions->Vectors[0] == DirVector{Dir::Less})
      Flow.push_back(&Pair);
  EXPECT_EQ(Flow.size(), 2u);
}

TEST(Analyzer, CachePersistsAcrossPrograms) {
  AnalyzerOptions Opts;
  DependenceAnalyzer Analyzer(Opts);
  std::string Source = R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 1] = a[i]
  end
end
)";
  Program P1 = mustParse(Source, false);
  AnalysisResult R1 = Analyzer.analyze(P1);
  EXPECT_EQ(R1.Stats.MemoHitsFull, 0u);
  Program P2 = mustParse(Source, false);
  AnalysisResult R2 = Analyzer.analyze(P2);
  EXPECT_EQ(R2.Stats.MemoHitsFull, 2u);
  EXPECT_EQ(R2.Stats.totalDecided(), 0u);
}

TEST(Analyzer, PrepassEnablesAnalysis) {
  std::string Source = R"(program s
  array a[500]
  k = 0
  for i = 1 to 10 do
    k = k + 2
    a[k] = a[k + 3]
  end
end
)";
  AnalyzerOptions NoPrepass;
  NoPrepass.RunPrepass = false;
  AnalysisResult R1 = analyzeSource(Source, NoPrepass);
  EXPECT_GT(R1.UnanalyzablePairs, 0u);

  AnalysisResult R2 = analyzeSource(Source);
  EXPECT_EQ(R2.UnanalyzablePairs, 0u);
}

TEST(Analyzer, SymbolicProgram) {
  AnalysisResult R = analyzeSource(R"(program s
  array a[500]
  read n
  for i = 1 to 10 do
    a[i + n] = a[i + 2 * n + 1]
  end
end
)");
  ASSERT_EQ(R.Pairs.size(), 2u);
  for (const DependencePair &Pair : R.Pairs)
    EXPECT_NE(Pair.Answer, DepAnswer::Unknown);
}

TEST(Analyzer, EnumerationMatchesBruteForce) {
  // Interleaved arrays (a and b alternate), a read-only array (c), a
  // single-write array (d: only its self-pair), a single-read array (e:
  // no pair), write self-pairs, an unanalyzable reference (a[c[i]]) and
  // a reference outside the loop (a different common nest).
  AnalysisResult R = analyzeSource(R"(program s
  array a[100]
  array b[100]
  array c[100]
  array d[100]
  array e[100]
  for i = 1 to 10 do
    a[i] = b[i] + a[i + 1]
    b[i + 1] = a[i - 1] + c[i]
    d[i] = c[i + 2] + a[2 * i]
    x = e[i] + b[i + 2]
    a[c[i]] = 0
  end
  a[5] = b[3]
end
)");
  expectBruteForceEnumeration(R, "hand-written");
  unsigned SelfPairs = 0, ReadOnlyPairs = 0, Unanalyzable = 0;
  for (const DependencePair &Pair : R.Pairs) {
    const ArrayReference &A = R.Refs[Pair.RefA];
    SelfPairs += Pair.RefA == Pair.RefB;
    ReadOnlyPairs += A.ArrayId == 2 || A.ArrayId == 4;
    Unanalyzable += Pair.DecidedBy == TestKind::Unanalyzable;
  }
  EXPECT_EQ(SelfPairs, 5u); // a[i], b[i+1], d[i], a[c[i]], a[5]
  EXPECT_EQ(ReadOnlyPairs, 0u);
  EXPECT_GT(Unanalyzable, 0u);
}

TEST(Analyzer, EnumerationMatchesBruteForceOnSuite) {
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions()))
    expectBruteForceEnumeration(analyzeSource(Source), Name);
}

TEST(Analyzer, EnumerationMatchesBruteForceOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    SplitRng Rng(Seed);
    expectBruteForceEnumeration(analyzeSource(generateRandomProgram(Rng)),
                                "seed " + std::to_string(Seed));
  }
}
