//===- tests/analysis/AnalyzerTest.cpp - Analyzer tests -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "deptest/Cascade.h"
#include "testutil/Helpers.h"
#include "testutil/ReferenceBuilder.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <optional>
#include <span>

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
    std::span<const LoopStmt *const> A = Refs[Pair.RefA].Loops;
    std::span<const LoopStmt *const> B = Refs[Pair.RefB].Loops;
    size_t Common = 0;
    while (Common < A.size() && Common < B.size() && A[Common] == B[Common])
      ++Common;
    EXPECT_EQ(Pair.CommonLoops.data(), A.data())
        << What << ": pair (" << Pair.RefA << ", " << Pair.RefB << ")";
    EXPECT_EQ(Pair.CommonLoops.size(), Common)
        << What << ": pair (" << Pair.RefA << ", " << Pair.RefB << ")";
  }
}

} // namespace

TEST(Analyzer, PairCommonLoopsSurviveCopyAndMove) {
  const std::string Source = R"(program s
  array a[100][100]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j + 1] = a[i][j]
    end
    a[i][1] = a[i + 1][2]
  end
  a[1][1] = a[2][2]
end
)";
  Program P = mustParse(Source, /*Prepass=*/false);
  DependenceAnalyzer Analyzer;
  std::optional<AnalysisResult> Original = Analyzer.analyze(P);
  ASSERT_FALSE(Original->Pairs.empty());
  AnalysisResult Copy = *Original;
  AnalysisResult Moved = std::move(*Original);
  Original.reset();
  // Each pair's CommonLoops is the prefix of its source reference's
  // Loops, in the tables the copies keep alive.
  expectBruteForceEnumeration(Copy, "copy");
  expectBruteForceEnumeration(Moved, "moved");
  bool SawCommon = false;
  for (const DependencePair &Pair : Copy.Pairs)
    SawCommon = SawCommon || !Pair.CommonLoops.empty();
  EXPECT_TRUE(SawCommon);

  // Re-analysis splices reused outcomes; their CommonLoops must point
  // into the new references, not into the previous result's tables,
  // which are freed before they are read.
  for (const char *Edit : {"a[i + 1][2]", "a[i + 1][3]"}) {
    std::string Edited = Source;
    Edited.replace(Edited.find("a[i + 1][2]"), 11, Edit);
    Program Q = mustParse(Edited, /*Prepass=*/false);
    ReanalyzeStats RS;
    std::optional<AnalysisResult> Previous = Analyzer.analyze(P);
    AnalysisResult Re = Analyzer.reanalyze(Q, *Previous, &RS);
    Previous.reset();
    EXPECT_GT(RS.PairsReused, 0u) << Edit;
    expectBruteForceEnumeration(Re, Edit);
    const LoopStmt *Outer = &asLoop(*Q.body()[0]);
    for (const DependencePair &Pair : Re.Pairs) {
      if (!Pair.CommonLoops.empty()) {
        EXPECT_EQ(Pair.CommonLoops[0], Outer) << Edit;
      }
    }
    AnalysisResult MovedRe = std::move(Re);
    expectBruteForceEnumeration(MovedRe, std::string(Edit) + ", moved");
  }
}

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

namespace {

/// The suite's deterministic counters, summed over the 13 PERFECT Club
/// programs, each analyzed by a fresh analyzer as the Table 1-5 benches
/// do: decisions per test kind, memo hits and FM work from DepStats,
/// and the cache's own query, hit and unique-entry counters.
std::string suiteCounters(const AnalyzerOptions &Opts) {
  DepStats Total;
  uint64_t Pairs = 0, Unanalyzable = 0;
  uint64_t FullQ = 0, FullH = 0, DirQ = 0, DirH = 0, GcdQ = 0, GcdH = 0;
  uint64_t UniqueFull = 0, UniqueDirs = 0, UniqueNb = 0;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    Program P = mustParse(Source, /*Prepass=*/false);
    DependenceAnalyzer Analyzer(Opts);
    AnalysisResult R = Analyzer.analyze(P);
    Total += R.Stats;
    Pairs += R.PairsConsidered;
    Unanalyzable += R.UnanalyzablePairs;
    const DependenceCache &C = Analyzer.cache();
    FullQ += C.fullQueries();
    FullH += C.fullHits();
    DirQ += C.dirQueries();
    DirH += C.dirHits();
    GcdQ += C.gcdQueries();
    GcdH += C.gcdHits();
    UniqueFull += C.uniqueFull();
    UniqueDirs += C.uniqueDirections();
    UniqueNb += C.uniqueNoBounds();
  }
  std::string Out = "pairs=" + std::to_string(Pairs) +
                    " unanalyzable=" + std::to_string(Unanalyzable) +
                    " queries=" + std::to_string(Total.Queries);
  for (unsigned K = 0; K < NumTestKinds; ++K) {
    TestKind Kind = static_cast<TestKind>(K);
    Out += std::string(" ") + testKindName(Kind) + "=" +
           std::to_string(Total.decided(Kind)) + "/" +
           std::to_string(Total.decidedIndependent(Kind));
  }
  Out += " memo_full=" + std::to_string(Total.MemoHitsFull) +
         " memo_nobounds=" + std::to_string(Total.MemoHitsNoBounds) +
         " fm_work=" + std::to_string(Total.FmWork) +
         " widened=" + std::to_string(Total.WidenedQueries) +
         " cache_full=" + std::to_string(FullQ) + "/" +
         std::to_string(FullH) + " cache_dirs=" + std::to_string(DirQ) +
         "/" + std::to_string(DirH) + " cache_gcd=" +
         std::to_string(GcdQ) + "/" + std::to_string(GcdH) +
         " unique=" + std::to_string(UniqueFull) + "/" +
         std::to_string(UniqueDirs) + "/" + std::to_string(UniqueNb);
  return Out;
}

} // namespace

// Pins the paper-table counters of the whole suite: any change to pair
// enumeration, problem construction, constant-pair handling, memo keys
// or the cascade that moves a Table 1-5 number shows here.
TEST(Analyzer, SuiteCountersGolden) {
  AnalyzerOptions Plain; // The table-3 configuration.
  Plain.ComputeDirections = false;
  EXPECT_EQ(suiteCounters(Plain),
            "pairs=17940 unanalyzable=0 queries=12359 Constant=11866/4418 "
            "GCD=38/38 SVPC=364/49 Acyclic=53/6 LoopResidue=4/0 "
            "Fourier-Motzkin=34/12 Banerjee=0/0 Unanalyzable=0/0 "
            "memo_full=5581 memo_nobounds=203 fm_work=72 widened=0 "
            "cache_full=6074/5581 cache_dirs=0/0 cache_gcd=493/203 "
            "unique=493/0/290");

  AnalyzerOptions Directions; // Tables 4/5: directions on.
  Directions.ComputeDirections = true;
  EXPECT_EQ(suiteCounters(Directions),
            "pairs=17940 unanalyzable=0 queries=13190 Constant=11866/4418 "
            "GCD=38/38 SVPC=364/49 Acyclic=356/20 LoopResidue=460/202 "
            "Fourier-Motzkin=106/42 Banerjee=0/0 Unanalyzable=0/0 "
            "memo_full=5581 memo_nobounds=0 fm_work=96 widened=0 "
            "cache_full=0/0 cache_dirs=6074/5581 cache_gcd=0/0 "
            "unique=493/493/0");
}

//===----------------------------------------------------------------------===//
// Constant pairs: decided from the summaries exactly as if built
//===----------------------------------------------------------------------===//

namespace {

/// Analyzes \p P under \p Opts (no memoization effects matter: the
/// program is all constant or unanalyzable pairs) and holds every pair
/// to the direct statement of the constant-pair policy: build the pair
/// with the reference builder and run the pipeline on it. Also holds
/// the decision counters to the ones those runs record. Returns the
/// analysis for case-specific checks.
AnalysisResult expectConstantPairsAsBuilt(Program &P,
                                          const AnalyzerOptions &Opts) {
  AnalyzerOptions Run = Opts;
  Run.RunPrepass = false;
  DependenceAnalyzer Analyzer(Run);
  AnalysisResult R = Analyzer.analyze(P);
  DepStats Want;
  for (const DependencePair &Pair : R.Pairs) {
    std::string Where = refStr(P, R.Refs[Pair.RefA]) + " vs " +
                        refStr(P, R.Refs[Pair.RefB]);
    std::optional<BuiltProblem> B =
        referenceBuildProblem(P, R.Refs[Pair.RefA], R.Refs[Pair.RefB]);
    if (!B) {
      Want.recordDecision(TestKind::Unanalyzable, false);
      EXPECT_EQ(Pair.DecidedBy, TestKind::Unanalyzable) << Where;
      continue;
    }
    bool AllConstant = true;
    for (const XAffine &Eq : B->Problem.Equations)
      AllConstant = AllConstant && Eq.isConstant();
    EXPECT_TRUE(AllConstant) << "test program has a tested pair: " << Where;
    CascadeResult Outcome = testDependence(B->Problem, Opts.Cascade, &Want);
    EXPECT_EQ(Pair.Answer, Outcome.Answer) << Where;
    EXPECT_EQ(Pair.DecidedBy, Outcome.DecidedBy) << Where;
    EXPECT_EQ(Pair.Exact, Outcome.Exact && B->Exact) << Where;
    EXPECT_FALSE(Pair.FromCache) << Where;
  }
  EXPECT_EQ(R.Stats.Queries, Want.Queries);
  EXPECT_EQ(R.Stats.Decided, Want.Decided);
  EXPECT_EQ(R.Stats.DecidedIndependent, Want.DecidedIndependent);
  EXPECT_EQ(R.Stats.StageOverflow, Want.StageOverflow);
  EXPECT_EQ(R.Stats.StageWiden, Want.StageWiden);
  return R;
}

const DependencePair &pairOf(const AnalysisResult &R, const Program &P,
                             const std::string &A, const std::string &B) {
  for (const DependencePair &Pair : R.Pairs)
    if (refStr(P, R.Refs[Pair.RefA]) == A && refStr(P, R.Refs[Pair.RefB]) == B)
      return Pair;
  ADD_FAILURE() << "no pair " << A << " vs " << B;
  return R.Pairs.front();
}

/// Only constant pairs: each case has its own array.
const char *ConstantPairs = R"(program constants
  array a[100]
  array b[100][100]
  array e[100]
  array t[100]
  read n
  for i = 1 to 10 do
    a[n + 1] = a[n]
    b[2][n] = b[2][n] + b[3][n + 1]
  end
  for j = 5 to 1 do
    e[7] = e[7]
  end
  for k = 1 to 10 step 2 do
    t[9] = t[8]
  end
end
)";

} // namespace

// a[n+1] against a[n]: the symbolic parts cancel, so the pair is decided
// by the const stage (Table 1 counts it as Constant).
TEST(Analyzer, SymbolicOffsetPairIsConstant) {
  Program P = mustParse(ConstantPairs);
  AnalysisResult R = expectConstantPairsAsBuilt(P, {});
  const DependencePair &Pair =
      pairOf(R, P, "a[(n + 1)] (write at depth 1)", "a[n] (read at depth 1)");
  EXPECT_EQ(Pair.DecidedBy, TestKind::ArrayConstant);
  EXPECT_EQ(Pair.Answer, DepAnswer::Independent);
}

// An enclosing loop with constant bounds lo > hi never runs.
TEST(Analyzer, ConstantEmptyLoopMakesConstantPairIndependent) {
  Program P = mustParse(ConstantPairs);
  AnalysisResult R = expectConstantPairsAsBuilt(P, {});
  const DependencePair &Pair =
      pairOf(R, P, "e[7] (write at depth 1)", "e[7] (read at depth 1)");
  EXPECT_EQ(Pair.DecidedBy, TestKind::ArrayConstant);
  EXPECT_EQ(Pair.Answer, DepAnswer::Independent);
}

// Without a leading const stage, constant pairs are built and tested by
// the pipeline as given.
TEST(Analyzer, ConstantPairsWithoutConstStageRunThePipeline) {
  AnalyzerOptions Opts;
  Opts.Cascade.Pipeline = makePipeline("gcd,svpc,acyclic,residue,fm");
  ASSERT_NE(Opts.Cascade.Pipeline, nullptr);
  Program P = mustParse(ConstantPairs);
  AnalysisResult R = expectConstantPairsAsBuilt(P, Opts);
  for (const DependencePair &Pair : R.Pairs)
    EXPECT_NE(Pair.DecidedBy, TestKind::ArrayConstant);
}

// Not assuming the loops run leaves the dependent case to later stages.
TEST(Analyzer, ConstantPairsWithoutNonEmptyAssumption) {
  AnalyzerOptions Opts;
  Opts.Cascade.AssumeNonEmptyLoops = false;
  Program P = mustParse(ConstantPairs);
  AnalysisResult R = expectConstantPairsAsBuilt(P, Opts);
  const DependencePair &Same =
      pairOf(R, P, "a[(n + 1)] (write at depth 1)",
             "a[(n + 1)] (write at depth 1)");
  EXPECT_NE(Same.DecidedBy, TestKind::ArrayConstant);
  EXPECT_EQ(Same.Answer, DepAnswer::Dependent);
}

// A constant difference that overflows 64 bits leaves the pair
// unanalyzable, as the builder does.
TEST(Analyzer, OverflowingConstantDifferenceStaysUnanalyzable) {
  const char *Source = R"(program s
  array a[100]
  a[9223372036854775807] = a[0 - 1]
end
)";
  Program P = mustParse(Source);
  AnalysisResult R = expectConstantPairsAsBuilt(P, {});
  const DependencePair &Pair =
      pairOf(R, P, "a[9223372036854775807] (write at depth 0)",
             "a[-1] (read at depth 0)");
  EXPECT_EQ(Pair.DecidedBy, TestKind::Unanalyzable);
  EXPECT_EQ(R.UnanalyzablePairs, 1u);
}

// With tracing on, pairs decided without a build are built for their
// trace, which shows the const stage deciding.
TEST(Analyzer, TraceBuildsConstantPairs) {
  AnalyzerOptions Opts;
  Opts.Trace = true;
  Program P = mustParse(ConstantPairs);
  AnalysisResult R = expectConstantPairsAsBuilt(P, Opts);
  ASSERT_EQ(R.Traces.size(), R.Pairs.size());
  for (const std::optional<PipelineTrace> &Trace : R.Traces) {
    ASSERT_TRUE(Trace.has_value());
    ASSERT_FALSE(Trace->Stages.empty());
    EXPECT_EQ(Trace->Stages.front().Stage->kind(), TestKind::ArrayConstant);
  }
}
