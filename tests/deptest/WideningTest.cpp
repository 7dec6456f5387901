//===- tests/deptest/WideningTest.cpp - 128-bit widening ladder -----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The widening arithmetic ladder end to end: queries the seed gave up
/// as Unanalyzable now decide at 128 bits (with verified witnesses),
/// --no-widen reproduces the historical behavior, widen provenance is
/// permutation-invariant like overflow provenance, traces and stats
/// surface the retry, and the memo cache round-trips the Widened bit
/// (rejecting pre-widening v3 files).
///
//===----------------------------------------------------------------------===//

#include "deptest/Cascade.h"

#include "deptest/Memo.h"
#include "deptest/Stats.h"
#include "deptest/TestPipeline.h"
#include "testutil/Helpers.h"
#include "gtest/gtest.h"

#include <climits>
#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

using namespace edda;
using namespace edda::testutil;

namespace {

/// 3i - 7i' + 1 = 0 over near-full int64 ranges: solvable, but every
/// 64-bit path through the bounds projection poisons. The canonical
/// "seed says Unanalyzable, ladder decides" problem (also pinned in
/// tests/inputs/corpus/widen_svpc_huge_bounds.dep).
DependenceProblem hugeBoundsProblem() {
  return ProblemBuilder(1, 1, 1)
      .eq({3, -7}, 1)
      .bounds(0, INT64_MIN + 2, INT64_MAX - 2)
      .bounds(1, INT64_MIN + 2, INT64_MAX - 2)
      .build();
}

/// A small problem the 64-bit tier decides outright; the ladder must
/// stay idle on it.
DependenceProblem easyProblem() {
  return ProblemBuilder(1, 1, 1)
      .eq({2, -2}, -1)
      .bounds(0, 1, 10)
      .bounds(1, 1, 10)
      .build();
}

} // namespace

TEST(Widening, FlipsUnanalyzableToDecisive) {
  DependenceProblem P = hugeBoundsProblem();

  CascadeResult R = testDependence(P);
  EXPECT_EQ(R.Answer, DepAnswer::Dependent);
  EXPECT_TRUE(R.Exact);
  EXPECT_TRUE(R.Widened);
  ASSERT_TRUE(R.Witness.has_value());
  EXPECT_TRUE(verifyWitness(P, *R.Witness));

  // --no-widen is the seed's 64-bit-only cascade.
  CascadeOptions NoWiden;
  NoWiden.Widen = false;
  CascadeResult RN = testDependence(P, NoWiden);
  EXPECT_EQ(RN.Answer, DepAnswer::Unknown);
  EXPECT_EQ(RN.DecidedBy, TestKind::Unanalyzable);
  EXPECT_FALSE(RN.Widened);
}

TEST(Widening, LadderStaysIdleOnTheFastPath) {
  DependenceProblem P = easyProblem();
  DepStats Stats;
  CascadeResult R = testDependence(P, {}, &Stats);
  CascadeOptions NoWiden;
  NoWiden.Widen = false;
  CascadeResult RN = testDependence(P, NoWiden);
  EXPECT_FALSE(R.Widened);
  EXPECT_EQ(R.Answer, RN.Answer);
  EXPECT_EQ(R.DecidedBy, RN.DecidedBy);
  EXPECT_EQ(R.Exact, RN.Exact);
  EXPECT_EQ(Stats.WidenedQueries, 0u);
  for (uint64_t N : Stats.StageWiden)
    EXPECT_EQ(N, 0u);
}

TEST(Widening, StatsCountWidenedQueriesWithProvenance) {
  DependenceProblem P = hugeBoundsProblem();
  DepStats Stats;
  CascadeResult R = testDependence(P, {}, &Stats);
  ASSERT_EQ(R.Answer, DepAnswer::Dependent);
  EXPECT_EQ(Stats.WidenedQueries, 1u);
  uint64_t Total = 0;
  for (uint64_t N : Stats.StageWiden)
    Total += N;
  EXPECT_EQ(Total, 1u);
  // Shared-prep widening is booked against the extended-GCD stage,
  // mirroring overflow provenance.
  EXPECT_EQ(Stats.StageWiden[static_cast<unsigned>(TestKind::GcdTest)], 1u);
  EXPECT_NE(Stats.str().find("widened in stage 'gcd': 1"), std::string::npos)
      << Stats.str();
  EXPECT_NE(Stats.str().find("widened: 1"), std::string::npos)
      << Stats.str();
}

TEST(Widening, ProvenanceIsOrderIndependent) {
  DependenceProblem P = hugeBoundsProblem();
  DepStats Default;
  CascadeResult RD =
      TestPipeline::defaultPipeline().run(P, {}, {}, &Default);
  ASSERT_EQ(RD.Answer, DepAnswer::Dependent);

  std::optional<TestPipeline> Reversed =
      TestPipeline::parse("const,fm,residue,acyclic,svpc,gcd");
  ASSERT_TRUE(Reversed.has_value());
  DepStats Stats;
  CascadeResult R = Reversed->run(P, {}, {}, &Stats);
  EXPECT_EQ(R.Answer, RD.Answer);
  EXPECT_TRUE(R.Widened);
  EXPECT_EQ(Stats.WidenedQueries, Default.WidenedQueries);
  // The same stage must carry the count under both orders.
  EXPECT_EQ(Stats.StageWiden, Default.StageWiden);
}

TEST(Widening, TraceMarksTheWidenedStage) {
  DependenceProblem P = hugeBoundsProblem();
  PipelineTrace Trace;
  CascadeResult R = TestPipeline::defaultPipeline().run(
      P, {}, {}, /*Stats=*/nullptr, &Trace);
  ASSERT_EQ(R.Answer, DepAnswer::Dependent);
  bool Marked = false;
  for (const StageTrace &T : Trace.Stages)
    Marked = Marked || T.Result.Widened;
  EXPECT_TRUE(Marked);
  EXPECT_NE(Trace.str().find("widened to 128-bit"), std::string::npos)
      << Trace.str();
}

TEST(Widening, MemoRoundTripsTheWidenedBit) {
  DependenceProblem Wide = hugeBoundsProblem();
  DependenceProblem Narrow = easyProblem();
  DependenceCache Before;
  Before.insertFull(Wide, testDependence(Wide));
  Before.insertFull(Narrow, testDependence(Narrow));

  std::string Path =
      "widening-memo-" + std::to_string(::getpid()) + ".cache";
  ASSERT_TRUE(Before.saveToFile(Path));
  DependenceCache After;
  ASSERT_TRUE(After.loadFromFile(Path));
  std::remove(Path.c_str());

  std::optional<CascadeResult> W = After.lookupFull(Wide);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->Answer, DepAnswer::Dependent);
  EXPECT_TRUE(W->Widened);
  std::optional<CascadeResult> N = After.lookupFull(Narrow);
  ASSERT_TRUE(N.has_value());
  EXPECT_FALSE(N->Widened);
}

TEST(Widening, MemoRejectsPreWideningCacheVersions) {
  // A v3 cache predates the Widened bit and a v4 cache predates the
  // direction entries' Widened/RootWidened bits; results that were
  // Unanalyzable then can be decisive now (and direction widening
  // provenance would silently read as false), so stale files must be
  // rejected whole.
  for (const char *Header : {"edda-depcache 3\n0\n0\n0\n",
                             "edda-depcache 4\n0\n0\n0\n"}) {
    std::string Path =
        "widening-stale-" + std::to_string(::getpid()) + ".cache";
    {
      std::ofstream Out(Path);
      Out << Header;
    }
    DependenceCache C;
    EXPECT_FALSE(C.loadFromFile(Path)) << Header;
    std::remove(Path.c_str());
  }
}

TEST(Widening, ConstrainedQueriesWidenToo) {
  // The constrained (direction-vector) entry point takes the same
  // ladder: add a loop-independent-excluding constraint and the wide
  // tier must still find the remaining solutions.
  DependenceProblem P = hugeBoundsProblem();
  std::vector<XAffine> Less;
  {
    // i - i' + 1 <= 0, i.e. require i < i'.
    XAffine F(P.numX());
    F.Coeffs[0] = 1;
    F.Coeffs[1] = -1;
    F.Const = 1;
    Less.push_back(F);
  }
  CascadeResult R = testDependenceConstrained(P, Less);
  if (R.Answer == DepAnswer::Dependent && R.Witness) {
    EXPECT_TRUE(verifyWitness(P, *R.Witness, Less));
    EXPECT_LT((*R.Witness)[0], (*R.Witness)[1]);
  } else {
    // Whatever the verdict, the constrained path must not claim
    // exactness it does not have.
    EXPECT_NE(R.Answer, DepAnswer::Independent);
  }
}
