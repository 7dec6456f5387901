//===- tests/integration/EndToEndTest.cpp - Trace-vs-analysis checks ------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strongest end-to-end property in the suite: run a program in the
/// interpreter, derive the *observed* dependences from its memory trace,
/// and check them against the analyzer's claims:
///
///   * a pair the analyzer calls Independent must show no conflicting
///     accesses in the trace (soundness — the paper's correctness bar);
///   * every observed conflict's direction sign pattern must be covered
///     by some reported direction vector;
///   * for exact Dependent answers on programs whose loops actually
///     execute, a conflict must really occur (exactness).
///
/// Optimization passes must not change which conflicts occur.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Interp.h"
#include "opt/Pipeline.h"
#include "testutil/Helpers.h"
#include "oracle/Oracle.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <map>
#include <set>
#include <span>

using namespace edda;
using namespace edda::testutil;
using namespace edda::oracle;

namespace {

using RefKey = std::pair<const AssignStmt *, int>;

/// Observed conflicts between two static references: the set of
/// direction sign patterns over the given common loops.
std::set<DirVector>
observedDirections(const InterpResult &Trace, const ArrayReference &A,
                   const ArrayReference &B,
                   std::span<const LoopStmt *const> CommonLoops) {
  std::set<DirVector> Out;
  std::vector<const AccessRecord *> AccA, AccB;
  for (const AccessRecord &Rec : Trace.Trace) {
    if (Rec.Stmt == A.Stmt && Rec.Slot == A.Slot)
      AccA.push_back(&Rec);
    if (Rec.Stmt == B.Stmt && Rec.Slot == B.Slot)
      AccB.push_back(&Rec);
  }
  for (const AccessRecord *RA : AccA) {
    for (const AccessRecord *RB : AccB) {
      if (RA->Indices != RB->Indices)
        continue;
      DirVector V;
      for (const LoopStmt *L : CommonLoops) {
        int64_t IA = 0, IB = 0;
        for (const auto &[Loop, Value] : RA->Iteration)
          if (Loop == L)
            IA = Value;
        for (const auto &[Loop, Value] : RB->Iteration)
          if (Loop == L)
            IB = Value;
        V.push_back(IA < IB   ? Dir::Less
                    : IA == IB ? Dir::Equal
                               : Dir::Greater);
      }
      Out.insert(std::move(V));
    }
  }
  return Out;
}

/// Full check of one program: analyze with directions, interpret, and
/// compare (see file comment).
void checkProgram(const std::string &Source, bool ExpectConflicts) {
  Program P = mustParse(Source, /*Prepass=*/false);
  AnalyzerOptions Opts;
  Opts.ComputeDirections = true;
  DependenceAnalyzer Analyzer(Opts);
  AnalysisResult R = Analyzer.analyze(P); // runs the prepass in place
  InterpResult Trace = interpret(P);
  ASSERT_TRUE(Trace.Ok) << Trace.Error;

  bool AnyConflict = false;
  for (const DependencePair &Pair : R.Pairs) {
    const ArrayReference &A = R.Refs[Pair.RefA];
    const ArrayReference &B = R.Refs[Pair.RefB];
    std::set<DirVector> Observed =
        observedDirections(Trace, A, B, Pair.CommonLoops);
    if (Pair.RefA == Pair.RefB) {
      // Drop the trivial identical-access "conflict" (same iteration):
      // the all-equal vector is always observed for a self pair.
      Observed.erase(DirVector(Pair.CommonLoops.size(), Dir::Equal));
    }
    AnyConflict = AnyConflict || !Observed.empty();

    if (Pair.Answer == DepAnswer::Independent) {
      EXPECT_TRUE(Observed.empty())
          << "analyzer claimed independence but the trace conflicts: "
          << refStr(P, A) << " vs " << refStr(P, B);
      continue;
    }
    if (!Pair.Directions)
      continue;
    for (const DirVector &Real : Observed) {
      bool Covered = false;
      for (const DirVector &Reported : Pair.Directions->Vectors)
        Covered = Covered || dirMatches(Reported, Real);
      EXPECT_TRUE(Covered)
          << "observed direction " << dirVectorStr(Real)
          << " not reported for " << refStr(P, A) << " vs "
          << refStr(P, B);
    }
  }
  if (ExpectConflicts)
    EXPECT_TRUE(AnyConflict) << "test expected real dependences";
}

} // namespace

TEST(EndToEnd, ClassicPatterns) {
  checkProgram(R"(program classic
  array a[200]
  array b[200]
  array c[200][200]
  for i = 1 to 20 do
    a[i + 1] = a[i] + 1
    b[i] = b[i + 20]
  end
  for i = 1 to 15 do
    for j = 1 to i do
      c[i][j] = c[i - 1][j + 1] + 2
    end
  end
end
)",
               /*ExpectConflicts=*/true);
}

TEST(EndToEnd, CoupledAndBanded) {
  checkProgram(R"(program coupled
  array a[400]
  array d[60]
  for i = 1 to 12 do
    for j = 1 to 12 do
      a[i + j] = a[i + j + 5] + 1
    end
  end
  for i = 1 to 12 do
    for j = i - 2 to i + 2 do
      d[j + 10] = d[j + 11] + 1
    end
  end
end
)",
               /*ExpectConflicts=*/true);
}

TEST(EndToEnd, PrepassHeavyProgram) {
  checkProgram(R"(program prepass
  array a[500]
  param n = 100
  iz = 0
  for i = 1 to 10 do
    iz = iz + 2
    a[iz + n] = a[iz + 2 * n + 1] + 3
  end
  k = 50
  for i = 1 to 19 step 2 do
    a[k + i] = a[k + i + 2] + 1
  end
end
)",
               /*ExpectConflicts=*/true);
}

TEST(EndToEnd, TransposedCoupling) {
  checkProgram(R"(program transposed
  array a[30][30]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j] = a[j][i] + 1
    end
  end
end
)",
               /*ExpectConflicts=*/true);
}

TEST(EndToEnd, MultipleWritesSameArray) {
  checkProgram(R"(program multiwrite
  array a[100]
  for i = 1 to 10 do
    a[2 * i] = 1
    a[2 * i + 1] = a[2 * i - 1] + 1
  end
end
)",
               /*ExpectConflicts=*/true);
}

TEST(EndToEnd, GeneratedWorkloadSample) {
  // A small slice of every synthetic PERFECT Club program goes through
  // the full trace comparison. Deep unused-loop wrapping multiplies
  // executed iterations, so the interpreter runs cap it.
  GeneratorOptions Opts;
  Opts.Scale = 0.01;
  Opts.MaxWrapDepth = 1;
  for (const auto &[Name, Source] : generatePerfectClubSuite(Opts)) {
    SCOPED_TRACE(Name);
    checkProgram(Source, /*ExpectConflicts=*/false);
  }
}

TEST(EndToEnd, SymbolicWorkloadSampleUnderConcreteN) {
  // Symbolic cases: pick n = 7 and check the (conservative, exact up to
  // the unknown) analysis covers the concrete behaviour.
  GeneratorOptions Opts;
  Opts.Scale = 0.02;
  Opts.IncludeSymbolic = true;
  Opts.MaxWrapDepth = 1;
  auto Suite = generatePerfectClubSuite(Opts);
  const std::string &Source = Suite[5].second; // NA: symbolic-rich
  Program P = mustParse(Source, /*Prepass=*/false);
  AnalyzerOptions AOpts;
  AOpts.ComputeDirections = true;
  DependenceAnalyzer Analyzer(AOpts);
  AnalysisResult R = Analyzer.analyze(P);
  InterpOptions IOpts;
  if (std::optional<unsigned> N = P.lookupVar("n"))
    IOpts.SymbolicValues[*N] = 7;
  InterpResult Trace = interpret(P, IOpts);
  ASSERT_TRUE(Trace.Ok) << Trace.Error;
  for (const DependencePair &Pair : R.Pairs) {
    if (Pair.Answer != DepAnswer::Independent)
      continue;
    std::set<DirVector> Observed = observedDirections(
        Trace, R.Refs[Pair.RefA], R.Refs[Pair.RefB], Pair.CommonLoops);
    if (Pair.RefA == Pair.RefB)
      Observed.erase(DirVector(Pair.CommonLoops.size(), Dir::Equal));
    EXPECT_TRUE(Observed.empty());
  }
}

TEST(EndToEnd, OptimizationPreservesTraceSemantics) {
  // The prepass must not change the observable memory behaviour of any
  // generated program.
  GeneratorOptions Opts;
  Opts.Scale = 0.01;
  Opts.MaxWrapDepth = 1;
  for (const auto &[Name, Source] : generatePerfectClubSuite(Opts)) {
    SCOPED_TRACE(Name);
    Program P = mustParse(Source, /*Prepass=*/false);
    Program Before(P);
    runPrepass(P);
    InterpResult R1 = interpret(Before);
    InterpResult R2 = interpret(P);
    ASSERT_TRUE(R1.Ok);
    ASSERT_TRUE(R2.Ok);
    EXPECT_EQ(R1.Memory, R2.Memory);
  }
}
