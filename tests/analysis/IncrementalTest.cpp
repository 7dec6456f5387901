//===- tests/analysis/IncrementalTest.cpp - Incremental re-analysis -------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the edit-loop stack: reference content fingerprints
/// (stable across reparse, bound-sensitive), Analyzer::reanalyze
/// splicing (bit-identical to from-scratch analysis, reuse counters
/// honest), IncrementalSession graph maintenance, and, on every
/// PERFECT-style suite program, the single-edit reuse claim (a
/// one-statement edit re-runs a small fraction of the reference pairs,
/// proved by counters, not wall time) and bit-identity across random
/// edit sessions.
///
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"

#include "analysis/Analyzer.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Refs.h"
#include "ir/Expr.h"
#include "parser/Parser.h"
#include "serve/Render.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace edda;

namespace {

Program parse(const std::string &Source) {
  ParseResult PR = parseProgram(Source);
  EXPECT_TRUE(PR.succeeded()) << Source;
  return std::move(*PR.Prog);
}

/// A nest with enough distinct pairs that single edits leave most of
/// them untouched.
const char *editableSource() {
  return "program edits\n"
         "  array a[100]\n"
         "  array b[100]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 1\n"
         "    b[2 * i] = b[2 * i + 1] + a[i]\n"
         "  end\n"
         "  for i = 1 to 20 do\n"
         "    a[i] = b[i] + 2\n"
         "  end\n"
         "end\n";
}

/// The same statements under a different second-loop bound.
const char *editableSourceWiderBound() {
  return "program edits\n"
         "  array a[100]\n"
         "  array b[100]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 1\n"
         "    b[2 * i] = b[2 * i + 1] + a[i]\n"
         "  end\n"
         "  for i = 1 to 25 do\n"
         "    a[i] = b[i] + 2\n"
         "  end\n"
         "end\n";
}

AnalyzerOptions directionOptions() {
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  return AO;
}

/// Renders result + graph the way the identity checks compare them.
std::string renderAll(const Program &Prog, const AnalysisResult &Result,
                      const DependenceGraph &Graph) {
  ReportOptions Report;
  Report.Directions = true;
  Report.CacheMarkers = false;
  return renderAnalysisReport(Prog, Result, Report) + "\n" +
         Graph.str(Prog);
}

/// The graph a cold analyzer builds from \p Source: what a session's
/// spliced graph must equal after every edit.
std::string scratchGraph(const std::string &Source) {
  DependenceAnalyzer Analyzer(directionOptions());
  Program Prog = parse(Source);
  return DependenceGraph::build(Prog, Analyzer).str(Prog);
}

} // namespace

TEST(Fingerprint, StableAcrossPrintReparse) {
  Program A = parse(editableSource());
  Program B = parse(A.print());
  std::vector<ArrayReference> RefsA = collectReferences(A);
  std::vector<ArrayReference> RefsB = collectReferences(B);
  ASSERT_EQ(RefsA.size(), RefsB.size());
  for (size_t I = 0; I < RefsA.size(); ++I) {
    EXPECT_NE(RefsA[I].Fingerprint, 0u);
    EXPECT_EQ(RefsA[I].Fingerprint, RefsB[I].Fingerprint) << I;
    EXPECT_EQ(RefsA[I].FingerprintNoBounds, RefsB[I].FingerprintNoBounds)
        << I;
  }
}

TEST(Fingerprint, SameTextDifferentBoundsSplitsOnlyFullFingerprint) {
  // Keep the parsed programs alive while comparing: references hold
  // statement pointers.
  Program NarrowProg = parse(editableSource());
  Program WideProg = parse(editableSourceWiderBound());
  std::vector<ArrayReference> A = collectReferences(NarrowProg);
  std::vector<ArrayReference> B = collectReferences(WideProg);
  ASSERT_EQ(A.size(), B.size());
  bool SawSplit = false;
  for (size_t I = 0; I < A.size(); ++I) {
    // The statement text is identical everywhere, so the bounds-free
    // fingerprint never moves...
    EXPECT_EQ(A[I].FingerprintNoBounds, B[I].FingerprintNoBounds) << I;
    // ...but references under the edited bound must split their full
    // fingerprint (this is exactly what the stale-fingerprint injected
    // bug erases).
    if (A[I].Fingerprint != B[I].Fingerprint)
      SawSplit = true;
  }
  EXPECT_TRUE(SawSplit);
  // References in the untouched first nest keep both fingerprints.
  EXPECT_EQ(A[0].Fingerprint, B[0].Fingerprint);
}

TEST(Fingerprint, SymbolicBoundEditIsVisible) {
  const char *Sym = "program sym\n"
                    "  array a[100]\n"
                    "  read n\n"
                    "  for i = 1 to n do\n"
                    "    a[i + 1] = a[i]\n"
                    "  end\n"
                    "end\n";
  const char *SymEdited = "program sym\n"
                          "  array a[100]\n"
                          "  read n\n"
                          "  for i = 1 to n + 1 do\n"
                          "    a[i + 1] = a[i]\n"
                          "  end\n"
                          "end\n";
  Program A = parse(Sym);
  Program B = parse(SymEdited);
  std::vector<ArrayReference> RA = collectReferences(A);
  std::vector<ArrayReference> RB = collectReferences(B);
  ASSERT_EQ(RA.size(), RB.size());
  for (size_t I = 0; I < RA.size(); ++I) {
    EXPECT_NE(RA[I].Fingerprint, RB[I].Fingerprint) << I;
    EXPECT_EQ(RA[I].FingerprintNoBounds, RB[I].FingerprintNoBounds) << I;
  }
}

TEST(Incremental, ReanalyzeIsBitIdenticalToFresh) {
  // One analyzer holds the session; an independent one provides the
  // from-scratch truth for the edited program.
  DependenceAnalyzer Session(directionOptions());
  Program Base = parse(editableSource());
  AnalysisResult Before = Session.analyze(Base);

  Program Edited = parse("program edits\n"
                         "  array a[100]\n"
                         "  array b[100]\n"
                         "  for i = 1 to 10 do\n"
                         "    a[i + 2] = a[i] + 1\n"
                         "    b[2 * i] = b[2 * i + 1] + a[i]\n"
                         "  end\n"
                         "  for i = 1 to 20 do\n"
                         "    a[i] = b[i] + 2\n"
                         "  end\n"
                         "end\n");
  ReanalyzeStats RS;
  AnalysisResult Spliced = Session.reanalyze(Edited, Before, &RS);

  DependenceAnalyzer FreshAnalyzer(directionOptions());
  Program FreshProg = parse(Edited.print());
  AnalysisResult Fresh = FreshAnalyzer.analyze(FreshProg);

  EXPECT_EQ(renderAll(Edited, Spliced,
                      DependenceGraph::buildFromResult(Spliced)),
            renderAll(FreshProg, Fresh,
                      DependenceGraph::buildFromResult(Fresh)));

  // The edit touched one statement: most pairs splice through.
  EXPECT_EQ(RS.PairsTotal, Spliced.Pairs.size());
  EXPECT_EQ(RS.PairsReused + RS.PairsInvalidated, RS.PairsTotal);
  EXPECT_GT(RS.PairsReused, 0u);
  EXPECT_LT(RS.PairsInvalidated, RS.PairsTotal);
}

TEST(Incremental, BoundEditInvalidatesAffectedPairsOnly) {
  DependenceAnalyzer Session(directionOptions());
  Program Base = parse(editableSource());
  AnalysisResult Before = Session.analyze(Base);

  Program Edited = parse(editableSourceWiderBound());
  ReanalyzeStats RS;
  AnalysisResult Spliced = Session.reanalyze(Edited, Before, &RS);

  // Pairs wholly inside the untouched first nest are reused; pairs
  // touching the widened loop are re-run.
  EXPECT_GT(RS.PairsReused, 0u);
  EXPECT_GT(RS.PairsInvalidated, 0u);

  DependenceAnalyzer FreshAnalyzer(directionOptions());
  Program FreshProg = parse(editableSourceWiderBound());
  AnalysisResult Fresh = FreshAnalyzer.analyze(FreshProg);
  EXPECT_EQ(renderAll(Edited, Spliced,
                      DependenceGraph::buildFromResult(Spliced)),
            renderAll(FreshProg, Fresh,
                      DependenceGraph::buildFromResult(Fresh)));
}

TEST(Incremental, SessionTracksInsertAndDelete) {
  IncrementalSession Session{directionOptions()};
  EXPECT_FALSE(Session.hasProgram());

  ReanalyzeStats First = Session.update(parse(editableSource()));
  ASSERT_TRUE(Session.hasProgram());
  EXPECT_EQ(First.PairsInvalidated, First.PairsTotal);
  uint64_t BasePairs = First.PairsTotal;

  // Delete the second nest entirely: the survivors splice, the
  // vanished pairs surface as stale memo keys.
  ReanalyzeStats Deleted =
      Session.update(parse("program edits\n"
                           "  array a[100]\n"
                           "  array b[100]\n"
                           "  for i = 1 to 10 do\n"
                           "    a[i + 1] = a[i] + 1\n"
                           "    b[2 * i] = b[2 * i + 1] + a[i]\n"
                           "  end\n"
                           "end\n"));
  EXPECT_LT(Deleted.PairsTotal, BasePairs);
  EXPECT_EQ(Deleted.PairsReused, Deleted.PairsTotal);
  EXPECT_EQ(Deleted.PairsInvalidated, 0u);

  // Re-insert it: the restored pairs are the only fresh work.
  ReanalyzeStats Restored = Session.update(parse(editableSource()));
  EXPECT_EQ(Restored.PairsTotal, BasePairs);
  EXPECT_GT(Restored.PairsInvalidated, 0u);
  EXPECT_GT(Restored.PairsReused, 0u);

  // And the live graph matches a from-scratch build at every step.
  EXPECT_EQ(Session.graph().str(Session.program()),
            scratchGraph(editableSource()));
}

TEST(Incremental, RandomEditSequenceStaysIdentical) {
  // A deterministic mini version of the fuzzer's incr axis: apply
  // generator edits (subscript, right-hand side or bound tweaks,
  // statement inserts and deletes), re-parsing after each, and hold the
  // spliced graph to the from-scratch one; first on a small program,
  // then on every synthetic PERFECT Club program. Most edits leave every
  // answer unchanged, but at these seeds a bound edit on NA does not,
  // which catches a reuse key that forgets the loop bounds.
  auto CheckEdits = [](const std::string &Source, uint64_t Seed,
                       int Steps) {
    IncrementalSession Session{directionOptions()};
    Program Master = parse(Source);
    Session.update(Program(Master));
    SplitRng Rng(Seed);
    for (int Step = 0; Step < Steps; ++Step) {
      std::string Desc = applyRandomEdit(Master, Rng);
      ParseResult Reparsed = parseProgram(Master.print());
      ASSERT_TRUE(Reparsed.succeeded()) << Desc << "\n" << Master.print();
      Master = std::move(*Reparsed.Prog);
      Session.update(Program(Master));
      ASSERT_EQ(Session.graph().str(Session.program()),
                scratchGraph(Master.print()))
          << "step " << Step << " (" << Desc << ")";
    }
  };
  CheckEdits(editableSource(), 7, 6);
  const std::vector<ProgramProfile> &Profiles = perfectClubProfiles();
  for (size_t I = 0; I < Profiles.size(); ++I) {
    SCOPED_TRACE(Profiles[I].Name);
    CheckEdits(generateProgramSource(Profiles[I], GeneratorOptions()),
               0x5eed + I * 131 + 8, 8);
  }
}

TEST(Incremental, PerfectSingleEditRerunsUnderTenPercent) {
  // The acceptance criterion for the edit loop, on every synthetic
  // PERFECT Club program: a one-statement subscript edit re-runs fewer
  // than 10% of the reference pairs (counters, not wall time), and the
  // spliced graph equals a from-scratch build of the edited source.
  for (const ProgramProfile &Profile : perfectClubProfiles()) {
    SCOPED_TRACE(Profile.Name);
    Program Master =
        parse(generateProgramSource(Profile, GeneratorOptions()));
    IncrementalSession Session{directionOptions()};
    Session.update(Program(Master));

    // Find a deterministic seed whose edit is a single-statement
    // subscript change (the edit kinds are seed-driven).
    std::string Edited;
    for (uint64_t Seed = 1; Seed < 64 && Edited.empty(); ++Seed) {
      Program Candidate(Master);
      SplitRng Rng(Seed);
      if (applyRandomEdit(Candidate, Rng).rfind("subscript", 0) == 0)
        Edited = Candidate.print();
    }
    ASSERT_FALSE(Edited.empty()) << "no subscript edit among the seeds";
    ReanalyzeStats RS = Session.update(parse(Edited));
    ASSERT_GT(RS.PairsTotal, 20u) << "workload too small to be meaningful";
    EXPECT_LT(RS.PairsInvalidated * 10, RS.PairsTotal)
        << RS.PairsInvalidated << " of " << RS.PairsTotal
        << " pairs re-ran";
    EXPECT_EQ(Session.graph().str(Session.program()),
              scratchGraph(Edited));
  }
}

TEST(Incremental, StaleKeysFeedCacheInvalidation) {
  DependenceAnalyzer Session(directionOptions());
  Program Base = parse(editableSource());
  AnalysisResult Before = Session.analyze(Base);

  // Deleting the second nest orphans its pair keys.
  Program Edited = parse("program edits\n"
                         "  array a[100]\n"
                         "  array b[100]\n"
                         "  for i = 1 to 10 do\n"
                         "    a[i + 1] = a[i] + 1\n"
                         "    b[2 * i] = b[2 * i + 1] + a[i]\n"
                         "  end\n"
                         "end\n");
  ReanalyzeStats RS;
  Session.reanalyze(Edited, Before, &RS);
  EXPECT_FALSE(RS.StaleKeys.empty());
  // The keys are sorted and unique, ready for invalidateFingerprints.
  for (size_t I = 1; I < RS.StaleKeys.size(); ++I)
    EXPECT_LT(RS.StaleKeys[I - 1], RS.StaleKeys[I]);
  // Feeding them back drops only entries tagged with dead pair keys.
  uint64_t Removed = Session.cache().invalidateFingerprints(RS.StaleKeys);
  EXPECT_GT(Removed, 0u);
}
