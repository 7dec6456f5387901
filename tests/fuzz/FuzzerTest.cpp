//===- tests/fuzz/FuzzerTest.cpp - Differential fuzzer self-checks --------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer fuzzing itself is only evidence if the harness works:
/// these tests pin (a) seed determinism, (b) that a clean tree produces
/// zero mismatches, (c) that a deliberately injected wrong-sign bug is
/// caught *and* shrunk to a tiny reproducer, and (d) the symbolic
/// soundness property (an Independent verdict admits no sampled
/// valuation that depends).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <functional>

#include "deptest/Cascade.h"
#include "deptest/ProblemIO.h"
#include "fuzz/ProblemGen.h"
#include "fuzz/Shrink.h"
#include "oracle/Oracle.h"
#include "parser/Parser.h"
#include "gtest/gtest.h"

using namespace edda;
using namespace edda::fuzz;
using namespace edda::oracle;

namespace {

FuzzOptions quickOptions(uint64_t Seed, uint64_t Count) {
  FuzzOptions Opts;
  Opts.Seed = Seed;
  Opts.Count = Count;
  Opts.Threads = 2; // Keep the parallel axis cheap under ctest load.
  return Opts;
}

} // namespace

TEST(Fuzzer, SameSeedIsDeterministic) {
  // 150 iterations keeps both runs under ctest's parallel-load budget
  // with the dirs axis replaying eight option combinations per
  // problem; determinism is a per-iteration property, so the shorter
  // stream loses no checking power.
  FuzzSummary A = runFuzz(quickOptions(11, 150));
  FuzzSummary B = runFuzz(quickOptions(11, 150));
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.Problems, B.Problems);
  EXPECT_EQ(A.Programs, B.Programs);
  EXPECT_EQ(A.OracleConclusive, B.OracleConclusive);
  ASSERT_EQ(A.Failures.size(), B.Failures.size());
  for (size_t I = 0; I < A.Failures.size(); ++I) {
    EXPECT_EQ(A.Failures[I].Iteration, B.Failures[I].Iteration);
    EXPECT_EQ(A.Failures[I].Reproducer, B.Failures[I].Reproducer);
  }
}

TEST(Fuzzer, DifferentSeedsGenerateDifferentStreams) {
  SplitRng RngA(1), RngB(2);
  bool AnyDiffer = false;
  for (unsigned I = 0; I < 10; ++I)
    AnyDiffer |= randomFuzzProblem(RngA).serialize(true) !=
                 randomFuzzProblem(RngB).serialize(true);
  EXPECT_TRUE(AnyDiffer);
}

TEST(Fuzzer, CleanTreeHasNoMismatches) {
  FuzzSummary S = runFuzz(quickOptions(3, 600));
  EXPECT_TRUE(S.ok()) << S.Failures.size() << " failure(s), first: "
                      << (S.Failures.empty() ? ""
                                             : S.Failures[0].Detail + "\n" +
                                                   S.Failures[0].Reproducer);
  EXPECT_EQ(S.Iterations, 600u);
  // The generator must keep the enumeration oracle in play, otherwise
  // the oracle axis silently checks nothing.
  EXPECT_GT(S.OracleConclusive, S.Problems / 2);
  EXPECT_GT(S.Programs, 0u);
}

TEST(Fuzzer, InjectedBugIsCaughtAndShrunk) {
  FuzzOptions Opts = quickOptions(1, 2000);
  Opts.Bug = "negate-eq-const";
  FuzzSummary S = runFuzz(Opts);
  ASSERT_FALSE(S.ok()) << "wrong-sign bug escaped 2000 iterations";

  // Every problem reproducer must be a valid .dep file (comment headers
  // included) shrunk to the acceptance envelope: at most 2 loop
  // variables — i.e. at most one reference pair's worth of loops — and
  // at most 2 equations (array dimensions).
  unsigned ProblemRepros = 0;
  for (const FuzzFailure &F : S.Failures) {
    if (F.IsProgram)
      continue;
    ++ProblemRepros;
    SCOPED_TRACE(F.Reproducer);
    ProblemParseResult Parsed = parseProblemText(F.Reproducer);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    EXPECT_TRUE(Parsed.Problem->wellFormed());
    EXPECT_LE(Parsed.Problem->numLoopVars(), 2u);
    EXPECT_LE(Parsed.Problem->Equations.size(), 2u);
  }
  EXPECT_GE(ProblemRepros, 1u);
}

TEST(Fuzzer, EveryPlantedBugIsCaughtByItsAxisAlone) {
  // Walks the axis table: each planted bug must be caught by the axis
  // that lists it, with no other axis enabled. A bug listed under an
  // axis that cannot see it fails here.
  unsigned Bugs = 0;
  for (const FuzzAxisSpec &A : fuzzAxes())
    for (const PlantedBug &B : A.Bugs) {
      SCOPED_TRACE(std::string(A.Name) + " / " + B.Name);
      ++Bugs;
      FuzzOptions Opts = quickOptions(1, 2000);
      Opts.Axes = {A.Name};
      Opts.Bug = B.Name;
      Opts.MaxFailures = 1;
      FuzzSummary S = runFuzz(Opts);
      ASSERT_FALSE(S.ok()) << "escaped 2000 iterations";
      EXPECT_EQ(S.Failures[0].Axis, A.Name);
    }
  EXPECT_GE(Bugs, 5u);
}

TEST(Fuzzer, MisSignedPruningBugIsCaughtAndShrunk) {
  // The direction-pruning variant: the injected bug is a
  // DirectionOptions hook rather than a problem perturbation, so only
  // the dirs axis can see it — run it alone.
  FuzzOptions Opts = quickOptions(1, 2000);
  Opts.Bug = "dir-prune-sign";
  Opts.Axes = {"dirs"};
  FuzzSummary S = runFuzz(Opts);
  ASSERT_FALSE(S.ok()) << "mis-signed pruning escaped 2000 iterations";

  unsigned ProblemRepros = 0;
  for (const FuzzFailure &F : S.Failures) {
    if (F.IsProgram)
      continue;
    ++ProblemRepros;
    SCOPED_TRACE(F.Reproducer);
    ProblemParseResult Parsed = parseProblemText(F.Reproducer);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    EXPECT_TRUE(Parsed.Problem->wellFormed());
    // Shrunk to the acceptance envelope: at most 2 loop variables (one
    // common pair carrying the mis-signed distance).
    EXPECT_LE(Parsed.Problem->numLoopVars(), 2u);
    EXPECT_LE(Parsed.Problem->Equations.size(), 2u);
  }
  EXPECT_GE(ProblemRepros, 1u);
}

TEST(Fuzzer, FmDarkShadowBugIsCaughtAndShrunk) {
  // The dark-shadow variant: an off-by-one in the Omega-style
  // dark-shadow offset (a-1)(c-1) lets FM claim integer points for
  // systems only the rational relaxation satisfies. The bug rides in
  // as a FourierMotzkinOptions hook (the problem text stays honest),
  // so the oracle axis sees it as an unsound Dependent — either
  // directly against enumeration or through an invalid witness — and
  // the dirs axis sees disagreeing roots. Run those two axes alone.
  FuzzOptions Opts = quickOptions(1, 2000);
  Opts.Bug = "fm-dark-shadow";
  Opts.Axes = {"oracle", "dirs"};
  FuzzSummary S = runFuzz(Opts);
  ASSERT_FALSE(S.ok()) << "dark-shadow off-by-one escaped 2000 iterations";

  unsigned ProblemRepros = 0;
  for (const FuzzFailure &F : S.Failures) {
    if (F.IsProgram)
      continue;
    ++ProblemRepros;
    SCOPED_TRACE(F.Reproducer);
    ProblemParseResult Parsed = parseProblemText(F.Reproducer);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    EXPECT_TRUE(Parsed.Problem->wellFormed());
    // Shrunk to the acceptance envelope: a dark-shadow miss needs a
    // genuinely coupled system (earlier cascade stages decide anything
    // smaller exactly), so the floor is higher than for the
    // transcription bugs — but shrinking must still strip the problem
    // to the coupled core.
    EXPECT_LE(Parsed.Problem->numLoopVars(), 4u);
    EXPECT_LE(Parsed.Problem->Equations.size(), 2u);
  }
  EXPECT_GE(ProblemRepros, 1u);
}

TEST(Fuzzer, XformAxisCleanOnRandomPrograms) {
  // The transformation-search axis alone: skew probes on every perfect
  // loop pair plus a small beam search per program, each held against
  // the prediction audit, the interpreter and a from-scratch
  // re-analysis of the claimed-parallel loops.
  FuzzOptions Opts = quickOptions(6, 400);
  Opts.Axes = {"xform"};
  FuzzSummary S = runFuzz(Opts);
  EXPECT_TRUE(S.ok()) << S.Failures.size()
                      << " xform mismatches; first: "
                      << (S.Failures.empty() ? ""
                                             : S.Failures[0].Detail);
}

TEST(Fuzzer, WidthAxisCleanOnRandomPrograms) {
  // The width/coarsening axis alone: analyzeWidths on every generated
  // program, every claim held against validateWidths' trace-mined
  // distances and chunked re-execution in both lane orders.
  FuzzOptions Opts = quickOptions(6, 400);
  Opts.Axes = {"width"};
  FuzzSummary S = runFuzz(Opts);
  EXPECT_TRUE(S.ok()) << S.Failures.size()
                      << " width mismatches; first: "
                      << (S.Failures.empty() ? ""
                                             : S.Failures[0].Detail);
}

TEST(Fuzzer, MisSignedSkewBugIsCaughtAndShrunk) {
  // The xform fault injection: every skew applies the opposite factor
  // while the audit predicts with the requested one. The mis-applied
  // skew is still a valid order-preserving reindexing — semantics are
  // preserved and the interpreter cannot tell — so only the xform
  // axis's skewVector prediction audit can catch it. Run the axis
  // alone and demand minimized whole-program reproducers.
  FuzzOptions Opts = quickOptions(5, 2000);
  Opts.Bug = "skew-sign";
  Opts.Axes = {"xform"};
  FuzzSummary S = runFuzz(Opts);
  ASSERT_FALSE(S.ok()) << "mis-signed skew escaped 2000 iterations";

  for (const FuzzFailure &F : S.Failures) {
    SCOPED_TRACE(F.Reproducer);
    EXPECT_EQ(F.Axis, "xform");
    EXPECT_TRUE(F.IsProgram);
    EXPECT_FALSE(F.Detail.empty());
    // The reproducer is a parseable program shrunk to a nest the
    // probe still catches: a single perfect loop pair suffices.
    ParseResult PR = parseProgram(F.Reproducer);
    ASSERT_TRUE(PR.succeeded());
    unsigned Loops = 0;
    std::function<void(const std::vector<StmtPtr> &)> Count =
        [&](const std::vector<StmtPtr> &Body) {
          for (const StmtPtr &S2 : Body)
            if (S2->kind() == StmtKind::Loop) {
              ++Loops;
              Count(asLoop(*S2).body());
            }
        };
    Count(PR.Prog->body());
    EXPECT_LE(Loops, 3u);
  }
}

TEST(Fuzzer, SampledConcretizationCoversDistancePruning) {
  // i' - i - n == 0 with n pinned to 2 by a second equation: the GCD
  // solution pins the distance to the symbolic-free constant 2, so
  // pruning fires on a symbolic problem. The sampled-concretization
  // sweep must still hold the pinned distance (and forced direction)
  // against the grid — a mis-signed pruning here is only catchable if
  // the symbolic path of the dirs axis checks distances at all.
  DependenceProblem P;
  P.NumLoopsA = 1;
  P.NumLoopsB = 1;
  P.NumCommon = 1;
  P.NumSymbolic = 1;
  P.Lo.resize(P.numLoopVars());
  P.Hi.resize(P.numLoopVars());
  XAffine Eq1(P.numX()); // i' - i - n == 0
  Eq1.Coeffs = {-1, 1, -1};
  XAffine Eq2(P.numX()); // n == 2
  Eq2.Coeffs = {0, 0, 1};
  Eq2.Const = -2;
  P.Equations = {Eq1, Eq2};
  for (unsigned V = 0; V < 2; ++V) {
    P.Lo[V] = XAffine(P.numX());
    P.Lo[V]->Const = 0;
    P.Hi[V] = XAffine(P.numX());
    P.Hi[V]->Const = 9;
  }
  ASSERT_TRUE(P.wellFormed());

  const FuzzAxisSpec &Dirs = *findFuzzAxis("dirs");
  bool Conclusive = false;

  // Clean tree: no mismatch.
  FuzzContext Clean;
  std::optional<std::string> Mismatch =
      Dirs.Problem(ProblemCase(P, Clean), 0, Conclusive);
  EXPECT_FALSE(Mismatch.has_value()) << *Mismatch;

  // Mis-signed pruning must be caught by the sampled sweep.
  FuzzOptions Opts;
  Opts.Bug = "dir-prune-sign";
  FuzzContext Buggy(Opts);
  EXPECT_TRUE(Dirs.Problem(ProblemCase(P, Buggy), 0, Conclusive));
}

TEST(Fuzzer, SymbolicIndependenceIsSound) {
  // Property: whenever the cascade proves a symbolic problem
  // Independent, no sampled concretization may admit a dependence.
  FuzzProblemOptions POpts;
  POpts.SymbolicPercent = 100;
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    SplitRng Rng(Seed);
    DependenceProblem P = randomFuzzProblem(Rng, POpts);
    if (P.NumSymbolic == 0)
      continue;
    CascadeResult R = testDependence(P);
    if (R.Answer != DepAnswer::Independent)
      continue;
    std::optional<bool> Sampled = oracleDependentSampled(P);
    if (!Sampled)
      continue;
    ++Checked;
    EXPECT_FALSE(*Sampled) << "decided by " << testKindName(R.DecidedBy)
                           << "\n"
                           << P.str();
  }
  EXPECT_GT(Checked, 30u);
}

TEST(Fuzzer, GeneratedProblemsAreWellFormed) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SplitRng Rng(Seed);
    DependenceProblem P = randomFuzzProblem(Rng);
    EXPECT_TRUE(P.wellFormed());
    EXPECT_GE(P.Equations.size(), 1u);
    // The textual format must round-trip every generated shape.
    ProblemParseResult Again = parseProblemText(printProblemText(P));
    ASSERT_TRUE(Again.succeeded()) << Again.Error;
    EXPECT_EQ(Again.Problem->serialize(true), P.serialize(true));
  }
}

TEST(Fuzzer, RandomProgramsAlwaysParse) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    SplitRng Rng(Seed);
    std::string Src = generateRandomProgram(Rng);
    ParseResult R = parseProgram(Src);
    ASSERT_TRUE(R.succeeded())
        << Src << "\n"
        << (R.Diags.empty() ? "" : R.Diags[0].str());
  }
}

TEST(Shrinker, PreservesFailurePredicate) {
  // Shrinking an oracle-dependent problem under the predicate "the
  // oracle proves dependence" must stay dependent and never grow.
  auto IsDependent = [](const DependenceProblem &Q) {
    std::optional<bool> T = oracleDependent(Q);
    return T && *T;
  };
  unsigned Shrunk = 0;
  for (uint64_t Seed = 1; Seed <= 200 && Shrunk < 10; ++Seed) {
    SplitRng Rng(Seed);
    DependenceProblem P = randomFuzzProblem(Rng);
    if (!IsDependent(P))
      continue;
    ++Shrunk;
    DependenceProblem Min = shrinkProblem(P, IsDependent);
    EXPECT_TRUE(IsDependent(Min)) << Min.str();
    EXPECT_LE(Min.numX(), P.numX());
    EXPECT_LE(Min.Equations.size(), P.Equations.size());
  }
  EXPECT_GE(Shrunk, 10u);
}

TEST(Shrinker, ProgramShrinkKeepsPredicate) {
  // Shrink a generated program under "mentions array a0 in a loop";
  // the result must still parse and satisfy the predicate.
  auto Fails = [](const std::string &Src) {
    ParseResult R = parseProgram(Src);
    return R.succeeded() && Src.find("a0[") != std::string::npos &&
           Src.find("for ") != std::string::npos;
  };
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SplitRng Rng(Seed);
    std::string Src = generateRandomProgram(Rng);
    if (!Fails(Src))
      continue;
    ++Checked;
    std::string Min = shrinkProgramSource(Src, Fails);
    EXPECT_TRUE(Fails(Min)) << Min;
    EXPECT_LE(Min.size(), Src.size());
  }
  EXPECT_GE(Checked, 5u);
}

TEST(Fuzzer, IncrAxisCleanOnRandomEditSequences) {
  // Incremental re-analysis alone, across enough iterations to cover
  // every edit kind several times: the spliced graph must match the
  // from-scratch one after every step of every sequence.
  FuzzOptions Opts = quickOptions(4, 400);
  Opts.Axes = {"incr"};
  FuzzSummary S = runFuzz(Opts);
  EXPECT_TRUE(S.ok()) << S.Failures.size() << " incr mismatches; first: "
                      << (S.Failures.empty() ? ""
                                             : S.Failures[0].Detail);
}

TEST(Fuzzer, StaleFingerprintBugIsCaughtAndShrunk) {
  // The incremental fault injection: reuse keyed on the bounds-free
  // fingerprints, so bound edits splice stale results. Only the incr
  // axis can see it — run it alone, and demand the failures shrink to
  // the acceptance envelope of at most 2 edits.
  FuzzOptions Opts = quickOptions(1, 2000);
  Opts.Bug = "stale-fingerprint";
  Opts.Axes = {"incr"};
  FuzzSummary S = runFuzz(Opts);
  ASSERT_FALSE(S.ok()) << "stale-fingerprint bug escaped 2000 iterations";

  for (const FuzzFailure &F : S.Failures) {
    SCOPED_TRACE(F.Reproducer);
    EXPECT_EQ(F.Axis, "incr");
    EXPECT_TRUE(F.IsProgram);
    EXPECT_GE(F.Edits, 1u);
    EXPECT_LE(F.Edits, 2u);
    // The reproducer embeds its surviving edit seeds so the failure
    // replays from the file alone.
    EXPECT_NE(F.Reproducer.find("# edda-fuzz-edits:"),
              std::string::npos);
    EXPECT_FALSE(F.Detail.empty());
  }
}
