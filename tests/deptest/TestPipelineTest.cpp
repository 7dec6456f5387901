//===- tests/deptest/TestPipelineTest.cpp - Pipeline properties -----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable-pipeline layer: registry and spec parsing, the
/// permutation-invariance property (every ordering of the exact stages
/// gives the same Independent/Dependent verdict, with verified
/// witnesses, constrained path included), Banerjee's soundness as a
/// pipeline stage, per-stage trace records, and overflow provenance.
///
//===----------------------------------------------------------------------===//

#include "deptest/TestPipeline.h"

#include "deptest/Banerjee.h"
#include "deptest/Cascade.h"
#include "testutil/Helpers.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <climits>
#include <string>
#include <type_traits>
#include <vector>

using namespace edda;
using namespace edda::testutil;

namespace {

/// A direction-style constraint on the first common loop pair:
/// i' - i + 1 <= 0 (Greater) or i - i' + 1 <= 0 (Less), as
/// appendDirConstraints emits them.
XAffine dirConstraint(const DependenceProblem &P, bool Less) {
  XAffine F(P.numX());
  F.Coeffs[0] = Less ? 1 : -1;
  F.Coeffs[P.NumLoopsA] = Less ? -1 : 1;
  F.Const = 1;
  return F;
}

/// All 120 orderings of the five exact non-constant stages, each with
/// the array-constant stage pinned first (its "assume loops execute"
/// Dependent convention is the one deliberate order sensitivity; see
/// docs/ALGORITHMS.md).
std::vector<TestPipeline> permutedPipelines() {
  // Sorted so std::next_permutation enumerates all 5! orderings.
  std::vector<std::string> Tail = {"acyclic", "fm", "gcd", "residue",
                                   "svpc"};
  std::vector<TestPipeline> Pipelines;
  do {
    std::string Spec = "const";
    for (const std::string &Name : Tail)
      Spec += "," + Name;
    std::string Error;
    std::optional<TestPipeline> P = TestPipeline::parse(Spec, &Error);
    EXPECT_TRUE(P.has_value()) << Spec << ": " << Error;
    if (P)
      Pipelines.push_back(std::move(*P));
  } while (std::next_permutation(Tail.begin(), Tail.end()));
  EXPECT_EQ(Pipelines.size(), 120u);
  return Pipelines;
}

} // namespace

TEST(StageRegistry, NamesKindsAndIds) {
  const std::vector<const DependenceTest *> &Reg = stageRegistry();
  ASSERT_EQ(Reg.size(), 7u);
  const char *Names[] = {"const", "gcd",      "svpc", "acyclic",
                         "residue", "fm",     "banerjee"};
  const TestKind Kinds[] = {
      TestKind::ArrayConstant, TestKind::GcdTest,
      TestKind::Svpc,          TestKind::Acyclic,
      TestKind::LoopResidue,   TestKind::FourierMotzkin,
      TestKind::Banerjee};
  for (unsigned I = 0; I < Reg.size(); ++I) {
    EXPECT_STREQ(Reg[I]->name(), Names[I]);
    // A stage's kind is its registry index.
    EXPECT_EQ(Reg[I]->kind(), Kinds[I]);
    EXPECT_EQ(static_cast<unsigned>(Kinds[I]), I);
    EXPECT_EQ(findStage(Names[I]), Reg[I]);
    EXPECT_EQ(stageForKind(Kinds[I]), Reg[I]);
    // Banerjee is the one inexact stage.
    EXPECT_EQ(Reg[I]->exact(), std::string(Names[I]) != "banerjee");
  }
  EXPECT_EQ(findStage("nope"), nullptr);
  EXPECT_EQ(stageForKind(TestKind::Unanalyzable), nullptr);
}

TEST(StageRegistry, DefaultPipelineIsTheExactCascade) {
  const TestPipeline &Default = TestPipeline::defaultPipeline();
  EXPECT_EQ(Default.spec(), "const,gcd,svpc,acyclic,residue,fm");
  for (const DependenceTest *Stage : Default.stages())
    EXPECT_TRUE(Stage->exact());
}

TEST(PipelineParse, RoundTripsAndAliases) {
  std::optional<TestPipeline> P = TestPipeline::parse("gcd,fm");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->spec(), "gcd,fm");
  ASSERT_EQ(P->stages().size(), 2u);
  EXPECT_STREQ(P->stages()[0]->name(), "gcd");
  EXPECT_STREQ(P->stages()[1]->name(), "fm");

  std::optional<TestPipeline> Default = TestPipeline::parse("default");
  ASSERT_TRUE(Default.has_value());
  EXPECT_EQ(Default->spec(), TestPipeline::defaultPipeline().spec());

  std::shared_ptr<const TestPipeline> Shared = makePipeline("banerjee");
  ASSERT_TRUE(Shared != nullptr);
  EXPECT_EQ(Shared->spec(), "banerjee");
}

TEST(PipelineParse, ActionableErrors) {
  std::string Error;
  EXPECT_FALSE(TestPipeline::parse("gcd,nope", &Error).has_value());
  EXPECT_NE(Error.find("nope"), std::string::npos) << Error;
  EXPECT_NE(Error.find("svpc"), std::string::npos)
      << "error must list the valid stages: " << Error;

  EXPECT_FALSE(TestPipeline::parse("gcd,gcd", &Error).has_value());
  EXPECT_NE(Error.find("gcd"), std::string::npos) << Error;

  EXPECT_FALSE(TestPipeline::parse("gcd,,fm", &Error).has_value());
  EXPECT_FALSE(TestPipeline::parse("", &Error).has_value());
  EXPECT_EQ(makePipeline("bogus", &Error), nullptr);
}

/// The core property: every ordering of the exact stages produces the
/// same Independent/Dependent verdict as the default cascade, and every
/// Dependent witness verifies — on unconstrained problems and on the
/// direction-constrained (ExtraLe0) path.
class PipelinePermutationProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePermutationProperty, OrderInvariantVerdicts) {
  std::vector<TestPipeline> Pipelines = permutedPipelines();
  SplitRng Rng(GetParam());
  unsigned Decided = 0;
  for (unsigned Iter = 0; Iter < 25; ++Iter) {
    DependenceProblem P = randomProblem(Rng);
    // Unconstrained, plus the two single-direction constraint sets.
    std::vector<std::vector<XAffine>> ConstraintSets;
    ConstraintSets.push_back({});
    if (P.NumCommon >= 1) {
      ConstraintSets.push_back({dirConstraint(P, /*Less=*/true)});
      ConstraintSets.push_back({dirConstraint(P, /*Less=*/false)});
    }
    for (const std::vector<XAffine> &Extra : ConstraintSets) {
      CascadeResult Base =
          TestPipeline::defaultPipeline().run(P, Extra);
      if (Base.Answer != DepAnswer::Unknown)
        ++Decided;
      for (const TestPipeline &Pipeline : Pipelines) {
        CascadeResult R = Pipeline.run(P, Extra);
        EXPECT_EQ(R.Answer, Base.Answer)
            << Pipeline.spec() << "\n"
            << P.str();
        if (R.Answer == DepAnswer::Dependent && R.Witness) {
          EXPECT_TRUE(verifyWitness(P, *R.Witness, Extra))
              << Pipeline.spec() << "\n"
              << P.str();
        }
      }
    }
  }
  EXPECT_GT(Decided, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePermutationProperty,
                         ::testing::Values(101, 102, 103));

TEST(PipelinePermutation, ConstrainedDirectionsSplitAsExpected) {
  // a[i+1] = a[i]: dependent overall, dependent under '<', independent
  // under '>' — in every stage order.
  DependenceProblem P = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 1)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .build();
  for (const TestPipeline &Pipeline : permutedPipelines()) {
    CascadeResult Less =
        Pipeline.run(P, {dirConstraint(P, /*Less=*/true)});
    EXPECT_EQ(Less.Answer, DepAnswer::Dependent) << Pipeline.spec();
    if (Less.Witness) {
      EXPECT_TRUE(verifyWitness(P, *Less.Witness,
                                {dirConstraint(P, /*Less=*/true)}));
    }
    CascadeResult Greater =
        Pipeline.run(P, {dirConstraint(P, /*Less=*/false)});
    EXPECT_EQ(Greater.Answer, DepAnswer::Independent)
        << Pipeline.spec();
  }
}

TEST(BanerjeeStage, SoundOnRandomCorpus) {
  // Banerjee may miss independence but must never fabricate it: every
  // Independent from the banerjee pipeline is confirmed by the exact
  // cascade, and everything else is Unknown (assumed dependent).
  std::shared_ptr<const TestPipeline> Banerjee = makePipeline("banerjee");
  ASSERT_TRUE(Banerjee != nullptr);
  SplitRng Rng(202);
  unsigned Independent = 0;
  for (unsigned Iter = 0; Iter < 300; ++Iter) {
    DependenceProblem P = randomProblem(Rng);
    CascadeResult B = Banerjee->run(P, {});
    EXPECT_NE(B.Answer, DepAnswer::Dependent)
        << "Banerjee cannot prove dependence\n"
        << P.str();
    if (B.Answer != DepAnswer::Independent)
      continue;
    ++Independent;
    EXPECT_EQ(B.DecidedBy, TestKind::Banerjee);
    CascadeResult Exact = testDependence(P);
    EXPECT_EQ(Exact.Answer, DepAnswer::Independent)
        << "Banerjee claimed independence the exact cascade denies\n"
        << P.str();
  }
  EXPECT_GT(Independent, 10u);
}

TEST(PipelineTraceTest, RecordsSkipsAndDecision) {
  // 2i - 2i' == 1: no constant subscripts (const skipped), the GCD
  // stage proves independence, nothing after it runs.
  DependenceProblem P = ProblemBuilder(1, 1, 1)
                            .eq({2, -2}, -1)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .build();
  PipelineTrace Trace;
  CascadeResult R =
      TestPipeline::defaultPipeline().run(P, {}, {}, nullptr, &Trace);
  EXPECT_EQ(R.Answer, DepAnswer::Independent);
  EXPECT_EQ(R.DecidedBy, TestKind::GcdTest);
  ASSERT_EQ(Trace.Stages.size(), 2u);
  EXPECT_STREQ(Trace.Stages[0].Stage->name(), "const");
  EXPECT_FALSE(Trace.Stages[0].Applicable);
  EXPECT_STREQ(Trace.Stages[1].Stage->name(), "gcd");
  EXPECT_TRUE(Trace.Stages[1].Applicable);
  EXPECT_EQ(Trace.Stages[1].Result.St, StageResult::Status::Independent);
  std::string Str = Trace.str();
  EXPECT_NE(Str.find("gcd: independent (exact)"), std::string::npos) << Str;
}

TEST(PipelineTraceTest, DependentStageCarriesVerifiedWitness) {
  DependenceProblem P = ProblemBuilder(1, 1, 1)
                            .eq({1, -1}, 1)
                            .bounds(0, 1, 10)
                            .bounds(1, 1, 10)
                            .build();
  PipelineTrace Trace;
  CascadeResult R =
      TestPipeline::defaultPipeline().run(P, {}, {}, nullptr, &Trace);
  ASSERT_EQ(R.Answer, DepAnswer::Dependent);
  ASSERT_FALSE(Trace.Stages.empty());
  const StageTrace &Last = Trace.Stages.back();
  EXPECT_EQ(Last.Result.St, StageResult::Status::Dependent);
  EXPECT_EQ(Last.Stage->kind(), R.DecidedBy);
  ASSERT_TRUE(Last.Result.Witness.has_value());
  EXPECT_TRUE(verifyWitness(P, *Last.Result.Witness));
}

// The counters are plain data: copying a DepStats, or a DirectionResult
// that holds one, allocates nothing.
static_assert(std::is_trivially_copyable_v<DepStats>);

TEST(PipelineStats, PerStageCountersTrackDecisions) {
  DepStats Stats;
  DependenceProblem Indep = ProblemBuilder(1, 1, 1)
                                .eq({2, -2}, -1)
                                .bounds(0, 1, 10)
                                .bounds(1, 1, 10)
                                .build();
  TestPipeline::defaultPipeline().run(Indep, {}, {}, &Stats);
  const DependenceTest *Gcd = findStage("gcd");
  ASSERT_TRUE(Gcd != nullptr);
  EXPECT_EQ(Stats.decided(Gcd->kind()), 1u);
  EXPECT_EQ(Stats.decidedIndependent(Gcd->kind()), 1u);
  EXPECT_EQ(Stats.totalDecided(), 1u);
  EXPECT_EQ(Stats.Queries, 1u);
}

TEST(PipelineOverflow, ProvenanceRecordedWhenUnanalyzable) {
  // Equation solvable but the bounds projection overflows 64-bit
  // arithmetic during preprocessing. If the pipeline ends Unknown, the
  // overflow must be attributed to a stage — in the stats, in DepStats
  // rendering, and in the trace.
  DependenceProblem P =
      ProblemBuilder(1, 1, 1)
          .eq({3, -7}, 1)
          .bounds(0, INT64_MIN + 2, INT64_MAX - 2)
          .bounds(1, INT64_MIN + 2, INT64_MAX - 2)
          .build();
  DepStats Stats;
  PipelineTrace Trace;
  CascadeResult R =
      TestPipeline::defaultPipeline().run(P, {}, {}, &Stats, &Trace);
  if (R.Answer != DepAnswer::Unknown) {
    // Arithmetic held on this platform; the answer must be exact.
    EXPECT_EQ(R.Answer, DepAnswer::Dependent);
    return;
  }
  EXPECT_EQ(R.DecidedBy, TestKind::Unanalyzable);
  EXPECT_FALSE(R.Exact);
  uint64_t OverflowTotal = 0;
  for (uint64_t N : Stats.StageOverflow)
    OverflowTotal += N;
  EXPECT_EQ(OverflowTotal, 1u);
  EXPECT_NE(Stats.str().find("overflow in stage"), std::string::npos)
      << Stats.str();
  bool Traced = false;
  for (const StageTrace &T : Trace.Stages)
    Traced = Traced || T.Result.St == StageResult::Status::Overflow;
  EXPECT_TRUE(Traced);
}

TEST(PipelineOverflow, PrepOverflowAttributionIsOrderIndependent) {
  // Whatever stage first touches the shared preprocessing, a prep
  // overflow is booked against the extended-GCD stage, so permuted
  // pipelines agree on provenance.
  DependenceProblem P =
      ProblemBuilder(1, 1, 1)
          .eq({3, -7}, 1)
          .bounds(0, INT64_MIN + 2, INT64_MAX - 2)
          .bounds(1, INT64_MIN + 2, INT64_MAX - 2)
          .build();
  DepStats Default;
  CascadeResult RD =
      TestPipeline::defaultPipeline().run(P, {}, {}, &Default);
  if (RD.Answer != DepAnswer::Unknown)
    return; // arithmetic held; nothing to attribute
  std::optional<TestPipeline> Reversed =
      TestPipeline::parse("const,fm,residue,acyclic,svpc,gcd");
  ASSERT_TRUE(Reversed.has_value());
  DepStats Stats;
  CascadeResult R = Reversed->run(P, {}, {}, &Stats);
  EXPECT_EQ(R.Answer, DepAnswer::Unknown);
  EXPECT_EQ(Stats.StageOverflow, Default.StageOverflow);
}
