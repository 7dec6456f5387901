//===- tests/integration/CorpusTest.cpp - .dep regression corpus ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every problem file in tests/inputs/corpus/ through the cascade
/// and checks the verdict annotated on its first line:
///
///   # expect: <independent|dependent> <deciding test name>
///
/// New regression cases are added by dropping a .dep file in the
/// directory — no code change needed. Each case is additionally
/// cross-checked against the enumeration oracle when applicable, and
/// its witness verified.
///
/// Every .dep file is also replayed through each of the fuzzer's
/// problem axes (fuzz::fuzzAxes()).
///
/// .loop files in the same directory are whole-program reproducers
/// (typically minimized by edda-fuzz): each is replayed through each of
/// the fuzzer's program axes, plus two checks no axis makes on whole
/// programs: the default vs. a permuted pipeline, and each analyzable
/// pair against the enumeration oracle.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Builder.h"
#include "deptest/Cascade.h"
#include "deptest/Direction.h"
#include "deptest/ProblemIO.h"
#include "deptest/TestPipeline.h"
#include "fuzz/Fuzzer.h"
#include "oracle/Oracle.h"
#include "parser/Parser.h"
#include "gtest/gtest.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#ifndef EDDA_CORPUS_DIR
#error "EDDA_CORPUS_DIR must be defined by the build"
#endif

using namespace edda;
using namespace edda::oracle;

namespace {

struct CorpusCase {
  std::string Path;
  std::string Text;
  DepAnswer Expected;
  std::string ExpectedDecider;
};

std::vector<CorpusCase> loadCorpus() {
  std::vector<CorpusCase> Cases;
  for (const auto &Entry :
       std::filesystem::directory_iterator(EDDA_CORPUS_DIR)) {
    if (Entry.path().extension() != ".dep")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    CorpusCase Case;
    Case.Path = Entry.path().filename().string();
    Case.Text = Buffer.str();

    // First line: "# expect: <answer> <decider>".
    std::istringstream Header(Case.Text);
    std::string Hash, ExpectWord, Answer;
    Header >> Hash >> ExpectWord >> Answer >> Case.ExpectedDecider;
    EXPECT_EQ(Hash, "#") << Case.Path;
    EXPECT_EQ(ExpectWord, "expect:") << Case.Path;
    if (Answer == "independent")
      Case.Expected = DepAnswer::Independent;
    else if (Answer == "dependent")
      Case.Expected = DepAnswer::Dependent;
    else
      ADD_FAILURE() << Case.Path << ": bad expectation '" << Answer
                    << "'";
    Cases.push_back(std::move(Case));
  }
  std::sort(Cases.begin(), Cases.end(),
            [](const CorpusCase &A, const CorpusCase &B) {
              return A.Path < B.Path;
            });
  return Cases;
}

} // namespace

TEST(Corpus, AllCasesDecideAsAnnotated) {
  std::vector<CorpusCase> Cases = loadCorpus();
  ASSERT_GE(Cases.size(), 10u) << "corpus missing?";
  for (const CorpusCase &Case : Cases) {
    SCOPED_TRACE(Case.Path);
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    CascadeResult R = testDependence(*Parsed.Problem);
    EXPECT_EQ(R.Answer, Case.Expected);
    EXPECT_STREQ(testKindName(R.DecidedBy),
                 Case.ExpectedDecider.c_str());
    if (R.Answer == DepAnswer::Dependent && R.Witness)
      EXPECT_TRUE(verifyWitness(*Parsed.Problem, *R.Witness));

    // Oracle cross-check where enumeration applies.
    std::optional<bool> Truth = oracleDependent(*Parsed.Problem);
    if (Truth)
      EXPECT_EQ(*Truth, R.Answer == DepAnswer::Dependent);
  }
}

TEST(Corpus, FmCliffHierarchyDecidesExactlyInBudget) {
  // fm_cliff_hierarchy.dep is the PR-5 cost cliff: under the pre-Omega
  // FM core its direction hierarchy burned the entire default
  // refinement budget (~1M combines, over a minute of wall clock) and
  // conservatively star-filled. The exact core must decide the whole
  // hierarchy exactly under the same default budget — Exact preserved,
  // no all-'*' summary vector — in interactive time.
  std::ifstream In(std::filesystem::path(EDDA_CORPUS_DIR) /
                   "fm_cliff_hierarchy.dep");
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  ProblemParseResult Parsed = parseProblemText(Buffer.str());
  ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;

  DirectionOptions Opts; // Stock defaults, MaxRefineFmWork included.
  auto Start = std::chrono::steady_clock::now();
  DirectionResult R = computeDirectionVectors(*Parsed.Problem, Opts);
  auto Elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - Start);

  EXPECT_EQ(R.RootAnswer, DepAnswer::Dependent);
  EXPECT_TRUE(R.Exact) << "hierarchy fell back to a conservative summary";
  ASSERT_FALSE(R.Vectors.empty());
  for (const DirVector &V : R.Vectors) {
    bool AllStar = true;
    for (Dir D : V)
      AllStar &= D == Dir::Any;
    EXPECT_FALSE(AllStar) << "budget exhaustion star-fill resurfaced";
  }
  EXPECT_LT(R.TestStats.FmWork, Opts.MaxRefineFmWork)
      << "decided, but only by burning the whole refinement budget";
  // Generous for loaded CI machines; the cliff this guards against was
  // >60s, the fixed core runs in milliseconds.
  EXPECT_LT(Elapsed.count(), 20)
      << "FM cost cliff regressed to wall-clock pain";
}

namespace {

/// Replays the pinned corpus through one problem axis of the fuzzer; a
/// batched axis also takes the whole corpus as one batch.
void replayCorpusThroughAxis(const fuzz::FuzzAxisSpec &A) {
  SCOPED_TRACE(A.Name);
  std::vector<CorpusCase> Cases = loadCorpus();
  std::vector<DependenceProblem> Problems;
  for (const CorpusCase &Case : Cases) {
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded()) << Case.Path << ": " << Parsed.Error;
    Problems.push_back(*Parsed.Problem);
  }
  fuzz::FuzzContext Ctx;
  if (A.ProblemBatch) {
    std::vector<std::optional<std::string>> Details =
        A.ProblemBatch(Problems, Ctx);
    for (size_t I = 0; I < Problems.size(); ++I)
      EXPECT_FALSE(Details[I].has_value())
          << Cases[I].Path << ": " << *Details[I];
  }
  for (size_t I = 0; A.Problem && I < Problems.size(); ++I)
    for (unsigned V = 0; V < A.Variants; ++V) {
      bool Conclusive = false;
      std::optional<std::string> Mismatch =
          A.Problem(fuzz::ProblemCase(Problems[I], Ctx), V, Conclusive);
      EXPECT_FALSE(Mismatch.has_value())
          << Cases[I].Path << ": " << *Mismatch;
    }
}

void replayCorpusThroughAxis(std::string_view Name) {
  const fuzz::FuzzAxisSpec *A = fuzz::findFuzzAxis(Name);
  ASSERT_NE(A, nullptr) << Name;
  ASSERT_TRUE(A->Problem) << Name << " takes no problems";
  replayCorpusThroughAxis(*A);
}

} // namespace

TEST(Corpus, DepFilesPassDirectionChecks) {
  // The dirs axis. The dirs_*.dep reproducers were each minimized from
  // a hierarchy bug this check caught; they fail here when the fix is
  // reverted.
  replayCorpusThroughAxis("dirs");
}

TEST(Corpus, DepFilesSurviveCacheRoundTrip) {
  // The memo axis: the whole corpus saved and reloaded as one cache
  // file, and each problem round-tripped on its own.
  replayCorpusThroughAxis("memo");
}

TEST(Corpus, DepFilesReplayThroughProblemAxes) {
  // Every other problem axis; dirs and memo have the tests above.
  for (const fuzz::FuzzAxisSpec &A : fuzz::fuzzAxes())
    if (A.Problem && std::string_view(A.Name) != "dirs" &&
        std::string_view(A.Name) != "memo")
      replayCorpusThroughAxis(A);
}

namespace {

struct LoopCase {
  std::string Path;
  std::string Source;
};

std::vector<LoopCase> loadLoopCorpus() {
  std::vector<LoopCase> Cases;
  for (const auto &Entry :
       std::filesystem::directory_iterator(EDDA_CORPUS_DIR)) {
    if (Entry.path().extension() != ".loop")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Cases.push_back({Entry.path().filename().string(), Buffer.str()});
  }
  std::sort(Cases.begin(), Cases.end(),
            [](const LoopCase &A, const LoopCase &B) {
              return A.Path < B.Path;
            });
  return Cases;
}

} // namespace

TEST(Corpus, LoopFilesReplayDifferentially) {
  std::vector<LoopCase> Cases = loadLoopCorpus();
  ASSERT_GE(Cases.size(), 1u) << ".loop corpus missing?";
  fuzz::FuzzContext Ctx;
  for (const LoopCase &Case : Cases) {
    SCOPED_TRACE(Case.Path);
    ParseResult Parsed = parseProgram(Case.Source);
    ASSERT_TRUE(Parsed.succeeded())
        << (Parsed.Diags.empty() ? "" : Parsed.Diags[0].str());

    // Every program axis of the fuzzer; edit-replaying axes run a fixed
    // four-edit sequence.
    fuzz::ProgramCase Replay(Case.Source, {1, 2, 3, 4}, Ctx);
    for (const fuzz::FuzzAxisSpec &A : fuzz::fuzzAxes())
      if (A.Program)
        if (std::optional<std::string> Mismatch = A.Program(Replay))
          ADD_FAILURE() << A.Name << ": " << *Mismatch;

    AnalyzerOptions Serial;
    Serial.ComputeDirections = true;
    Program SerialCopy = *Parsed.Prog;
    DependenceAnalyzer SerialAnalyzer(Serial);
    AnalysisResult Want = SerialAnalyzer.analyze(SerialCopy);
    ASSERT_GT(Want.Pairs.size(), 0u);

    // The whole program under a permuted pipeline; decisive answers
    // must agree (Unknown is legitimately order-dependent).
    AnalyzerOptions Permuted = Serial;
    Permuted.ComputeDirections = false;
    Permuted.Cascade.Pipeline =
        makePipeline("fm,residue,acyclic,svpc,gcd,const");
    ASSERT_TRUE(Permuted.Cascade.Pipeline);
    Program PermutedCopy = *Parsed.Prog;
    DependenceAnalyzer PermutedAnalyzer(Permuted);
    AnalysisResult Perm = PermutedAnalyzer.analyze(PermutedCopy);
    ASSERT_EQ(Perm.Pairs.size(), Want.Pairs.size());
    for (size_t I = 0; I < Want.Pairs.size(); ++I)
      if (Want.Pairs[I].Answer != DepAnswer::Unknown &&
          Perm.Pairs[I].Answer != DepAnswer::Unknown)
        EXPECT_EQ(Perm.Pairs[I].Answer, Want.Pairs[I].Answer)
            << "pair " << I;

    // The per-pair enumeration oracle on the problems the analyzer
    // actually decided.
    for (const DependencePair &Pair : Want.Pairs) {
      if (Pair.Answer == DepAnswer::Unknown)
        continue;
      std::optional<BuiltProblem> Built = buildProblem(
          SerialCopy, Want.Refs[Pair.RefA], Want.Refs[Pair.RefB]);
      if (!Built || !Built->Exact)
        continue;
      std::optional<bool> Truth = oracleDependent(Built->Problem);
      if (Truth)
        EXPECT_EQ(*Truth, Pair.Answer == DepAnswer::Dependent)
            << refStr(SerialCopy, Want.Refs[Pair.RefA]) << " vs "
            << refStr(SerialCopy, Want.Refs[Pair.RefB]);
    }
  }
}

TEST(Corpus, RoundTripsThroughPrinter) {
  for (const CorpusCase &Case : loadCorpus()) {
    SCOPED_TRACE(Case.Path);
    ProblemParseResult Parsed = parseProblemText(Case.Text);
    ASSERT_TRUE(Parsed.succeeded());
    std::string Printed = printProblemText(*Parsed.Problem);
    ProblemParseResult Again = parseProblemText(Printed);
    ASSERT_TRUE(Again.succeeded()) << Printed;
    EXPECT_EQ(Again.Problem->serialize(true),
              Parsed.Problem->serialize(true));
  }
}
