//===- perfbench/SuiteCompile.cpp - suite-compile and the pair replay -----===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suite-compile workload: an op compiles one PERFECT Club program,
/// parse then analyze() with a fresh analyzer in the table-3
/// configuration (prepass, reference enumeration, problem build, memo,
/// cascade). Also the pair replay that the traced runs of both workloads
/// share.
///
/// generatePerfectClubSuite ignores its seed, so every pass of the input
/// list holds the same 13 programs. The copies of one program are one op:
/// its time is the best over every copy in every round, and medians and
/// the tail are taken over the distinct programs.
///
/// The traced run analyzes each distinct program once untraced, then
/// replays the result's pairs through the same public calls the analyzer
/// makes, in pair order, against its own cache, timing each call as a
/// span. The replay restates the memo policy of
/// DependenceAnalyzer::decideTestedPair; where it no longer reproduces
/// analyze() it is the trace that is wrong, not the answers, so a
/// mismatch lowers trace.replay_match_pct instead of failing the op.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Analyzer.h"
#include "deptest/Cascade.h"
#include "opt/Pipeline.h"
#include "oracle/Oracle.h"
#include "parser/Parser.h"
#include "workload/Generator.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

using namespace edda;
using namespace perfbench;

namespace {

struct ProgramInput {
  std::string Source;
  std::string Locator;
  /// Index of this program among the distinct programs of the list.
  size_t Distinct = 0;
};

/// Programs per second of run on the reference host, all rounds.
constexpr double ProgramsPerSecond = 65.0;
constexpr size_t SuiteSize = 13;

/// Oracle sampling: one pair in OracleEvery is enumerated, with the
/// point budget below (an inconclusive enumeration is skipped).
constexpr uint64_t OracleEvery = 16;
constexpr uint64_t OracleMaxPoints = 1u << 14;

/// Whole suite passes, one generator seed per pass.
std::vector<ProgramInput> generateInputs(const Config &C,
                                         size_t &NumDistinct) {
  std::vector<ProgramInput> Inputs;
  std::map<std::string, size_t> Seen;
  size_t Target = scaledCount(C.Seconds, ProgramsPerSecond);
  size_t Passes = std::max<size_t>(1, (Target + SuiteSize - 1) / SuiteSize);
  for (size_t Pass = 0; Pass < Passes; ++Pass) {
    GeneratorOptions G;
    G.Seed = mixSeed(C.Seed, Pass);
    for (auto &[Name, Source] : generatePerfectClubSuite(G)) {
      size_t Distinct = Seen.emplace(Source, Seen.size()).first->second;
      Inputs.push_back({std::move(Source),
                        "generatePerfectClubSuite(Seed=" +
                            std::to_string(G.Seed) + ") " + Name,
                        Distinct});
    }
  }
  NumDistinct = Seen.size();
  return Inputs;
}

bool sampled(uint64_t Seed, size_t Op, size_t Pair) {
  return mixSeed(mixSeed(Seed, Op), Pair) % OracleEvery == 0;
}

/// Digest of one analysis' answers: what must not change between
/// executions of one program.
uint64_t answerDigest(const AnalysisResult &R) {
  Digest D;
  for (const DependencePair &P : R.Pairs)
    D.add(static_cast<uint64_t>(P.Answer) << 8 |
          static_cast<uint64_t>(P.DecidedBy) << 1 | P.Exact);
  return D.H;
}

/// The correctness gate for one compiled program, run outside the timed
/// region. Every pair's problem is rebuilt and re-decided from scratch
/// (no memo); every Dependent answer must carry a witness that
/// verifyWitness accepts; a seeded sample of pairs is held against the
/// enumeration oracle. Returns the first problem.
std::optional<std::string> gateProgram(const Program &Prog,
                                       const AnalysisResult &R,
                                       const Config &C, size_t Op,
                                       bool &CorruptPending,
                                       uint64_t &Unwitnessed) {
  for (size_t K = 0; K < R.Pairs.size(); ++K) {
    const DependencePair &Pair = R.Pairs[K];
    if (Pair.DecidedBy == TestKind::Unanalyzable)
      continue; // Conservative by construction.
    std::optional<BuiltProblem> Built =
        buildProblem(Prog, R.Refs[Pair.RefA], R.Refs[Pair.RefB]);
    std::string Where = "pair " + std::to_string(K) + ": ";
    if (!Built)
      return Where + "analyzed but the reference build fails";
    const DependenceProblem &P = Built->Problem;
    DepAnswer Answer = Pair.Answer;
    if (CorruptPending) {
      Answer = Answer == DepAnswer::Independent ? DepAnswer::Dependent
                                                : DepAnswer::Independent;
      CorruptPending = false;
    }
    // Constant subscripts are answered without testing, assuming the
    // enclosing loops execute (the paper's convention, CascadeOptions::
    // AssumeNonEmptyLoops): such a Dependent answer claims no point.
    const bool ClaimsPoints =
        Pair.Exact && Pair.DecidedBy != TestKind::ArrayConstant;
    const bool Sampled = sampled(C.Seed, Op, K);
    // analyze() decides constant pairs without the memo, so re-running
    // them would only repeat it; they are held against the oracle's
    // sample like every other pair.
    if (Pair.DecidedBy == TestKind::ArrayConstant && !Sampled &&
        Answer == Pair.Answer)
      continue;
    CascadeResult Ref = testDependence(P);
    if ((Answer == DepAnswer::Independent) !=
        (Ref.Answer == DepAnswer::Independent))
      return Where + "answer differs from a fresh cascade run";
    if (Answer == DepAnswer::Dependent) {
      if (Ref.Witness) {
        if (!verifyWitness(P, *Ref.Witness))
          return Where + "dependent, but the witness does not verify";
      } else {
        oracle::OracleOptions OO;
        OO.MaxPoints = OracleMaxPoints;
        std::optional<bool> Truth = oracle::oracleDependent(P, {}, OO);
        if (Truth && !*Truth && ClaimsPoints)
          return Where + "dependent, but the oracle finds no dependence";
        if (!Truth || !ClaimsPoints)
          ++Unwitnessed;
      }
    }
    if (!Sampled)
      continue;
    oracle::OracleOptions OO;
    OO.MaxPoints = OracleMaxPoints;
    std::optional<bool> Truth = oracle::oracleDependent(P, {}, OO);
    if (Truth && *Truth && Answer == DepAnswer::Independent)
      return Where + "independent, but the oracle finds a dependence";
    if (Truth && !*Truth && Answer == DepAnswer::Dependent && ClaimsPoints)
      return Where + "dependent, but the oracle finds no dependence";
  }
  return std::nullopt;
}

void addResultCounters(const AnalysisResult &R, RunRecord &Rec) {
  Rec.Counters["pairs"] += R.PairsConsidered;
  Rec.Counters["pairs.unanalyzable"] += R.UnanalyzablePairs;
  uint64_t Exact = 0, FromCache = 0;
  for (const DependencePair &P : R.Pairs) {
    Exact += P.Exact;
    FromCache += P.FromCache;
  }
  Rec.Counters["pairs.exact"] += Exact;
  Rec.Counters["pairs.from_cache"] += FromCache;
  addStatsCounters(R.Stats, Rec);
}

} // namespace

// --- Traced replay ---------------------------------------------------------

CascadeResult perfbench::tracedCascade(Tracer &T, uint32_t Op,
                                       const DependenceProblem &P,
                                       const CascadeOptions &CO,
                                       DepStats &Stats) {
  uint64_t FmBefore = Stats.FmWork;
  size_t S = T.begin(Op);
  CascadeResult R = testDependence(P, CO, &Stats);
  uint64_t Ns = T.end(S, cascadeSpanName(R.DecidedBy));
  if (R.Widened)
    T.addTotal("cascade.widened", Ns);
  if (Stats.FmWork > FmBefore) {
    T.addTotal("fm.calls", Ns);
    T.count("fm.work", Stats.FmWork - FmBefore);
  }
  return R;
}

std::optional<std::string> perfbench::replayProgram(Tracer &T, uint32_t Op,
                                                    Program &Prog,
                                                    const AnalysisResult &R,
                                                    DependenceAnalyzer &A,
                                                    DependenceCache &Cache) {
  const AnalyzerOptions &O = A.options();
  traced(T, Op, "prepass", [&] { runPrepass(Prog); });
  std::vector<ArrayReference> Refs =
      traced(T, Op, "refs", [&] { return collectReferences(Prog); });
  if (Refs.size() != R.Refs.size())
    return std::string("replay enumerates a different reference list");

  DepStats Stats;
  for (size_t K = 0; K < R.Pairs.size(); ++K) {
    const DependencePair &Want = R.Pairs[K];
    std::optional<BuiltProblem> Built = traced(T, Op, "build", [&] {
      return buildProblem(Prog, Refs[Want.RefA], Refs[Want.RefB]);
    });
    std::string Where = "replay pair " + std::to_string(K) + ": ";
    if (!Built) {
      if (Want.DecidedBy != TestKind::Unanalyzable)
        return Where + "unanalyzable in the replay only";
      continue;
    }
    const DependenceProblem &P = Built->Problem;
    bool AllConstant = true;
    for (const XAffine &Eq : P.Equations)
      AllConstant = AllConstant && Eq.isConstant();

    // From here on the replay restates decideTestedPair's memo policy.
    DependencePair Got;
    if (AllConstant) {
      CascadeResult Out = tracedCascade(T, Op, P, O.Cascade, Stats);
      Got.Answer = Out.Answer;
      Got.DecidedBy = Out.DecidedBy;
      Got.Exact = Out.Exact && Built->Exact;
    } else if (O.ComputeDirections) {
      size_t S = T.begin(Op);
      std::optional<DirectionResult> Dirs = Cache.lookupDirections(P);
      T.end(S, Dirs ? "memo.hit" : "memo.miss");
      if (Dirs) {
        Stats.MemoHitsFull++;
        Got.FromCache = true;
      } else {
        S = T.begin(Op);
        Dirs = computeDirectionVectors(P, O.Direction);
        uint64_t Ns = T.end(S, "direction");
        T.count("direction.tests", Dirs->TestsRun);
        if (Dirs->TestStats.FmWork) {
          T.addTotal("fm.calls", Ns);
          T.count("fm.work", Dirs->TestStats.FmWork);
        }
        CascadeResult Root;
        Root.Answer = Dirs->RootAnswer;
        Root.DecidedBy = Dirs->RootDecidedBy;
        Root.Exact = Dirs->Exact;
        Root.Widened = Dirs->RootWidened;
        S = T.begin(Op);
        Cache.insertDirections(P, *Dirs);
        T.end(S, "memo.insert");
        S = T.begin(Op);
        Cache.insertFull(P, Root);
        T.end(S, "memo.insert");
        Stats += Dirs->TestStats;
      }
      Got.Answer = Dirs->RootAnswer;
      Got.DecidedBy = Dirs->RootDecidedBy;
      Got.Exact = Dirs->Exact && Built->Exact;
      Got.Directions = std::move(Dirs);
    } else {
      size_t S = T.begin(Op);
      std::optional<CascadeResult> Hit = Cache.lookupFull(P);
      T.end(S, Hit ? "memo.hit" : "memo.miss");
      CascadeResult Out;
      if (Hit) {
        Stats.MemoHitsFull++;
        Out = *Hit;
        Got.FromCache = true;
      } else {
        S = T.begin(Op);
        std::optional<bool> Gcd = Cache.lookupGcdSolvable(P);
        T.end(S, Gcd ? "memo.hit" : "memo.miss");
        if (Gcd)
          Stats.MemoHitsNoBounds++;
        if (Gcd && !*Gcd) {
          Out.Answer = DepAnswer::Independent;
          Out.DecidedBy = TestKind::GcdTest;
          Out.Exact = true;
          Got.FromCache = true;
        } else {
          Out = tracedCascade(T, Op, P, O.Cascade, Stats);
          S = T.begin(Op);
          Cache.insertFull(P, Out);
          if (Out.DecidedBy == TestKind::GcdTest)
            Cache.insertGcdSolvable(P, false);
          else if (Out.DecidedBy != TestKind::ArrayConstant &&
                   Out.DecidedBy != TestKind::Banerjee &&
                   Out.DecidedBy != TestKind::Unanalyzable)
            Cache.insertGcdSolvable(P, true);
          T.end(S, "memo.insert");
        }
      }
      Got.Answer = Out.Answer;
      Got.DecidedBy = Out.DecidedBy;
      Got.Exact = Out.Exact && Built->Exact;
    }

    if (Got.Answer != Want.Answer || Got.DecidedBy != Want.DecidedBy ||
        Got.Exact != Want.Exact || Got.FromCache != Want.FromCache)
      return Where + "answer or memo outcome differs from analyze()";
    if (!AllConstant && O.ComputeDirections &&
        (Got.Directions->Vectors != Want.Directions->Vectors ||
         Got.Directions->Distances != Want.Directions->Distances))
      return Where + "direction vectors differ from analyze()";
  }
  if (Stats.MemoHitsFull != R.Stats.MemoHitsFull ||
      Stats.MemoHitsNoBounds != R.Stats.MemoHitsNoBounds ||
      Stats.FmWork != R.Stats.FmWork ||
      Stats.WidenedQueries != R.Stats.WidenedQueries ||
      Stats.Decided != R.Stats.Decided)
    return std::string("replay counters differ from analyze()");
  if (Cache.fullQueries() != A.cache().fullQueries() ||
      Cache.fullHits() != A.cache().fullHits() ||
      Cache.dirQueries() != A.cache().dirQueries() ||
      Cache.dirHits() != A.cache().dirHits() ||
      Cache.gcdQueries() != A.cache().gcdQueries() ||
      Cache.gcdHits() != A.cache().gcdHits())
    return std::string("replay memo table counters differ from analyze()");
  return std::nullopt;
}

// --- The workload ----------------------------------------------------------

RunRecord perfbench::runSuiteCompile(const Config &C) {
  RunRecord Rec;
  AnalyzerOptions AO;
  AO.ComputeDirections = false;
  AO.NumThreads = 1;

  // Set-up: generate the input list and warm the allocator and code
  // paths on its first pass.
  std::vector<ProgramInput> Inputs;
  size_t NumDistinct = 0;
  auto Setup = [&] {
    pinToQuietestCpu(); // Harness work, not set-up: outside the timing.
    uint64_t T0 = nowNs();
    Inputs = generateInputs(C, NumDistinct);
    for (size_t I = 0; I < std::min(Inputs.size(), SuiteSize); ++I) {
      ParseResult Warm = parseProgram(Inputs[I].Source);
      if (Warm.succeeded()) {
        DependenceAnalyzer A(AO);
        A.analyze(*Warm.Prog);
      }
    }
    Rec.SetupSeconds.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  };

  Setup();
  const size_t N = Inputs.size(), D = NumDistinct;
  Rec.Attempted = D;
  Rec.ChunkOps = D;
  Rec.Questions.assign(D, 0);
  Rec.ExactQuestions.assign(D, 0);
  Rec.FmWork.assign(D, 0);
  Rec.OpLocator.assign(D, "");
  std::vector<size_t> FirstCopy(D, N);
  Digest InputD;
  for (size_t I = 0; I < N; ++I) {
    InputD.add(Inputs[I].Source);
    size_t Dx = Inputs[I].Distinct;
    if (FirstCopy[Dx] == N) {
      FirstCopy[Dx] = I;
      Rec.OpLocator[Dx] = Inputs[I].Locator;
    }
  }
  Rec.InputDigest = InputD.H;
  Rec.Notes.push_back("copies: " + std::to_string(N) +
                      " programs in the list, " + std::to_string(D) +
                      " distinct; an op is one distinct program");

  bool CorruptPending = C.CorruptAnswer;
  uint64_t Unwitnessed = 0;
  std::vector<bool> Failed(D, false);
  auto Fail = [&](size_t Dx, const std::string &Why) {
    if (Failed[Dx])
      return;
    Failed[Dx] = true;
    Rec.fail(Rec.OpLocator[Dx] + ": " + Why);
  };
  // Gates one distinct program's analysis and fills its per-op record.
  auto Check = [&](size_t Dx, const Program &Prog, const AnalysisResult &R) {
    Rec.Questions[Dx] = R.PairsConsidered;
    for (const DependencePair &P : R.Pairs)
      Rec.ExactQuestions[Dx] += P.Exact;
    Rec.FmWork[Dx] = R.Stats.FmWork;
    addResultCounters(R, Rec);
    if (std::optional<std::string> Bad =
            gateProgram(Prog, R, C, Dx, CorruptPending, Unwitnessed))
      Fail(Dx, *Bad);
  };

  if (C.Trace) {
    Tracer T;
    uint64_t AnalyzeNs = 0, PlainNs = 0, ReplayNs = 0;
    for (size_t Dx = 0; Dx < D; ++Dx) {
      const std::string &Source = Inputs[FirstCopy[Dx]].Source;
      const uint32_t Op = static_cast<uint32_t>(Dx);
      auto ParseTraced = [&] {
        T.count("parse.bytes", Source.size());
        return traced(T, Op, "parse", [&] { return parseProgram(Source); });
      };
      ParseResult PR = ParseTraced();
      if (!PR.succeeded()) {
        Fail(Dx, "does not parse");
        continue;
      }
      Program Prog = std::move(*PR.Prog);
      DependenceAnalyzer A(AO);
      uint64_t T0 = nowNs();
      AnalysisResult R = A.analyze(Prog);
      AnalyzeNs += nowNs() - T0;

      // The replay, once without spans and once with: the difference
      // is what tracing costs.
      Program PlainProg = std::move(*parseProgram(Source).Prog);
      DependenceCache PlainCache(A.cache().options());
      Tracer Off(/*Enabled=*/false);
      uint64_t P0 = nowNs();
      replayProgram(Off, Op, PlainProg, R, A, PlainCache);
      PlainNs += nowNs() - P0;

      Program Replayed = std::move(*ParseTraced().Prog);
      DependenceCache Cache(A.cache().options());
      uint64_t R0 = nowNs();
      size_t S = T.begin(Op);
      std::optional<std::string> Bad =
          replayProgram(T, Op, Replayed, R, A, Cache);
      T.end(S, "replay");
      ReplayNs += nowNs() - R0;
      Rec.replayed(Bad, Rec.OpLocator[Dx]);
      Check(Dx, Prog, R);
    }
    fillLayerMetrics(T, Rec);
    uint64_t Layers = 0;
    for (const char *Name :
         {"prepass", "refs", "build", "memo.hit", "memo.miss", "memo.insert"})
      Layers += T.totals(Name).Ns;
    for (unsigned K = 0; K < NumTestKinds; ++K)
      Layers += T.totals(cascadeSpanName(static_cast<TestKind>(K))).Ns;
    Rec.Layer["trace.coverage_pct"] =
        AnalyzeNs ? 100.0 * Layers / AnalyzeNs : 0;
    Rec.Layer["trace.overhead_pct"] =
        PlainNs ? 100.0 * (static_cast<double>(ReplayNs) - PlainNs) / PlainNs
                : 0;
    if (!C.SpansPath.empty() && !T.writeJsonLines(C.SpansPath))
      std::fprintf(stderr, "cannot write spans to %s\n",
                   C.SpansPath.c_str());
    Rec.Notes.push_back("spans: " + std::to_string(T.numSpans()) +
                        " written to " + C.SpansPath);
    Rec.Counters["gate.unwitnessed"] = Unwitnessed;
    return Rec;
  }

  // Untraced: every copy of every program in every round; an op's time
  // is the best over its copies and rounds. The first execution of a
  // program is gated, every later one must give the same answers.
  BestOf Best(D);
  std::vector<uint64_t> Answers(D, 0);
  std::vector<bool> Checked(D, false);
  for (unsigned Round = 0; Round < NumRounds; ++Round) {
    for (unsigned K = Round == 0 ? 1 : 0; K < SetupsPerRound; ++K)
      Setup();
    for (size_t I = 0; I < N; ++I) {
      const size_t Dx = Inputs[I].Distinct;
      if (!Best.shouldRun(Dx, Round) || Failed[Dx])
        continue;
      uint64_t T0 = nowNs();
      ParseResult PR = parseProgram(Inputs[I].Source);
      if (!PR.succeeded()) {
        Fail(Dx, "does not parse");
        continue;
      }
      Program Prog = std::move(*PR.Prog);
      DependenceAnalyzer A(AO);
      uint64_t T1 = nowNs();
      AnalysisResult R = A.analyze(Prog);
      uint64_t T2 = nowNs();
      Best.record(Dx, T2 - T0, T2 - T1);

      // Outside the timed region.
      uint64_t Got = answerDigest(R);
      if (!Checked[Dx]) {
        Checked[Dx] = true;
        Answers[Dx] = Got;
        Check(Dx, Prog, R);
      } else if (Got != Answers[Dx]) {
        Fail(Dx, "answers differ between executions of one program");
      }
    }
  }
  Rec.ExecutionsPerOp = static_cast<unsigned>(N / D) * NumRounds;
  Rec.BestNs = std::move(Best.Best);
  Rec.BestDecideNs = std::move(Best.BestDecide);
  Rec.Counters["gate.unwitnessed"] = Unwitnessed;
  return Rec;
}

size_t perfbench::scaledCount(unsigned Seconds, double PerSecond) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(Seconds * PerSecond / NumRounds)));
}

const char *perfbench::cascadeSpanName(TestKind Kind) {
  switch (Kind) {
  case TestKind::ArrayConstant:
    return "cascade.const";
  case TestKind::GcdTest:
    return "cascade.gcd";
  case TestKind::Svpc:
    return "cascade.svpc";
  case TestKind::Acyclic:
    return "cascade.acyclic";
  case TestKind::LoopResidue:
    return "cascade.residue";
  case TestKind::FourierMotzkin:
    return "cascade.fm";
  default:
    return "cascade.other";
  }
}

void perfbench::addStatsCounters(const DepStats &S, RunRecord &Rec) {
  for (unsigned K = 0; K < NumTestKinds; ++K)
    Rec.Counters[std::string("tests.") +
                 testKindName(static_cast<TestKind>(K))] += S.Decided[K];
  Rec.Counters["memo.hits_full"] += S.MemoHitsFull;
  Rec.Counters["memo.hits_nobounds"] += S.MemoHitsNoBounds;
  Rec.Counters["fm.work"] += S.FmWork;
  Rec.Counters["widened"] += S.WidenedQueries;
}
