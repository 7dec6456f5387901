//===- fuzz/Fuzzer.cpp - Seeded differential fuzzer -----------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Incremental.h"
#include "analysis/Interp.h"
#include "analysis/Parallelizer.h"
#include "analysis/Widths.h"
#include "deptest/Cascade.h"
#include "deptest/Direction.h"
#include "deptest/Memo.h"
#include "deptest/ProblemIO.h"
#include "deptest/TestPipeline.h"
#include "fuzz/Shrink.h"
#include "parser/Parser.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <unistd.h>

namespace edda {
namespace fuzz {

namespace {

namespace fs = std::filesystem;
using oracle::oracleDependent;
using oracle::oracleDependentSampled;

std::string answerName(DepAnswer A) {
  switch (A) {
  case DepAnswer::Independent:
    return "independent";
  case DepAnswer::Dependent:
    return "dependent";
  case DepAnswer::Unknown:
    return "unknown";
  }
  return "?";
}

/// "answer (decider)", as the mismatch details print a verdict.
std::string verdict(const CascadeResult &R) {
  return answerName(R.Answer) + " (" + testKindName(R.DecidedBy) + ")";
}

void setWiden(AnalyzerOptions &AO, bool Widen) {
  AO.Cascade.Widen = Widen;
  AO.Direction.Cascade.Widen = Widen;
}

/// Direction-option combinations the dirs axis runs: mask bit 0 =
/// EliminateUnusedVars, bit 1 = DistanceVectorPruning, bit 2 =
/// SeparableDimensions.
constexpr unsigned NumDirCombos = 8;

/// Display name of a direction-option combination.
std::string dirComboName(unsigned Mask) {
  std::string Name;
  for (const char *Part : {"elim", "prune", "sep"}) {
    if (Mask & 1)
      Name += (Name.empty() ? "" : "+") + std::string(Part);
    Mask >>= 1;
  }
  return Name.empty() ? "plain" : Name;
}

std::string renderVectors(const std::vector<DirVector> &Vectors) {
  if (Vectors.empty())
    return "{}";
  std::string Out = "{";
  for (unsigned I = 0; I < Vectors.size(); ++I) {
    if (I)
      Out += " ";
    Out += dirVectorStr(Vectors[I]);
  }
  Out += "}";
  return Out;
}

/// Oracle-side checks for one option combination of the dirs axis.
/// \p SoundOnly restricts the comparison to the sound direction — used
/// for sampled symbolic concretizations, where a Dependent root or a
/// reported vector may be realized only off the sample grid, but a
/// missing pattern, an Independent root over a dependence, or a wrong
/// pinned distance is a definite bug at any valuation.
std::optional<std::string>
dirComboVsTruth(unsigned Mask, const DirectionResult &R,
                const oracle::DirectionOracle &Truth, bool SoundOnly,
                const std::string &Where) {
  // Named only on a mismatch: the symbolic sweep calls this per
  // valuation.
  auto Tag = [Mask] { return "dirs[" + dirComboName(Mask) + "]: "; };
  // Soundness: every concrete direction pattern must be covered by
  // some reported vector ('*' is a wildcard).
  for (const DirVector &Concrete : Truth.Patterns) {
    bool Covered = false;
    for (const DirVector &V : R.Vectors)
      Covered |= oracle::dirMatches(V, Concrete);
    if (!Covered)
      return Tag() + "concrete direction " + dirVectorStr(Concrete) +
             Where + " is covered by no reported vector " +
             renderVectors(R.Vectors);
  }
  if (!Truth.Patterns.empty() && R.RootAnswer == DepAnswer::Independent)
    return Tag() + "root says independent but a dependence exists" + Where;
  if (!SoundOnly) {
    if (Truth.Patterns.empty() && R.RootAnswer == DepAnswer::Dependent)
      return Tag() + "root says dependent but enumeration finds no point";
    // Minimality: an Exact result may not report a vector that matches
    // zero concrete patterns.
    if (R.Exact)
      for (const DirVector &V : R.Vectors) {
        bool Matches = false;
        for (const DirVector &Concrete : Truth.Patterns)
          Matches |= oracle::dirMatches(V, Concrete);
        if (!Matches)
          return Tag() + "exact result reports " + dirVectorStr(V) +
                 " which matches no concrete direction";
      }
  }
  // A pinned distance claims *every* dependence pair has that exact
  // i'_k - i_k, so it binds at every concretization with points.
  if (!Truth.Patterns.empty())
    for (unsigned K = 0;
         K < R.Distances.size() && K < Truth.PinnedDistances.size();
         ++K) {
      if (!R.Distances[K])
        continue;
      if (!Truth.PinnedDistances[K])
        return Tag() + "reported distance[" + std::to_string(K) + "] = " +
               std::to_string(*R.Distances[K]) +
               " but the concrete i'_k - i_k is not constant" + Where;
      if (*Truth.PinnedDistances[K] != *R.Distances[K])
        return Tag() + "reported distance[" + std::to_string(K) + "] = " +
               std::to_string(*R.Distances[K]) + " but enumeration pins " +
               std::to_string(*Truth.PinnedDistances[K]) + Where;
    }
  return std::nullopt;
}

/// A collision-safe scratch path (parallel ctest runs fuzz too).
std::string tempCachePath(const char *Tag) {
  std::ostringstream OS;
  OS << "edda-fuzz-" << ::getpid() << "-" << Tag << ".memo";
  return (fs::temp_directory_path() / OS.str()).string();
}

/// Per-pair comparison for the threads and whole-program memo axes.
/// \p CacheSensitive also requires identical FromCache flags (true for
/// the serial-vs-threads bit-identical guarantee; false across a
/// save/load, where hitting the preloaded cache is the point).
std::optional<std::string> comparePairs(const AnalysisResult &A,
                                        const AnalysisResult &B,
                                        bool CacheSensitive) {
  if (A.Refs.size() != B.Refs.size())
    return "reference count mismatch";
  if (A.Pairs.size() != B.Pairs.size())
    return "pair count mismatch";
  for (size_t I = 0; I < A.Pairs.size(); ++I) {
    const DependencePair &PA = A.Pairs[I];
    const DependencePair &PB = B.Pairs[I];
    std::ostringstream Where;
    Where << "pair " << I << " (refs " << PA.RefA << "," << PA.RefB
          << "): ";
    if (PA.RefA != PB.RefA || PA.RefB != PB.RefB)
      return Where.str() + "ref indices differ";
    if (PA.Answer != PB.Answer)
      return Where.str() + "answer " + answerName(PA.Answer) + " vs " +
             answerName(PB.Answer);
    if (PA.DecidedBy != PB.DecidedBy)
      return Where.str() + std::string("decider ") +
             testKindName(PA.DecidedBy) + " vs " +
             testKindName(PB.DecidedBy);
    if (PA.Exact != PB.Exact)
      return Where.str() + "exactness differs";
    if (CacheSensitive && PA.FromCache != PB.FromCache)
      return Where.str() + "cache provenance differs";
    if (PA.Directions.has_value() != PB.Directions.has_value())
      return Where.str() + "direction presence differs";
    if (PA.Directions &&
        (PA.Directions->RootAnswer != PB.Directions->RootAnswer ||
         PA.Directions->Vectors != PB.Directions->Vectors ||
         PA.Directions->Distances != PB.Directions->Distances))
      return Where.str() + "direction vectors differ";
    if (PA.Directions &&
        (PA.Directions->Exact != PB.Directions->Exact ||
         PA.Directions->Widened != PB.Directions->Widened ||
         PA.Directions->RootWidened != PB.Directions->RootWidened))
      return Where.str() + "direction exact/widened bits differ";
  }
  return std::nullopt;
}

/// Collects the statement-index path of every perfect loop pair (a
/// loop whose body is exactly one loop) for the xform axis's direct
/// skew probes.
void collectPerfectPairPaths(const std::vector<StmtPtr> &Body,
                             std::vector<unsigned> &Prefix,
                             std::vector<std::vector<unsigned>> &Out) {
  for (unsigned I = 0; I < Body.size(); ++I) {
    if (Body[I]->kind() != StmtKind::Loop)
      continue;
    const LoopStmt &L = asLoop(*Body[I]);
    Prefix.push_back(I);
    if (L.body().size() == 1 && L.body()[0]->kind() == StmtKind::Loop)
      Out.push_back(Prefix);
    collectPerfectPairPaths(L.body(), Prefix, Out);
    Prefix.pop_back();
  }
}

DependenceProblem underTest(DependenceProblem P, const FuzzContext &Ctx) {
  if (Ctx.Subject.Perturb)
    Ctx.Subject.Perturb(P);
  return P;
}

//===----------------------------------------------------------------------===//
// The checks. Each returns a mismatch detail, or nullopt when its axis
// agrees, and is also its axis's shrink predicate.
//===----------------------------------------------------------------------===//

std::optional<std::string> checkParse(const ProgramCase &C) {
  if (!C.Prog)
    return "generated program failed to parse: " + C.ParseError;
  std::string Printed = C.Prog->print();
  ParseResult Again = parseProgram(Printed);
  if (!Again.succeeded() || Again.Prog->print() != Printed)
    return "print/parse round-trip is not stable";
  return std::nullopt;
}

/// The oracle's case against answer \p R on C.P, or nullopt when it has
/// none: enumeration decides concrete problems; on symbolic ones a
/// sampled valuation that depends refutes Independent, and finding
/// none proves nothing. \p Conclusive reports whether the oracle had
/// jurisdiction.
std::optional<std::string> oracleRefutes(const ProblemCase &C,
                                         const CascadeResult &R,
                                         bool &Conclusive) {
  const DependenceProblem &P = C.P;
  bool Symbolic = P.NumSymbolic != 0;
  std::optional<bool> Truth =
      Symbolic ? oracleDependentSampled(P, {}, C.Ctx.Symbolic)
               : oracleDependent(P, {}, C.Ctx.Oracle);
  Conclusive = Truth.has_value();
  if (!Truth || R.Answer == DepAnswer::Unknown ||
      *Truth == (R.Answer == DepAnswer::Dependent) || (Symbolic && !*Truth))
    return std::nullopt;
  return Symbolic ? "a sampled symbolic valuation depends"
         : *Truth ? "enumeration finds a point"
                  : "enumeration finds no point";
}

std::optional<std::string> checkOracle(const ProblemCase &C, unsigned,
                                       bool &Conclusive) {
  const CascadeResult &R = C.result();
  if (std::optional<std::string> Why = oracleRefutes(C, R, Conclusive))
    return "cascade says " + verdict(R) + " but " + *Why;
  // The witness is checked against the honest problem.
  if (R.Answer == DepAnswer::Dependent && R.Witness &&
      !verifyWitness(C.P, *R.Witness))
    return std::string("witness from ") + testKindName(R.DecidedBy) +
           " violates the problem";
  return std::nullopt;
}

std::optional<std::string> checkDirs(const ProblemCase &C, unsigned,
                                     bool &Conclusive) {
  const DependenceProblem &P = C.P;
  DirectionResult Results[NumDirCombos];
  for (unsigned Mask = 0; Mask < NumDirCombos; ++Mask) {
    DirectionOptions DO = C.Ctx.Subject.Direction;
    DO.Cascade = C.Ctx.Subject.Cascade;
    DO.EliminateUnusedVars = (Mask & 1) != 0;
    DO.DistanceVectorPruning = (Mask & 2) != 0;
    DO.SeparableDimensions = (Mask & 4) != 0;
    Results[Mask] = computeDirectionVectors(C.UnderTest, DO);
  }

  // The pruning options may trade exactness for work, never flip a
  // decisive root or move a pinned distance.
  for (unsigned I = 0; I < NumDirCombos; ++I)
    for (unsigned J = I + 1; J < NumDirCombos; ++J) {
      const DirectionResult &A = Results[I];
      const DirectionResult &B = Results[J];
      if (A.RootAnswer != DepAnswer::Unknown &&
          B.RootAnswer != DepAnswer::Unknown &&
          A.RootAnswer != B.RootAnswer)
        return std::string("dirs: combo ") + dirComboName(I) +
               " root says " + answerName(A.RootAnswer) + ", combo " +
               dirComboName(J) + " says " + answerName(B.RootAnswer);
      for (unsigned K = 0; K < P.NumCommon; ++K)
        if (K < A.Distances.size() && K < B.Distances.size() &&
            A.Distances[K] && B.Distances[K] &&
            *A.Distances[K] != *B.Distances[K])
          return std::string("dirs: combo ") + dirComboName(I) +
                 " pins distance[" + std::to_string(K) + "] = " +
                 std::to_string(*A.Distances[K]) + ", combo " +
                 dirComboName(J) + " pins " +
                 std::to_string(*B.Distances[K]);
    }

  if (P.NumSymbolic == 0) {
    std::optional<oracle::DirectionOracle> Truth =
        oracle::oracleDirectionInfo(P, C.Ctx.Oracle);
    if (!Truth)
      return std::nullopt;
    Conclusive = true;
    for (unsigned Mask = 0; Mask < NumDirCombos; ++Mask)
      if (std::optional<std::string> Detail =
              dirComboVsTruth(Mask, Results[Mask], *Truth,
                              /*SoundOnly=*/false, ""))
        return Detail;
    return std::nullopt;
  }

  // Symbolic problems: sweep the sample grid and hold every reported
  // vector/distance/root claim against each conclusive concretization,
  // in the sound direction only.
  const oracle::SymbolicOracleOptions &SOpts = C.Ctx.Symbolic;
  if (SOpts.SampleValues.empty())
    return std::nullopt;
  uint64_t Total = 1;
  for (unsigned K = 0; K < P.NumSymbolic; ++K) {
    Total *= SOpts.SampleValues.size();
    if (Total > SOpts.MaxValuations)
      return std::nullopt;
  }
  // Spread the enumeration budget across the whole sweep: a 3-symbolic
  // problem visits up to 729 valuations, and giving each the full
  // MaxPoints makes single iterations take minutes. Valuations whose
  // box exceeds the per-valuation slice just read as inconclusive.
  oracle::OracleOptions PerValuation = SOpts.Base;
  PerValuation.MaxPoints =
      std::max<uint64_t>(1024, SOpts.Base.MaxPoints / Total);
  std::vector<int64_t> Values(P.NumSymbolic, SOpts.SampleValues.front());
  std::vector<unsigned> Odometer(P.NumSymbolic, 0);
  bool AllConclusive = true;
  for (uint64_t V = 0; V < Total; ++V) {
    for (unsigned K = 0; K < P.NumSymbolic; ++K)
      Values[K] = SOpts.SampleValues[Odometer[K]];
    std::optional<DependenceProblem> Concrete =
        oracle::concretize(P, Values);
    std::optional<oracle::DirectionOracle> Truth =
        Concrete ? oracle::oracleDirectionInfo(*Concrete, PerValuation)
                 : std::nullopt;
    if (!Truth) {
      AllConclusive = false;
    } else {
      std::string Where = " at symbolic valuation (";
      for (unsigned K = 0; K < P.NumSymbolic; ++K)
        Where += (K ? ", " : "") + std::to_string(Values[K]);
      Where += ")";
      for (unsigned Mask = 0; Mask < NumDirCombos; ++Mask)
        if (std::optional<std::string> Detail =
                dirComboVsTruth(Mask, Results[Mask], *Truth,
                                /*SoundOnly=*/true, Where))
          return Detail;
    }
    for (unsigned K = 0; K < P.NumSymbolic; ++K) {
      if (++Odometer[K] < SOpts.SampleValues.size())
        break;
      Odometer[K] = 0;
    }
  }
  Conclusive = AllConclusive;
  return std::nullopt;
}

std::optional<std::string> checkWiden(const ProblemCase &C, unsigned,
                                      bool &) {
  if (!C.Ctx.Widen)
    return std::nullopt; // Nothing to differ against.
  const CascadeResult &R = C.result();
  CascadeOptions NoWiden = C.Ctx.Subject.Cascade;
  NoWiden.Widen = false;
  CascadeResult RN = testDependence(C.UnderTest, NoWiden);
  if (!R.Widened) {
    // The ladder never produced the answer, so --no-widen must agree
    // on it bit for bit — with one legitimate wiggle: a stage that is
    // applicable only thanks to wide prep can exhaust the ladder and
    // still consume the query (Unknown via FM) where the 64-bit run
    // fell through (Unknown via Unanalyzable), so an Unknown's
    // provenance may differ.
    bool BothUnknown =
        R.Answer == DepAnswer::Unknown && RN.Answer == DepAnswer::Unknown;
    if (R.Answer != RN.Answer || RN.Widened ||
        (!BothUnknown &&
         (R.DecidedBy != RN.DecidedBy || R.Exact != RN.Exact)))
      return "--no-widen perturbs an unwidened result: " + verdict(R) +
             " vs " + verdict(RN);
    return std::nullopt;
  }
  if (RN.Answer != DepAnswer::Unknown) {
    if (R.Answer == DepAnswer::Unknown)
      return "widening lost a decisive answer: --no-widen says " +
             verdict(RN);
    if (R.Answer != RN.Answer)
      return "widened cascade says " + verdict(R) + ", --no-widen says " +
             verdict(RN);
    return std::nullopt;
  }
  // Only the widened run decided: nothing to compare against, so check
  // the answer directly (witness or enumeration oracle).
  if (R.Answer == DepAnswer::Dependent && R.Witness) {
    if (!verifyWitness(C.P, *R.Witness))
      return std::string("widened witness from ") +
             testKindName(R.DecidedBy) + " violates the problem";
    return std::nullopt;
  }
  bool Conclusive = false;
  if (std::optional<std::string> Why = oracleRefutes(C, R, Conclusive))
    return "widened " + verdict(R) + " but " + *Why;
  return std::nullopt;
}

/// The permuted stage orders the pipeline axis holds against the
/// default; each is one variant of its check.
constexpr const char *PermutedPipelines[] = {
    "fm,residue,acyclic,svpc,gcd,const",
    "svpc,acyclic,residue,const,gcd,fm"};

std::optional<std::string> checkPipeline(const ProblemCase &C,
                                         unsigned Variant, bool &) {
  static const std::vector<std::shared_ptr<const TestPipeline>> Pipes = [] {
    std::vector<std::shared_ptr<const TestPipeline>> Out;
    for (const char *Spec : PermutedPipelines) {
      Out.push_back(makePipeline(Spec));
      assert(Out.back() && "permuted pipeline spec failed to parse");
    }
    return Out;
  }();
  // Decisive answers are permutation-invariant; Unknown is not (a
  // consuming stage like FM ends whichever pipeline reaches it
  // first), so only decisive-vs-decisive contradictions count.
  const CascadeResult &R = C.result();
  if (R.Answer == DepAnswer::Unknown)
    return std::nullopt;
  CascadeOptions CO = C.Ctx.Subject.Cascade;
  CO.Pipeline = Pipes[Variant];
  CascadeResult R2 = testDependence(C.UnderTest, CO);
  if (R2.Answer == DepAnswer::Unknown || R2.Answer == R.Answer)
    return std::nullopt;
  return "default pipeline says " + answerName(R.Answer) + ", '" +
         PermutedPipelines[Variant] + "' says " + answerName(R2.Answer);
}

/// The memo axis's problem check on a batch: saves the batch's answers
/// to one cache file, reloads it and returns, per problem, how its
/// answer changed. A whole-file failure is reported once, on the first
/// problem.
std::vector<std::optional<std::string>>
memoBatch(const std::vector<DependenceProblem> &Batch,
          const FuzzContext &Ctx) {
  DependenceCache C1;
  CascadeOptions CO;
  CO.Widen = Ctx.Widen;
  std::vector<DependenceProblem> Problems;
  std::vector<std::optional<CascadeResult>> Expected;
  for (const DependenceProblem &Honest : Batch) {
    const DependenceProblem &P = Problems.emplace_back(underTest(Honest, Ctx));
    if (!C1.lookupFull(P))
      C1.insertFull(P, testDependence(P, CO));
    // The post-insert lookup is the canonical stored value, so the
    // check below is purely about persistence.
    Expected.push_back(C1.lookupFull(P));
  }

  std::string Path = tempCachePath("batch");
  DependenceCache C2;
  bool Persisted = C1.saveToFile(Path) && C2.loadFromFile(Path);
  std::error_code EC;
  fs::remove(Path, EC);

  std::vector<std::optional<std::string>> Details(Batch.size());
  if (!Persisted) {
    Details[0] = "cache save/load failed";
    return Details;
  }
  for (size_t I = 0; I < Problems.size(); ++I) {
    if (!Expected[I])
      continue;
    const CascadeResult &Want = *Expected[I];
    std::optional<CascadeResult> Got = C2.lookupFull(Problems[I]);
    if (!Got)
      Details[I] = "entry missing after cache round-trip";
    else if (Got->Answer != Want.Answer ||
             Got->DecidedBy != Want.DecidedBy ||
             Got->Exact != Want.Exact || Got->Widened != Want.Widened)
      Details[I] = "cached " + answerName(Want.Answer) + " (" +
                   testKindName(Want.DecidedBy) +
                   (Want.Widened ? ", widened" : "") + ") became " +
                   answerName(Got->Answer) + " (" +
                   testKindName(Got->DecidedBy) +
                   (Got->Widened ? ", widened" : "") + ") after round-trip";
  }
  return Details;
}

std::optional<std::string> checkMemo(const ProblemCase &C, unsigned,
                                     bool &) {
  return memoBatch({C.P}, C.Ctx)[0];
}

/// \p AO computing directions, widened as the run is.
AnalyzerOptions withDirections(AnalyzerOptions AO, const FuzzContext &Ctx) {
  AO.ComputeDirections = true;
  setWiden(AO, Ctx.Widen);
  return AO;
}

std::optional<std::string> checkThreads(const ProgramCase &C) {
  AnalyzerOptions Parallel = withDirections({}, C.Ctx);
  Parallel.NumThreads = C.Ctx.Threads;
  Program Copy = *C.Prog;
  AnalysisResult Result = DependenceAnalyzer(Parallel).analyze(Copy);
  if (std::optional<std::string> Mismatch = comparePairs(
          C.serial().Result, Result, /*CacheSensitive=*/true))
    return "serial vs --threads " + std::to_string(C.Ctx.Threads) + ": " +
           *Mismatch;
  return std::nullopt;
}

std::optional<std::string> checkMemoProgram(const ProgramCase &C) {
  // A reload must reproduce every answer (cache provenance
  // legitimately flips to hits).
  ProgramCase::SerialRun &Serial = C.serial();
  std::string Path = tempCachePath("prog");
  DependenceAnalyzer Reloaded(withDirections({}, C.Ctx));
  bool Persisted = Serial.Analyzer->cache().saveToFile(Path) &&
                   Reloaded.cache().loadFromFile(Path);
  std::error_code EC;
  fs::remove(Path, EC);
  std::optional<std::string> Mismatch = "cache save/load failed";
  if (Persisted) {
    Program Copy = *C.Prog;
    Mismatch = comparePairs(Serial.Result, Reloaded.analyze(Copy),
                            /*CacheSensitive=*/false);
  }
  if (Mismatch)
    return "whole-program cache round-trip: " + *Mismatch;
  return std::nullopt;
}

std::optional<std::string> checkIncr(const ProgramCase &C) {
  // The from-scratch baseline always analyzes honestly; only the
  // session runs the subject's options.
  AnalyzerOptions Fresh = withDirections({}, C.Ctx);
  IncrementalSession Session(withDirections(C.Ctx.Subject.Analyzer, C.Ctx));

  Program Master = *C.Prog; // Un-prepassed; edits apply here.
  Session.update(Master);

  // Print -> parse after every edit, as an editor-driven loop would,
  // which also exercises fingerprint stability across re-parsing.
  for (size_t E = 0; E < C.Edits.size(); ++E) {
    SplitRng ERng(C.Edits[E]);
    std::string EditDesc = applyRandomEdit(Master, ERng);
    ParseResult EP = parseProgram(Master.print());
    if (!EP.succeeded())
      return std::nullopt; // An edit-model bug, not an incr mismatch.
    Master = std::move(*EP.Prog);

    Session.update(Master);
    std::string Spliced = Session.graph().str(Session.program());

    Program Scratch = Master;
    DependenceAnalyzer Analyzer(Fresh);
    DependenceGraph FreshGraph = DependenceGraph::build(Scratch, Analyzer);
    if (Spliced != FreshGraph.str(Scratch))
      return "edit " + std::to_string(E + 1) + "/" +
             std::to_string(C.Edits.size()) + " (" + EditDesc +
             "): spliced graph diverges from from-scratch analysis";
  }
  return std::nullopt;
}

std::optional<std::string> checkXform(const ProgramCase &C) {
  const Program &Prog = *C.Prog;
  SearchOptions SO = C.Ctx.Subject.Search;
  SO.BeamWidth = 2;
  SO.MaxSteps = 2;
  SO.SkewFactors = {1, -1, 2};
  setWiden(SO.Analyzer, C.Ctx.Widen);

  // Direct probes: catch application/model mismatches even on
  // programs where the search would never choose a skew.
  std::vector<std::vector<unsigned>> Pairs;
  std::vector<unsigned> Prefix;
  collectPerfectPairPaths(Prog.body(), Prefix, Pairs);
  for (const std::vector<unsigned> &Path : Pairs)
    for (int64_t Factor : SO.SkewFactors) {
      SkewProbeResult Probe = probeSkew(Prog, Path, Factor, SO);
      if (Probe.Applied && !Probe.Ok)
        return "skew probe (factor " + std::to_string(Factor) +
               ") prediction mismatch: " + Probe.Note;
    }

  SearchResult R = searchTransformations(Prog, SO);
  if (!R.PredictionsHeld)
    return "search discarded a skew whose prediction audit failed";

  // The emitted schedule must be semantics-preserving...
  InterpResult Base = interpret(R.Base);
  InterpResult Best = interpret(R.Best);
  if (Base.Ok != Best.Ok)
    return "interpreter verdict differs between base and transformed "
           "program";
  if (Base.Ok && Base.Memory != Best.Memory)
    return "transformed program computes a different memory image";

  // ...and its parallel claims must survive a from-scratch analysis.
  for (const Program *Claimed : {&R.Base, &R.Best}) {
    Program Fresh(*Claimed);
    AnalysisResult Result =
        DependenceAnalyzer(withDirections({}, C.Ctx)).analyze(Fresh);
    DependenceGraph Graph = DependenceGraph::buildFromResult(Result);
    std::string Bad;
    std::function<void(const std::vector<StmtPtr> &)> Walk =
        [&](const std::vector<StmtPtr> &Body) {
          for (const StmtPtr &S : Body) {
            if (S->kind() != StmtKind::Loop || !Bad.empty())
              continue;
            const LoopStmt &L = asLoop(*S);
            if (L.isParallel()) {
              if (!canParallelize(Graph, &L).Legal)
                Bad = "claimed parallel loop '" +
                      Fresh.var(L.varId()).Name +
                      "' fails canParallelize on a fresh graph";
              for (const auto &[Var, Class] :
                   classifyScalars(Fresh, L))
                if (Class == ScalarClass::Carried)
                  Bad = "claimed parallel loop '" +
                        Fresh.var(L.varId()).Name +
                        "' carries scalar '" + Fresh.var(Var).Name +
                        "'";
            }
            Walk(L.body());
          }
        };
    Walk(Fresh.body());
    if (!Bad.empty())
      return Bad;
  }
  return std::nullopt;
}

std::optional<std::string> checkWidth(const ProgramCase &C) {
  WidthOptions WO;
  // Small caps keep the probe searches and the re-execution sweep
  // cheap; random programs rarely have carried distances beyond 8.
  WO.MaxWidth = 8;
  WO.MaxCoarsen = 8;
  setWiden(WO.Analyzer, C.Ctx.Widen);
  Program Prog = *C.Prog;
  WidthAnalysis WA = analyzeWidths(Prog, WO);
  std::string Mismatch = validateWidths(Prog, WA, /*UnboundedSampleWidth=*/4);
  if (!Mismatch.empty())
    return Mismatch;
  return std::nullopt;
}

} // namespace

//===----------------------------------------------------------------------===//
// The axis table.
//===----------------------------------------------------------------------===//

const std::vector<FuzzAxisSpec> &fuzzAxes() {
  static const std::vector<FuzzAxisSpec> Axes = {
      // parse: every generated program parses, and print/parse reaches
      // a fixed point in one step. Always on: a program that does not
      // parse has nothing else to check.
      {.Name = "parse", .Program = checkParse, .AlwaysOn = true},

      // oracle: the cascade verdict vs. brute-force enumeration
      // (symbolic problems via the sampled-concretization soundness
      // check), plus witness verification against the honest problem.
      {.Name = "oracle",
       .Problem = checkOracle,
       .Bugs = {// Flips the sign of the first equation's constant: the
                // classic transcription error in a subscript difference.
                {"negate-eq-const",
                 [](FuzzSubject &S) {
                   S.Perturb = [](DependenceProblem &P) {
                     if (!P.Equations.empty())
                       P.Equations[0].Const = -P.Equations[0].Const;
                   };
                 }},
                // Shrinks Fourier-Motzkin's dark-shadow offset
                // (a-1)(c-1) by one, so FM claims integer points for
                // systems only the rational relaxation satisfies: the
                // oracle sees unsound Dependent answers whose witnesses
                // violate the problem.
                {"fm-dark-shadow",
                 [](FuzzSubject &S) {
                   S.Cascade.Fm.InjectDarkShadowOffByOne = true;
                 }}},
       .Conclusive = &FuzzSummary::OracleConclusive},

      // dirs: the Burke-Cytron direction/distance hierarchy vs. the
      // enumeration oracle. Every concrete direction pattern must be
      // covered by a reported vector, Exact results must also be
      // minimal, pinned distances must equal the unique concrete
      // i'_k - i_k, and every EliminateUnusedVars /
      // DistanceVectorPruning / SeparableDimensions combination must
      // agree on decisive roots and pinned distances
      // (symbolic problems via sampled concretization, checked in the
      // sound direction only).
      {.Name = "dirs",
       .Problem = checkDirs,
       // Flips the sign of every distance the GCD pruning pins; the
       // plain cascade is untouched.
       .Bugs = {{"dir-prune-sign",
                 [](FuzzSubject &S) {
                   S.Direction.InjectMisSignedPruning = true;
                 }}},
       .Conclusive = &FuzzSummary::DirsConclusive},

      // widen: the default cascade vs. --no-widen. When the 128-bit
      // ladder never fired the results must be bit-identical; when both
      // decide they must agree; answers only the widened run produces
      // are witness-verified or checked against the enumeration oracle.
      {.Name = "widen", .Problem = checkWiden},

      // pipeline: the default cascade vs. permuted stage pipelines.
      // Decisive answers must agree (Unknown is order-dependent by
      // design: a consuming stage ends the pipeline). Each permutation
      // is a variant, so each one that disagrees is reported.
      {.Name = "pipeline",
       .Problem = checkPipeline,
       .Variants = std::size(PermutedPipelines)},

      // incr: incremental re-analysis vs. from-scratch. A random edit
      // sequence (subscript/rhs modifications, bound tweaks, statement
      // insert/delete) is applied step by step to one program held in
      // an IncrementalSession; after every step the spliced dependence
      // graph must render bit-identically to a fresh analysis of the
      // edited program.
      {.Name = "incr",
       .Program = checkIncr,
       // Keys re-analysis reuse on the bounds-free reference
       // fingerprints, so bound edits splice stale results.
       .Bugs = {{"stale-fingerprint",
                 [](FuzzSubject &S) {
                   S.Analyzer.InjectStaleFingerprint = true;
                 }}},
       .Edits = true},

      // xform: the transformation search vs. ground truth. Every
      // perfect loop pair is skew-probed (the fresh direction vectors
      // must match the skewVector prediction), and a small beam search
      // must emit schedules whose claimed parallel loops re-validate on
      // a from-scratch analysis and whose interpreter memory image
      // matches the base program's.
      {.Name = "xform",
       .Program = checkXform,
       // Applies every skew with the opposite factor while predicting
       // with the requested one. The mis-signed skew is still a valid
       // order-preserving reindexing, so the interpreter cannot tell;
       // only the prediction audit can.
       .Bugs = {{"skew-sign",
                 [](FuzzSubject &S) { S.Search.InjectMisSignedSkew = true; }}}},

      // width: the width/coarsening client vs. the interpreter oracle.
      // Per-loop vector widths and coarsening factors from
      // analyzeWidths must survive validateWidths: real carried
      // distances mined from the serial trace must respect every claim,
      // and chunked re-execution at each width W up to the reported
      // maximum (both lane orders) must be memory-identical to the
      // serial run.
      {.Name = "width", .Program = checkWidth},

      // threads: the serial analyzer vs. --threads N on the same
      // program; pair results must be bit-identical.
      {.Name = "threads", .Program = checkThreads},

      // memo: cache save/load round-trips must preserve every cached
      // answer (including the Widened provenance bit), both for problem
      // batches and for whole-program analysis re-run from a reloaded
      // cache. Problems go through one 32-problem batch file, which
      // also exercises many entries per file; a failing problem shrinks
      // on its own.
      {.Name = "memo",
       .Problem = checkMemo,
       .Program = checkMemoProgram,
       .ProblemBatch = memoBatch},
  };
  return Axes;
}

const FuzzAxisSpec *findFuzzAxis(std::string_view Name) {
  for (const FuzzAxisSpec &A : fuzzAxes())
    if (Name == A.Name)
      return &A;
  return nullptr;
}

const PlantedBug *findPlantedBug(std::string_view Name) {
  for (const FuzzAxisSpec &A : fuzzAxes())
    for (const PlantedBug &B : A.Bugs)
      if (Name == B.Name)
        return &B;
  return nullptr;
}

FuzzContext::FuzzContext(const FuzzOptions &Opts)
    : Widen(Opts.Widen), Threads(Opts.Threads) {
  Subject.Cascade.Widen = Widen;
  // Small spans keep enumeration cheap; the cap still covers every
  // problem the generator can emit with room to spare.
  Oracle.MaxPoints = 1u << 18;
  Symbolic.Base = Oracle;
  if (!Opts.Bug.empty()) {
    const PlantedBug *Bug = findPlantedBug(Opts.Bug);
    assert(Bug && "unknown planted bug");
    if (Bug)
      Bug->Plant(Subject);
  }
}

ProblemCase::ProblemCase(const DependenceProblem &P, const FuzzContext &Ctx)
    : P(P), UnderTest(underTest(P, Ctx)), Ctx(Ctx) {}

const CascadeResult &ProblemCase::result() const {
  if (!Result)
    Result = testDependence(UnderTest, Ctx.Subject.Cascade);
  return *Result;
}

ProgramCase::ProgramCase(std::string Source, std::vector<uint64_t> Edits,
                         const FuzzContext &Ctx)
    : Source(std::move(Source)), Edits(std::move(Edits)), Ctx(Ctx) {
  ParseResult PR = parseProgram(this->Source);
  if (PR.succeeded())
    Prog = std::move(PR.Prog);
  else
    ParseError =
        PR.Diags.empty() ? std::string("no diagnostic") : PR.Diags[0].str();
}

ProgramCase::SerialRun &ProgramCase::serial() const {
  if (!Serial) {
    Serial = std::make_unique<SerialRun>();
    Serial->Analyzer =
        std::make_unique<DependenceAnalyzer>(withDirections({}, Ctx));
    Program Copy = *Prog;
    Serial->Result = Serial->Analyzer->analyze(Copy);
  }
  return *Serial;
}

//===----------------------------------------------------------------------===//
// The runner.
//===----------------------------------------------------------------------===//

namespace {

class FuzzRunner {
public:
  FuzzRunner(const FuzzOptions &Opts, std::ostream *Log)
      : Opts(Opts), Log(Log), Ctx(Opts) {}

  FuzzSummary run();

private:
  const FuzzOptions &Opts;
  std::ostream *Log;
  FuzzContext Ctx;
  FuzzSummary S;
  std::map<const FuzzAxisSpec *, std::vector<DependenceProblem>> Batches;

  bool done() const { return S.Failures.size() >= Opts.MaxFailures; }
  bool enabled(const FuzzAxisSpec &A) const {
    return A.AlwaysOn || Opts.Axes.empty() || Opts.Axes.count(A.Name);
  }

  void checkProblem(const DependenceProblem &P, uint64_t Iter);
  void checkProgram(std::string Source, uint64_t Iter);
  void flush(const FuzzAxisSpec &A, uint64_t Iter);

  void failProblem(const FuzzAxisSpec &A, unsigned Variant, uint64_t Iter,
                   const DependenceProblem &P, std::string Detail);
  void failProgram(const FuzzAxisSpec &A, uint64_t Iter,
                   const ProgramCase &C, std::string Detail);
  std::string header(const FuzzAxisSpec &A, uint64_t Iter,
                     const std::string &Detail) const;
  void emit(FuzzFailure F);
};

FuzzSummary FuzzRunner::run() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  uint64_t Limit = Opts.Count;
  if (Limit == 0 && Opts.TimeBudgetSeconds <= 0)
    Limit = 5000;

  for (uint64_t I = 0;; ++I) {
    if (Limit && I >= Limit)
      break;
    if (Opts.TimeBudgetSeconds > 0 &&
        std::chrono::duration<double>(Clock::now() - Start).count() >=
            Opts.TimeBudgetSeconds)
      break;
    if (done())
      break;

    // Each iteration owns an independent deterministic stream, so a
    // failure report's (seed, iteration) replays in isolation.
    SplitRng Rng(Opts.Seed + 0x9E3779B97F4A7C15ULL * (I + 1));
    ++S.Iterations;
    bool ProgramIter =
        Opts.ProgramEvery && (I % Opts.ProgramEvery) == Opts.ProgramEvery - 1;
    if (ProgramIter) {
      ++S.Programs;
      checkProgram(generateRandomProgram(Rng, Opts.Program), I);
    } else {
      ++S.Problems;
      checkProblem(randomFuzzProblem(Rng, Opts.Problem), I);
    }

    if (Log && S.Iterations % 1000 == 0)
      *Log << "edda-fuzz: " << S.Iterations << " iterations, "
           << S.Failures.size() << " failure(s)\n";
  }

  for (auto &Entry : Batches)
    flush(*Entry.first, S.Iterations);
  return std::move(S);
}

void FuzzRunner::checkProblem(const DependenceProblem &P, uint64_t Iter) {
  ProblemCase C(P, Ctx);
  for (const FuzzAxisSpec &A : fuzzAxes()) {
    if (!A.Problem || !enabled(A))
      continue;
    if (A.ProblemBatch) {
      std::vector<DependenceProblem> &Batch = Batches[&A];
      Batch.push_back(P);
      if (Batch.size() >= 32)
        flush(A, Iter);
      continue;
    }
    for (unsigned V = 0; V < A.Variants && !done(); ++V) {
      bool Conclusive = false;
      std::optional<std::string> Detail = A.Problem(C, V, Conclusive);
      if (Conclusive && A.Conclusive)
        ++(S.*A.Conclusive);
      if (Detail)
        failProblem(A, V, Iter, P, std::move(*Detail));
    }
    if (done())
      return;
  }
}

void FuzzRunner::flush(const FuzzAxisSpec &A, uint64_t Iter) {
  std::vector<DependenceProblem> Batch;
  Batch.swap(Batches[&A]);
  if (Batch.empty() || done())
    return;
  std::vector<std::optional<std::string>> Details = A.ProblemBatch(Batch, Ctx);
  for (size_t I = 0; I < Batch.size() && !done(); ++I)
    if (Details[I])
      failProblem(A, 0, Iter, Batch[I], std::move(*Details[I]));
}

void FuzzRunner::checkProgram(std::string Source, uint64_t Iter) {
  // Each edit owns an independent seed, so an edit sequence can shrink
  // by dropping edits without perturbing the survivors.
  SplitRng SeedRng(Opts.Seed ^ (0xC2B2AE3D27D4EB4FULL * (Iter + 1)));
  std::vector<uint64_t> Edits(
      1 + static_cast<unsigned>(SeedRng.below(std::max(1u, Opts.MaxEdits))));
  for (uint64_t &E : Edits)
    E = SeedRng.next();

  ProgramCase C(std::move(Source), std::move(Edits), Ctx);
  for (const FuzzAxisSpec &A : fuzzAxes()) {
    if (!A.Program || !enabled(A) || (!C.Prog && !A.AlwaysOn))
      continue;
    if (std::optional<std::string> Detail = A.Program(C))
      failProgram(A, Iter, C, std::move(*Detail));
    if (done())
      return;
  }
}

void FuzzRunner::failProblem(const FuzzAxisSpec &A, unsigned Variant,
                             uint64_t Iter, const DependenceProblem &P,
                             std::string Detail) {
  auto Check = [&](const DependenceProblem &Q) {
    bool Conclusive = false;
    return A.Problem(ProblemCase(Q, Ctx), Variant, Conclusive);
  };
  DependenceProblem Shrunk = shrinkProblem(
      P, [&](const DependenceProblem &Q) { return Check(Q).has_value(); });
  if (std::optional<std::string> D = Check(Shrunk))
    Detail = std::move(*D);

  // The expectation header comes from the clean cascade, corrected by
  // enumeration when they disagree (which is the bug being reported):
  // once fixed, the file drops into tests/inputs/corpus/ unchanged.
  CascadeResult Clean = testDependence(Shrunk);
  std::optional<bool> Truth = Shrunk.NumSymbolic == 0
                                  ? oracleDependent(Shrunk, {}, Ctx.Oracle)
                                  : std::nullopt;
  std::ostringstream OS;
  bool Dep = Truth ? *Truth : Clean.Answer == DepAnswer::Dependent;
  if (Truth || Clean.Answer != DepAnswer::Unknown)
    OS << "# expect: " << (Dep ? "dependent" : "independent") << " "
       << testKindName(Clean.DecidedBy) << "\n";
  OS << header(A, Iter, Detail) << printProblemText(Shrunk);
  emit({A.Name, Iter, std::move(Detail), OS.str(), /*IsProgram=*/false, "",
        0});
}

void FuzzRunner::failProgram(const FuzzAxisSpec &A, uint64_t Iter,
                             const ProgramCase &C, std::string Detail) {
  auto Check = [&](const std::string &Src,
                   const std::vector<uint64_t> &Edits)
      -> std::optional<std::string> {
    ProgramCase Q(Src, Edits, Ctx);
    if (!Q.Prog)
      return std::nullopt;
    return A.Program(Q);
  };
  // Shrink the edit sequence first (greedy subset minimization to a
  // fixed point), then the program source under the surviving edits.
  std::vector<uint64_t> Edits = C.Edits;
  bool Progress = A.Edits;
  while (Progress && Edits.size() > 1) {
    Progress = false;
    for (size_t E = 0; E < Edits.size() && !Progress; ++E) {
      std::vector<uint64_t> Candidate = Edits;
      Candidate.erase(Candidate.begin() + static_cast<long>(E));
      if (Check(C.Source, Candidate)) {
        Edits = std::move(Candidate);
        Progress = true;
      }
    }
  }
  std::string Shrunk =
      shrinkProgramSource(C.Source, [&](const std::string &Src) {
        return Check(Src, Edits).has_value();
      });
  if (std::optional<std::string> D = Check(Shrunk, Edits))
    Detail = std::move(*D);

  std::ostringstream OS;
  OS << header(A, Iter, Detail);
  // The edit seeds ride along in a comment so the reproducer names the
  // full failing (program, edit sequence) input.
  if (A.Edits) {
    OS << "# edda-fuzz-edits:";
    for (uint64_t E : Edits)
      OS << " " << E;
    OS << "\n";
  }
  OS << Shrunk;
  emit({A.Name, Iter, std::move(Detail), OS.str(), /*IsProgram=*/true, "",
        A.Edits ? static_cast<unsigned>(Edits.size()) : 0u});
}

std::string FuzzRunner::header(const FuzzAxisSpec &A, uint64_t Iter,
                               const std::string &Detail) const {
  std::ostringstream OS;
  OS << "# edda-fuzz: axis=" << A.Name << " seed=" << Opts.Seed
     << " iteration=" << Iter;
  if (!Opts.Bug.empty())
    OS << " inject-bug=" << Opts.Bug;
  OS << "\n# " << Detail << "\n";
  return OS.str();
}

void FuzzRunner::emit(FuzzFailure F) {
  if (!Opts.OutDir.empty()) {
    std::error_code EC;
    fs::create_directories(Opts.OutDir, EC);
    std::ostringstream Name;
    Name << "fuzz-" << F.Axis << "-seed" << Opts.Seed << "-i"
         << F.Iteration << (F.IsProgram ? ".loop" : ".dep");
    fs::path Path = fs::path(Opts.OutDir) / Name.str();
    std::ofstream Out(Path);
    Out << F.Reproducer;
    if (Out)
      F.Path = Path.string();
  }
  if (Log)
    *Log << "edda-fuzz: FAILURE [" << F.Axis << "] iteration "
         << F.Iteration << ": " << F.Detail
         << (F.Path.empty() ? "" : "\n  reproducer: " + F.Path) << "\n";
  S.Failures.push_back(std::move(F));
}

} // namespace

FuzzSummary runFuzz(const FuzzOptions &Opts, std::ostream *Log) {
  return FuzzRunner(Opts, Log).run();
}

} // namespace fuzz
} // namespace edda
