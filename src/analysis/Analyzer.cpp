//===- analysis/Analyzer.cpp - Whole-program dependence analysis ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// analyze() runs in five phases (docs/ALGORITHMS.md, "Parallel
/// analysis"): enumerate candidate pairs; build and key the pairs that
/// need testing; assemble the pair list, deciding unanalyzable and
/// all-constant pairs inline; group the tested pairs; decide the groups.
/// Problems come from the per-reference summaries collectReferences
/// stores. A pair whose subscript differences are all constant is
/// decided from those summaries by the const stage's own rule, and is
/// never built. Each tested pair computes its memo key once; every
/// lookup and insert for it reuses that key.
///
/// The parallel driver's determinism argument, in one place:
///
///  1. Pair enumeration, problem construction and memo keying are pure
///     per pair, so they fan out freely; results land in slots indexed
///     by the serial enumeration order.
///  2. Two tested pairs can observe each other through the cache only
///     when their without-bounds memo keys are equal (the without-bounds
///     key is a prefix of the with-bounds key, so equal full keys imply
///     equal no-bounds keys). Pairs are therefore grouped by
///     without-bounds key and each group runs sequentially, in serial
///     enumeration order, inside one worker task. Across groups the
///     cache is accessed on disjoint keys, so every pair sees exactly
///     the hits and misses a serial run would have produced.
///  3. Per-group DepStats are summed after the barrier; counter sums
///     are order-independent.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "opt/Pipeline.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace edda;

namespace {

/// Resolves MemoOptions::Shards = 0 (auto): one shard for the serial
/// analyzer — byte-identical to the pre-sharding cache — or a few
/// shards per worker so concurrent lookups rarely collide on a lock.
MemoOptions resolveMemoOptions(const AnalyzerOptions &Opts,
                               unsigned NumThreads) {
  MemoOptions M = Opts.Memo;
  if (M.Shards == 0)
    M.Shards = NumThreads <= 1 ? 1 : std::min(64u, NumThreads * 4);
  return M;
}

unsigned resolveThreads(unsigned NumThreads) {
  return NumThreads == 0 ? ThreadPool::hardwareThreads() : NumThreads;
}

AnalyzerOptions resolveOptions(AnalyzerOptions Opts) {
  Opts.NumThreads = resolveThreads(Opts.NumThreads);
  Opts.Memo = resolveMemoOptions(Opts, Opts.NumThreads);
  return Opts;
}

} // namespace

DependenceAnalyzer::DependenceAnalyzer(AnalyzerOptions O)
    : Opts(resolveOptions(std::move(O))), Owned(Opts.Memo) {}

DependenceAnalyzer::DependenceAnalyzer(AnalyzerOptions O,
                                       DependenceCache &SharedCache)
    : Opts(resolveOptions(std::move(O))), Owned(MemoOptions{}),
      External(&SharedCache) {}

void DependenceAnalyzer::runIndexed(
    size_t N, const std::function<void(size_t)> &Body) {
  if (Opts.NumThreads <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Opts.NumThreads);
  Pool->parallelFor(N, Body);
}

void DependenceAnalyzer::decideTestedPair(const BuiltProblem &Built,
                                          const MemoKey *Key,
                                          DependencePair &Pair,
                                          DepStats &Stats,
                                          uint64_t PairKey) {
  const DependenceProblem &Problem = Built.Problem;

  if (Opts.ComputeDirections) {
    // Direction mode: the direction computation's root (*,...,*)
    // query IS the plain dependence test, so it drives everything
    // (running the cascade separately would double-count).
    std::optional<DirectionResult> CachedDirs;
    if (Opts.UseMemoization) {
      CachedDirs = cache().lookupDirections(*Key);
      if (CachedDirs)
        Stats.MemoHitsFull++;
    }
    DirectionResult Dirs;
    if (CachedDirs) {
      Dirs = std::move(*CachedDirs);
      Pair.FromCache = true;
    } else {
      Dirs = computeDirectionVectors(Problem, Opts.Direction);
      if (Opts.UseMemoization) {
        cache().insertDirections(*Key, Dirs, PairKey);
        // The root answer also serves plain (non-direction) runs
        // sharing this cache.
        CascadeResult Root;
        Root.Answer = Dirs.RootAnswer;
        Root.DecidedBy = Dirs.RootDecidedBy;
        Root.Exact = Dirs.Exact;
        Root.Widened = Dirs.RootWidened;
        cache().insertFull(*Key, Root, PairKey);
      }
      Stats += Dirs.TestStats;
    }
    Pair.Answer = Dirs.RootAnswer;
    Pair.DecidedBy = Dirs.RootDecidedBy;
    Pair.Exact = Dirs.Exact && Built.Exact;
    Pair.Directions = std::move(Dirs);
    return;
  }

  // Plain answer, via the full-key table when enabled.
  std::optional<CascadeResult> Cached;
  if (Opts.UseMemoization) {
    Cached = cache().lookupFull(*Key);
    if (Cached)
      Stats.MemoHitsFull++;
  }
  CascadeResult Outcome;
  if (Cached) {
    Outcome = *Cached;
    Pair.FromCache = true;
  } else {
    // The bounds-free table can spare the whole cascade when the
    // equations alone were already proved unsolvable.
    std::optional<bool> GcdKnown;
    if (Opts.UseMemoization) {
      GcdKnown = cache().lookupGcdSolvable(*Key);
      if (GcdKnown)
        Stats.MemoHitsNoBounds++;
    }
    if (GcdKnown && !*GcdKnown) {
      Outcome.Answer = DepAnswer::Independent;
      Outcome.DecidedBy = TestKind::GcdTest;
      Outcome.Exact = true;
      Pair.FromCache = true;
    } else {
      Outcome = testDependence(Problem, Opts.Cascade, &Stats);
      if (Opts.UseMemoization) {
        cache().insertFull(*Key, Outcome, PairKey);
        // A system-stage decision implies the extended GCD found the
        // equations solvable. The Banerjee stage is excluded: its
        // Independent answers can come from the simple GCD test, i.e.
        // from UNsolvable equations.
        if (Outcome.DecidedBy == TestKind::GcdTest)
          cache().insertGcdSolvable(*Key, false);
        else if (Outcome.DecidedBy != TestKind::ArrayConstant &&
                 Outcome.DecidedBy != TestKind::Banerjee &&
                 Outcome.DecidedBy != TestKind::Unanalyzable)
          cache().insertGcdSolvable(*Key, true);
      }
    }
  }
  Pair.Answer = Outcome.Answer;
  Pair.DecidedBy = Outcome.DecidedBy;
  Pair.Exact = Outcome.Exact && Built.Exact;
}

AnalysisResult DependenceAnalyzer::analyze(Program &Prog) {
  return analyzeImpl(Prog, /*Prev=*/nullptr, /*RS=*/nullptr);
}

AnalysisResult
DependenceAnalyzer::reanalyze(Program &Prog,
                              const AnalysisResult &Previous,
                              ReanalyzeStats *RS) {
  return analyzeImpl(Prog, &Previous, RS);
}

AnalysisResult DependenceAnalyzer::analyzeImpl(Program &Prog,
                                               const AnalysisResult *Prev,
                                               ReanalyzeStats *RS) {
  if (Opts.RunPrepass)
    runPrepass(Prog);

  AnalysisResult Result;
  Result.Refs = collectReferences(Prog);
  const std::vector<ArrayReference> &Refs = Result.Refs;

  // The reuse key field; the fuzzer's injected bug drops the bound
  // chain from the key to prove the incr axis catches stale splices.
  auto RefFp = [this](const ArrayReference &R) {
    return Opts.InjectStaleFingerprint ? R.FingerprintNoBounds
                                       : R.Fingerprint;
  };

  // Phase 1 (serial; linear in references plus candidates): enumerate
  // candidate pairs in the canonical (source ref, sink ref) order every
  // downstream consumer relies on, with each pair's common-loop count
  // (loop-object prefix, as the builder computes it) and fingerprint
  // key. A dependence needs a shared array and a write, so each ref
  // pairs only with later refs of its own array: all of them when it
  // is a write, only the writes when it is a read. Refs arrive in
  // program order, so each array's lists are ascending and the pairs
  // come out sorted by (I, J) with no sort.
  std::vector<std::vector<unsigned>> RefsOf(Prog.numArrays());
  std::vector<std::vector<unsigned>> WritesOf(Prog.numArrays());
  for (unsigned I = 0; I < Refs.size(); ++I) {
    RefsOf[Refs[I].ArrayId].push_back(I);
    if (Refs[I].IsWrite)
      WritesOf[Refs[I].ArrayId].push_back(I);
  }
  // Per array: how many of its refs and writes precede the current I.
  std::vector<size_t> RefsSeen(Prog.numArrays(), 0);
  std::vector<size_t> WritesSeen(Prog.numArrays(), 0);
  std::vector<std::pair<unsigned, unsigned>> Candidates;
  std::vector<unsigned> CandCommon;
  std::vector<uint64_t> CandKey;
  for (unsigned I = 0; I < Refs.size(); ++I) {
    unsigned A = Refs[I].ArrayId;
    const std::vector<unsigned> &Sinks =
        Refs[I].IsWrite ? RefsOf[A] : WritesOf[A];
    size_t First = Refs[I].IsWrite ? RefsSeen[A] : WritesSeen[A];
    ++RefsSeen[A];
    if (Refs[I].IsWrite)
      ++WritesSeen[A];
    for (size_t K = First; K < Sinks.size(); ++K) {
      unsigned J = Sinks[K];
      Candidates.emplace_back(I, J);
      unsigned Common = 0;
      while (Common < Refs[I].Loops.size() &&
             Common < Refs[J].Loops.size() &&
             Refs[I].Loops[Common] == Refs[J].Loops[Common])
        ++Common;
      CandCommon.push_back(Common);
      CandKey.push_back(
          pairFingerprint(RefFp(Refs[I]), RefFp(Refs[J]), Common));
    }
  }
  Result.PairsConsidered = Candidates.size();

  // Re-analysis: match candidates against the previous result by
  // fingerprint key. Equal keys mean structurally identical references
  // under structurally identical bound chains with the same
  // commonality, which build the identical problem — so the previous
  // outcome is exact, not approximate. Duplicate keys (cloned
  // statements) all map to one representative; their outcomes coincide
  // for the same reason.
  std::vector<const DependencePair *> Reused(Candidates.size(), nullptr);
  if (Prev) {
    std::unordered_map<uint64_t, const DependencePair *> OldByKey;
    OldByKey.reserve(Prev->Pairs.size());
    for (const DependencePair &P : Prev->Pairs)
      OldByKey.emplace(
          pairFingerprint(RefFp(Prev->Refs[P.RefA]),
                          RefFp(Prev->Refs[P.RefB]),
                          static_cast<unsigned>(P.CommonLoops.size())),
          &P);
    for (size_t C = 0; C < Candidates.size(); ++C) {
      auto It = OldByKey.find(CandKey[C]);
      if (It != OldByKey.end())
        Reused[C] = It->second;
    }
    if (RS) {
      RS->PairsTotal = Candidates.size();
      for (const DependencePair *R : Reused)
        if (R)
          ++RS->PairsReused;
      RS->PairsInvalidated = RS->PairsTotal - RS->PairsReused;
      std::unordered_set<uint64_t> NewKeys(CandKey.begin(),
                                           CandKey.end());
      for (const auto &[Key, P] : OldByKey)
        if (!NewKeys.count(Key))
          RS->StaleKeys.push_back(Key);
      std::sort(RS->StaleKeys.begin(), RS->StaleKeys.end());
    }
  } else if (RS) {
    RS->PairsTotal = RS->PairsInvalidated = Candidates.size();
  }

  // Phase 2 (parallel): per candidate, read off the reference
  // summaries whether the const stage decides it unbuilt; otherwise
  // build its problem and, when the cache is in play and the equations
  // are not all constant, its memo key, whose without-bounds prefix is
  // the determinism grouping key. Pure per candidate. Reused candidates
  // skip all of it; that skip, not edge bookkeeping, is what makes
  // re-analysis O(edit).
  const TestPipeline &Pipeline = Opts.Cascade.Pipeline
                                     ? *Opts.Cascade.Pipeline
                                     : TestPipeline::defaultPipeline();
  struct BuiltCandidate {
    /// Set when the const stage decides the pair from its summaries;
    /// such a pair is not built (except for a trace).
    std::optional<ConstantPair> Constant;
    std::optional<BuiltProblem> Built;
    bool AllConstantEqs = false;
    std::optional<MemoKey> Key;
  };
  std::vector<BuiltCandidate> BuiltPairs(Candidates.size());
  runIndexed(Candidates.size(), [&](size_t C) {
    if (Reused[C])
      return;
    auto [I, J] = Candidates[C];
    BuiltCandidate &BC = BuiltPairs[C];
    std::optional<ConstantPair> CP = constantPair(Refs[I], Refs[J]);
    if (CP && Pipeline.runConstant(CP->NonzeroDifference,
                                   CP->ConstantEmptyLoop, Opts.Cascade,
                                   /*Stats=*/nullptr)) {
      BC.Constant = CP;
      return;
    }
    BC.Built = buildProblem(Prog, Refs[I], Refs[J]);
    if (!BC.Built)
      return;
    BC.AllConstantEqs = true;
    for (const XAffine &Eq : BC.Built->Problem.Equations)
      BC.AllConstantEqs = BC.AllConstantEqs && Eq.isConstant();
    if (!BC.AllConstantEqs && Opts.UseMemoization)
      BC.Key = cache().makeKey(BC.Built->Problem);
  });

  // Phase 3 (serial): assemble the ordered pair list. Unanalyzable and
  // all-constant pairs are decided inline — they never touch the cache
  // and cost next to nothing. Tested pairs get a slot now and a task
  // for the fan-out.
  std::vector<size_t> TaskCandidate; // candidate index per task
  std::vector<size_t> TaskSlot;      // Result.Pairs index per task
  for (size_t C = 0; C < Candidates.size(); ++C) {
    auto [I, J] = Candidates[C];
    BuiltCandidate &BC = BuiltPairs[C];

    DependencePair Pair;
    Pair.RefA = I;
    Pair.RefB = J;
    // The builder's common nest, from Phase 1's count. Reused pairs need
    // it to point into the *new* program (the count matches the old pair
    // by key construction); unanalyzable ones still need it so clients
    // (the parallelizer) serialize conservatively.
    Pair.CommonLoops.assign(Refs[I].Loops.begin(),
                            Refs[I].Loops.begin() + CandCommon[C]);

    if (const DependencePair *Old = Reused[C]) {
      Pair.Answer = Old->Answer;
      Pair.DecidedBy = Old->DecidedBy;
      Pair.Exact = Old->Exact;
      Pair.FromCache = true;
      Pair.Directions = Old->Directions;
      // The report header's unanalyzable count is structural and must
      // stay bit-identical to a fresh run; Stats (decision counters)
      // intentionally cover only re-run pairs.
      if (Pair.DecidedBy == TestKind::Unanalyzable)
        ++Result.UnanalyzablePairs;
      Result.Pairs.push_back(std::move(Pair));
      continue;
    }

    if (!BC.Constant && !BC.Built) {
      ++Result.UnanalyzablePairs;
      Pair.Answer = DepAnswer::Unknown;
      Pair.DecidedBy = TestKind::Unanalyzable;
      Pair.Exact = false;
      Result.Stats.recordDecision(TestKind::Unanalyzable, false);
      Result.Pairs.push_back(std::move(Pair));
      continue;
    }

    // Array constants are handled without dependence testing (paper
    // section 4) — and without memoization overhead, which would
    // otherwise dominate constant-heavy programs like LG. When the
    // const stage's rule decides, not even a problem is built; else the
    // built problem runs through the pipeline.
    if (BC.Constant || BC.AllConstantEqs) {
      CascadeResult Outcome =
          BC.Constant
              ? *Pipeline.runConstant(BC.Constant->NonzeroDifference,
                                      BC.Constant->ConstantEmptyLoop,
                                      Opts.Cascade, &Result.Stats)
              : testDependence(BC.Built->Problem, Opts.Cascade,
                               &Result.Stats);
      Pair.Answer = Outcome.Answer;
      Pair.DecidedBy = Outcome.DecidedBy;
      Pair.Exact = Outcome.Exact &&
                   (BC.Constant ? BC.Constant->Exact : BC.Built->Exact);
      if (Opts.ComputeDirections &&
          Pair.Answer != DepAnswer::Independent) {
        DirectionResult Dirs;
        Dirs.RootAnswer = Pair.Answer;
        Dirs.RootDecidedBy = Outcome.DecidedBy;
        Dirs.Exact = Outcome.Exact;
        Dirs.Widened = Outcome.Widened;
        Dirs.RootWidened = Outcome.Widened;
        Dirs.Distances.assign(CandCommon[C], std::nullopt);
        // Every direction is possible for a constant overlap.
        Dirs.Vectors.push_back(DirVector(CandCommon[C], Dir::Any));
        Pair.Directions = std::move(Dirs);
      }
      Result.Pairs.push_back(std::move(Pair));
      continue;
    }

    TaskCandidate.push_back(C);
    TaskSlot.push_back(Result.Pairs.size());
    Result.Pairs.push_back(std::move(Pair));
  }

  // Phase 4 (serial, cheap): batch tasks into determinism groups. With
  // memoization on, tasks sharing a without-bounds key form one group,
  // ordered by first occurrence; with it off every task is independent.
  std::vector<std::vector<size_t>> Groups;
  if (Opts.UseMemoization) {
    std::unordered_map<MemoKeyView, size_t, MemoKeyViewHash> GroupIndex(
        TaskCandidate.size());
    for (size_t T = 0; T < TaskCandidate.size(); ++T) {
      auto [It, Inserted] = GroupIndex.emplace(
          BuiltPairs[TaskCandidate[T]].Key->noBounds(), Groups.size());
      if (Inserted)
        Groups.emplace_back();
      Groups[It->second].push_back(T);
    }
  } else {
    Groups.resize(TaskCandidate.size());
    for (size_t T = 0; T < TaskCandidate.size(); ++T)
      Groups[T].push_back(T);
  }

  // Phase 5 (parallel): decide each group. Groups touch disjoint cache
  // keys, so inter-group scheduling cannot change any outcome.
  std::vector<DepStats> GroupStats(Groups.size());
  runIndexed(Groups.size(), [&](size_t G) {
    for (size_t T : Groups[G]) {
      const BuiltCandidate &BC = BuiltPairs[TaskCandidate[T]];
      decideTestedPair(*BC.Built, BC.Key ? &*BC.Key : nullptr,
                       Result.Pairs[TaskSlot[T]], GroupStats[G],
                       CandKey[TaskCandidate[T]]);
    }
  });
  for (const DepStats &S : GroupStats)
    Result.Stats += S;

  // Optional trace pass: re-run the pipeline observationally on every
  // analyzable pair — no stats, no memoization — so the records show
  // what each stage did without perturbing the results above. Pairs
  // the const stage decided unbuilt are built here. Phase 3 pushed
  // exactly one pair per candidate, so candidate C's outcome lives in
  // Result.Pairs[C].
  if (Opts.Trace) {
    runIndexed(Candidates.size(), [&](size_t C) {
      BuiltCandidate &BC = BuiltPairs[C];
      if (BC.Constant)
        BC.Built = buildProblem(Prog, Refs[Candidates[C].first],
                                Refs[Candidates[C].second]);
      if (!BC.Built)
        return;
      PipelineTrace Trace;
      Pipeline.run(BC.Built->Problem, {}, Opts.Cascade,
                   /*Stats=*/nullptr, &Trace);
      Result.Pairs[C].Trace = std::move(Trace);
    });
  }
  return Result;
}
