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
#include <bit>
#include <numeric>
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
  // is a write, only the writes when it is a read. Each array's refs
  // and writes, in program order, form two CSR lists: array A's refs
  // are RefList[RefBegin[A], RefBegin[A + 1]). Refs arrive in program
  // order, so the pairs come out sorted by (I, J) with no sort.
  const unsigned NumArrays = Prog.numArrays();
  std::vector<unsigned> RefBegin(NumArrays + 1, 0);
  std::vector<unsigned> WriteBegin(NumArrays + 1, 0);
  for (const ArrayReference &R : Refs) {
    ++RefBegin[R.ArrayId + 1];
    WriteBegin[R.ArrayId + 1] += R.IsWrite;
  }
  std::partial_sum(RefBegin.begin(), RefBegin.end(), RefBegin.begin());
  std::partial_sum(WriteBegin.begin(), WriteBegin.end(),
                   WriteBegin.begin());
  // Per array: the first of its refs and writes not yet placed; then,
  // reset, the first not yet passed by I.
  std::vector<unsigned> RefNext(RefBegin.begin(), RefBegin.end() - 1);
  std::vector<unsigned> WriteNext(WriteBegin.begin(), WriteBegin.end() - 1);
  std::vector<unsigned> RefList(Refs.size());
  std::vector<unsigned> WriteList(WriteBegin.back());
  for (unsigned I = 0; I < Refs.size(); ++I) {
    RefList[RefNext[Refs[I].ArrayId]++] = I;
    if (Refs[I].IsWrite)
      WriteList[WriteNext[Refs[I].ArrayId]++] = I;
  }
  std::copy(RefBegin.begin(), RefBegin.end() - 1, RefNext.begin());
  std::copy(WriteBegin.begin(), WriteBegin.end() - 1, WriteNext.begin());
  struct Candidate {
    unsigned I = 0, J = 0;
    unsigned Common = 0;
    uint64_t Key = 0;
  };
  std::vector<Candidate> Candidates;
  for (unsigned I = 0; I < Refs.size(); ++I) {
    const ArrayReference &Src = Refs[I];
    const unsigned A = Src.ArrayId;
    std::span<const unsigned> Sinks =
        Src.IsWrite ? std::span<const unsigned>(RefList).subspan(
                          RefNext[A], RefBegin[A + 1] - RefNext[A])
                    : std::span<const unsigned>(WriteList).subspan(
                          WriteNext[A], WriteBegin[A + 1] - WriteNext[A]);
    ++RefNext[A];
    WriteNext[A] += Src.IsWrite;
    for (unsigned J : Sinks) {
      const ArrayReference &Sink = Refs[J];
      unsigned Common = 0;
      while (Common < Src.Loops.size() && Common < Sink.Loops.size() &&
             Src.Loops[Common] == Sink.Loops[Common])
        ++Common;
      Candidates.push_back(
          {I, J, Common, pairFingerprint(RefFp(Src), RefFp(Sink), Common)});
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
      auto It = OldByKey.find(Candidates[C].Key);
      if (It != OldByKey.end())
        Reused[C] = It->second;
    }
    if (RS) {
      RS->PairsTotal = Candidates.size();
      for (const DependencePair *R : Reused)
        if (R)
          ++RS->PairsReused;
      RS->PairsInvalidated = RS->PairsTotal - RS->PairsReused;
      std::unordered_set<uint64_t> NewKeys;
      NewKeys.reserve(Candidates.size());
      for (const Candidate &Cand : Candidates)
        NewKeys.insert(Cand.Key);
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
    const ArrayReference &A = Refs[Candidates[C].I];
    const ArrayReference &B = Refs[Candidates[C].J];
    BuiltCandidate &BC = BuiltPairs[C];
    std::optional<ConstantPair> CP = constantPair(A, B);
    if (CP && Pipeline.runConstant(CP->NonzeroDifference,
                                   CP->ConstantEmptyLoop, Opts.Cascade,
                                   /*Stats=*/nullptr)) {
      BC.Constant = CP;
      return;
    }
    BC.Built = buildProblem(Prog, A, B);
    if (!BC.Built)
      return;
    BC.AllConstantEqs = true;
    for (const XAffine &Eq : BC.Built->Problem.Equations)
      BC.AllConstantEqs = BC.AllConstantEqs && Eq.isConstant();
    if (!BC.AllConstantEqs && Opts.UseMemoization)
      BC.Key = cache().makeKey(BC.Built->Problem);
  });

  // Phase 3 (serial): assemble the ordered pair list, one pair per
  // candidate, so candidate C's outcome lives in Result.Pairs[C].
  // Unanalyzable and all-constant pairs are decided inline — they never
  // touch the cache and cost next to nothing. Tested pairs become tasks
  // for the fan-out.
  Result.Pairs.reserve(Candidates.size());
  std::vector<unsigned> Tasks; // candidate index per task
  for (size_t C = 0; C < Candidates.size(); ++C) {
    const Candidate &Cand = Candidates[C];
    BuiltCandidate &BC = BuiltPairs[C];

    DependencePair &Pair = Result.Pairs.emplace_back();
    Pair.RefA = Cand.I;
    Pair.RefB = Cand.J;
    // The builder's common nest, from Phase 1's count. Reused pairs need
    // it to point into the *new* program (the count matches the old pair
    // by key construction); unanalyzable ones still need it so clients
    // (the parallelizer) serialize conservatively.
    Pair.CommonLoops = Refs[Cand.I].Loops.first(Cand.Common);

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
      continue;
    }

    if (!BC.Constant && !BC.Built) {
      ++Result.UnanalyzablePairs;
      Pair.Answer = DepAnswer::Unknown;
      Pair.DecidedBy = TestKind::Unanalyzable;
      Pair.Exact = false;
      Result.Stats.recordDecision(TestKind::Unanalyzable, false);
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
        Dirs.Distances.assign(Cand.Common, std::nullopt);
        // Every direction is possible for a constant overlap.
        Dirs.Vectors.push_back(DirVector(Cand.Common, Dir::Any));
        Pair.Directions = std::move(Dirs);
      }
      continue;
    }

    Tasks.push_back(static_cast<unsigned>(C));
  }

  // Phase 4 (serial, cheap): batch tasks into determinism groups. With
  // memoization on, tasks sharing a without-bounds key form one group,
  // numbered by first occurrence; with it off every task is its own
  // group. The groups form one flat index: group G's candidates are
  // GroupCandidates[GroupBegin[G], GroupBegin[G + 1]), in task order.
  const size_t NumTasks = Tasks.size();
  std::vector<unsigned> GroupOf(NumTasks);
  unsigned NumGroups = 0;
  if (Opts.UseMemoization) {
    // Open addressing over a table at most half full; a slot holds the
    // first task of its group.
    auto KeyOf = [&](unsigned T) {
      return BuiltPairs[Tasks[T]].Key->noBounds();
    };
    constexpr unsigned NoTask = ~0u;
    const size_t Size = std::bit_ceil(2 * NumTasks + 2);
    const int Shift = 64 - std::countr_zero(Size);
    std::vector<unsigned> FirstTask(Size, NoTask);
    for (unsigned T = 0; T < NumTasks; ++T) {
      const MemoKeyView K = KeyOf(T);
      size_t S = (K.Hash * 0x9E3779B97F4A7C15ull) >> Shift;
      while (FirstTask[S] != NoTask && !(KeyOf(FirstTask[S]) == K))
        S = (S + 1) & (Size - 1);
      if (FirstTask[S] == NoTask) {
        FirstTask[S] = T;
        GroupOf[T] = NumGroups++;
      } else {
        GroupOf[T] = GroupOf[FirstTask[S]];
      }
    }
  } else {
    std::iota(GroupOf.begin(), GroupOf.end(), 0u);
    NumGroups = static_cast<unsigned>(NumTasks);
  }
  std::vector<unsigned> GroupBegin(NumGroups + 1, 0);
  for (unsigned G : GroupOf)
    ++GroupBegin[G + 1];
  std::partial_sum(GroupBegin.begin(), GroupBegin.end(),
                   GroupBegin.begin());
  std::vector<unsigned> GroupCandidates(NumTasks);
  std::vector<unsigned> GroupNext(GroupBegin.begin(), GroupBegin.end() - 1);
  for (size_t T = 0; T < NumTasks; ++T)
    GroupCandidates[GroupNext[GroupOf[T]]++] = Tasks[T];

  // Phase 5 (parallel): decide each group. Groups touch disjoint cache
  // keys, so inter-group scheduling cannot change any outcome.
  std::vector<DepStats> GroupStats(NumGroups);
  runIndexed(NumGroups, [&](size_t G) {
    for (unsigned K = GroupBegin[G]; K < GroupBegin[G + 1]; ++K) {
      const unsigned C = GroupCandidates[K];
      const BuiltCandidate &BC = BuiltPairs[C];
      decideTestedPair(*BC.Built, BC.Key ? &*BC.Key : nullptr,
                       Result.Pairs[C], GroupStats[G], Candidates[C].Key);
    }
  });
  for (const DepStats &S : GroupStats)
    Result.Stats += S;

  // Optional trace pass: re-run the pipeline observationally on every
  // analyzable pair — no stats, no memoization — so the records show
  // what each stage did without perturbing the results above. Pairs
  // the const stage decided unbuilt are built here.
  if (Opts.Trace) {
    runIndexed(Candidates.size(), [&](size_t C) {
      BuiltCandidate &BC = BuiltPairs[C];
      if (BC.Constant)
        BC.Built = buildProblem(Prog, Refs[Candidates[C].I],
                                Refs[Candidates[C].J]);
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
