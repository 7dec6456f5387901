//===- analysis/Analyzer.cpp - Whole-program dependence analysis ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// analyze() runs in five phases (docs/ALGORITHMS.md, "Parallel
/// analysis"): enumerate candidate pairs; fill the pair list, deciding
/// every pair that needs no memo and keying the rest; merge the chunks'
/// counters and list the tested pairs; group the tested pairs; decide
/// the groups. Problems come from the per-reference summaries
/// collectReferences stores. A pair whose subscript differences are all
/// constant is decided from those summaries by the const stage's own
/// rule, and is never built. Every other pair is built into reused
/// per-chunk storage, and no problem outlives its phase: a tested pair
/// keeps only its memo key, made once into a per-chunk key pool, which
/// every lookup and insert for it reuses. Only a memo miss builds the
/// pair again.
///
/// The parallel driver's determinism argument, in one place:
///
///  1. Pair enumeration, problem construction, constant decisions and
///     memo keying are pure per pair, so they fan out freely; each pair
///     lands in the slot of its serial enumeration index, and the tested
///     pairs are listed per chunk in that order (chunks are contiguous
///     and merged in order). Where a key's words lie in which pool has
///     no effect: keys are compared by their words alone.
///  2. Two tested pairs can observe each other through the cache only
///     when their without-bounds memo keys are equal (the without-bounds
///     key is a prefix of the with-bounds key, so equal full keys imply
///     equal no-bounds keys). Pairs are therefore grouped by
///     without-bounds key and each group runs sequentially, in serial
///     enumeration order, inside one worker task. Across groups the
///     cache is accessed on disjoint keys, so every pair sees exactly
///     the hits and misses a serial run would have produced.
///  3. Per-chunk DepStats are summed after each barrier; counter sums
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

size_t DependenceAnalyzer::chunkCount(size_t N) const {
  // Several chunks per worker so uneven per-item cost still balances.
  return std::min<size_t>(
      N, Opts.NumThreads <= 1 ? 1 : size_t{Opts.NumThreads} * 8);
}

void DependenceAnalyzer::runChunks(
    size_t N, const std::function<void(size_t, size_t, size_t)> &Body) {
  const size_t NumChunks = chunkCount(N);
  if (NumChunks == 0)
    return;
  const size_t Size = (N + NumChunks - 1) / NumChunks;
  auto Run = [&](size_t K) {
    Body(K, std::min(N, K * Size), std::min(N, (K + 1) * Size));
  };
  if (NumChunks == 1) {
    Run(0);
    return;
  }
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Opts.NumThreads);
  Pool->parallelFor(NumChunks, Run);
}

template <typename BuildFn>
void DependenceAnalyzer::decideTestedPair(const MemoKeyRef *Key,
                                          bool BuiltExact,
                                          const BuildFn &Problem,
                                          DependencePair &Pair,
                                          DepStats &Stats,
                                          uint64_t PairKey) {
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
      Dirs = computeDirectionVectors(Problem(), Opts.Direction);
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
    Pair.Exact = Dirs.Exact && BuiltExact;
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
      Outcome = testDependence(Problem(), Opts.Cascade, &Stats);
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
  Pair.Exact = Outcome.Exact && BuiltExact;
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

  // Phase 2 (parallel, in contiguous chunks of candidates): fill each
  // candidate's pair and decide every pair that needs no memo. Reused
  // candidates copy their previous outcome; that skip, not edge
  // bookkeeping, is what makes re-analysis O(edit). A pair whose
  // subscript differences the summaries show constant is decided by
  // the const stage's rule, unbuilt. Any other pair is built into the
  // chunk's scratch problem: unanalyzable and all-constant-equation
  // pairs are decided here too (they never touch the cache), and a
  // tested pair keeps only its memo key, appended to the chunk's pool,
  // whose without-bounds prefix is the determinism grouping key. No
  // problem outlives the candidate that built it. Decision counters go
  // to the chunk.
  const TestPipeline &Pipeline = Opts.Cascade.Pipeline
                                     ? *Opts.Cascade.Pipeline
                                     : TestPipeline::defaultPipeline();
  /// What Phases 4 and 5 need of a tested pair: where its key lies and
  /// whether its build was exact.
  struct TestedPair {
    unsigned Candidate = 0;
    unsigned Chunk = 0; ///< Whose Keys hold the key.
    unsigned Key = 0;   ///< Its index there (memoization on).
    bool Exact = true;
  };
  struct ChunkOut {
    MemoKeyPool Keys;
    std::vector<TestedPair> Tested; ///< In candidate order.
    DepStats Stats;
    uint64_t Unanalyzable = 0;
  };
  std::vector<ChunkOut> Chunks(chunkCount(Candidates.size()));
  // Per-chunk problem storage, reused by every build of every phase.
  std::vector<BuiltProblem> Scratch(Chunks.size());
  Result.Pairs.resize(Candidates.size());
  runChunks(Candidates.size(), [&](size_t K, size_t Begin, size_t End) {
    ChunkOut &Out = Chunks[K];
    BuiltProblem &Built = Scratch[K];
    for (size_t C = Begin; C < End; ++C) {
      const Candidate &Cand = Candidates[C];
      DependencePair &Pair = Result.Pairs[C];
      Pair.RefA = Cand.I;
      Pair.RefB = Cand.J;
      // The builder's common nest, from Phase 1's count. Reused pairs
      // need it to point into the *new* program (the count matches the
      // old pair by key construction); unanalyzable ones still need it
      // so clients (the parallelizer) serialize conservatively.
      Pair.CommonLoops = Refs[Cand.I].Loops.first(Cand.Common);

      if (const DependencePair *Old = Reused[C]) {
        Pair.Answer = Old->Answer;
        Pair.DecidedBy = Old->DecidedBy;
        Pair.Exact = Old->Exact;
        Pair.FromCache = true;
        Pair.Directions = Old->Directions;
        // The report header's unanalyzable count is structural and
        // must stay bit-identical to a fresh run; Stats (decision
        // counters) intentionally cover only re-run pairs.
        if (Pair.DecidedBy == TestKind::Unanalyzable)
          ++Out.Unanalyzable;
        continue;
      }

      // Array constants are handled without dependence testing (paper
      // section 4) — and without memoization overhead, which would
      // otherwise dominate constant-heavy programs like LG. When the
      // const stage's rule decides, not even a problem is built; else
      // the built problem runs through the pipeline.
      const ArrayReference &A = Refs[Cand.I], &B = Refs[Cand.J];
      std::optional<CascadeResult> Outcome;
      bool Exact = true;
      if (std::optional<ConstantPair> CP = constantPair(A, B)) {
        Outcome = Pipeline.runConstant(CP->NonzeroDifference,
                                       CP->ConstantEmptyLoop, Opts.Cascade,
                                       &Out.Stats);
        Exact = CP->Exact;
      }
      if (!Outcome) {
        if (!buildProblem(Prog, A, B, Built)) {
          ++Out.Unanalyzable;
          Pair.Answer = DepAnswer::Unknown;
          Pair.DecidedBy = TestKind::Unanalyzable;
          Pair.Exact = false;
          Out.Stats.recordDecision(TestKind::Unanalyzable, false);
          continue;
        }
        Exact = Built.Exact;
        if (!std::ranges::all_of(Built.Problem.Equations,
                                 &XAffine::isConstant)) {
          TestedPair &T = Out.Tested.emplace_back();
          T.Candidate = static_cast<unsigned>(C);
          T.Chunk = static_cast<unsigned>(K);
          T.Exact = Exact;
          if (Opts.UseMemoization)
            T.Key = static_cast<unsigned>(
                cache().makeKey(Built.Problem, Out.Keys));
          continue;
        }
        Outcome = testDependence(Built.Problem, Opts.Cascade, &Out.Stats);
      }
      Pair.Answer = Outcome->Answer;
      Pair.DecidedBy = Outcome->DecidedBy;
      Pair.Exact = Outcome->Exact && Exact;
      if (Opts.ComputeDirections && Pair.Answer != DepAnswer::Independent) {
        DirectionResult Dirs;
        Dirs.RootAnswer = Pair.Answer;
        Dirs.RootDecidedBy = Outcome->DecidedBy;
        Dirs.Exact = Outcome->Exact;
        Dirs.Widened = Outcome->Widened;
        Dirs.RootWidened = Outcome->Widened;
        Dirs.Distances.assign(Cand.Common, std::nullopt);
        // Every direction is possible for a constant overlap.
        Dirs.Vectors.push_back(DirVector(Cand.Common, Dir::Any));
        Pair.Directions = std::move(Dirs);
      }
    }
  });

  // Phase 3 (serial): merge the chunks' counters and list the tested
  // pairs, in candidate order (the chunks are contiguous), as tasks.
  size_t NumTasks = 0;
  for (const ChunkOut &Out : Chunks)
    NumTasks += Out.Tested.size();
  std::vector<TestedPair> Tasks;
  Tasks.reserve(NumTasks);
  for (const ChunkOut &Out : Chunks) {
    Result.Stats += Out.Stats;
    Result.UnanalyzablePairs += Out.Unanalyzable;
    Tasks.insert(Tasks.end(), Out.Tested.begin(), Out.Tested.end());
  }
  auto KeyOf = [&](const TestedPair &T) {
    return Chunks[T.Chunk].Keys[T.Key];
  };

  // Phase 4 (serial, cheap): batch tasks into determinism groups. With
  // memoization on, tasks sharing a without-bounds key form one group,
  // numbered by first occurrence; with it off every task is its own
  // group. The groups form one flat index: group G's tasks are
  // GroupTasks[GroupBegin[G], GroupBegin[G + 1]), in task order.
  std::vector<unsigned> GroupOf(NumTasks);
  unsigned NumGroups = 0;
  if (Opts.UseMemoization) {
    // Open addressing over a table at most half full; a slot holds the
    // first task of its group.
    auto NoBoundsOf = [&](unsigned T) { return KeyOf(Tasks[T]).noBounds(); };
    constexpr unsigned NoTask = ~0u;
    const size_t Size = std::bit_ceil(2 * NumTasks + 2);
    const int Shift = 64 - std::countr_zero(Size);
    std::vector<unsigned> FirstTask(Size, NoTask);
    for (unsigned T = 0; T < NumTasks; ++T) {
      const MemoKeyView K = NoBoundsOf(T);
      size_t S = (K.Hash * 0x9E3779B97F4A7C15ull) >> Shift;
      while (FirstTask[S] != NoTask && !(NoBoundsOf(FirstTask[S]) == K))
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
  std::vector<unsigned> GroupTasks(NumTasks);
  std::vector<unsigned> GroupNext(GroupBegin.begin(), GroupBegin.end() - 1);
  for (unsigned T = 0; T < NumTasks; ++T)
    GroupTasks[GroupNext[GroupOf[T]]++] = T;

  // Phase 5 (parallel, in contiguous chunks of groups): decide each
  // group. Groups touch disjoint cache keys, so inter-group scheduling
  // cannot change any outcome. A pair is looked up by its pooled key;
  // only a miss rebuilds its problem, into the chunk's scratch.
  std::vector<DepStats> ChunkStats(chunkCount(NumGroups));
  runChunks(NumGroups, [&](size_t K, size_t Begin, size_t End) {
    for (size_t G = Begin; G < End; ++G)
      for (unsigned I = GroupBegin[G]; I < GroupBegin[G + 1]; ++I) {
        const TestedPair &T = Tasks[GroupTasks[I]];
        const Candidate &Cand = Candidates[T.Candidate];
        auto Rebuild = [&]() -> const DependenceProblem & {
          [[maybe_unused]] const bool Built = buildProblem(
              Prog, Refs[Cand.I], Refs[Cand.J], Scratch[K]);
          assert(Built && "a tested pair no longer builds");
          return Scratch[K].Problem;
        };
        std::optional<MemoKeyRef> Key;
        if (Opts.UseMemoization)
          Key.emplace(KeyOf(T));
        decideTestedPair(Key ? &*Key : nullptr, T.Exact, Rebuild,
                         Result.Pairs[T.Candidate], ChunkStats[K],
                         Cand.Key);
      }
  });
  for (const DepStats &S : ChunkStats)
    Result.Stats += S;

  // Optional trace pass: re-run the pipeline observationally on every
  // analyzable pair — no stats, no memoization — so the records show
  // what each stage did without perturbing the results above. Every
  // pair is rebuilt for it; reused pairs keep no trace. Each chunk
  // writes only its own slots of the side table.
  if (Opts.Trace) {
    Result.Traces.resize(Candidates.size());
    runChunks(Candidates.size(), [&](size_t K, size_t Begin, size_t End) {
      for (size_t C = Begin; C < End; ++C) {
        if (Reused[C] || !buildProblem(Prog, Refs[Candidates[C].I],
                                       Refs[Candidates[C].J], Scratch[K]))
          continue;
        Pipeline.run(Scratch[K].Problem, {}, Opts.Cascade,
                     /*Stats=*/nullptr, &Result.Traces[C].emplace());
      }
    });
  }
  return Result;
}
