//===- analysis/Analyzer.h - Whole-program dependence analysis -*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-program driver, playing the role the analyzer played inside
/// SUIF (paper section 4): run the prepass optimizer, enumerate array
/// reference pairs (write/write, write/read), build each pair's
/// dependence problem, consult the memoization tables, and run the
/// cascade (and optionally direction/distance vector computation) on
/// misses.
///
/// With NumThreads > 1 the driver fans the per-pair work out across an
/// internal thread pool. Results are bit-identical to a serial run: the
/// pair list keeps its (source ref, sink ref) enumeration order, and
/// pairs whose memoization keys could interact are batched into one
/// sequential unit of work, so every pair sees exactly the cache state a
/// serial run would have shown it (see docs/ALGORITHMS.md, "Parallel
/// analysis").
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_ANALYSIS_ANALYZER_H
#define EDDA_ANALYSIS_ANALYZER_H

#include "analysis/Builder.h"
#include "analysis/Refs.h"
#include "deptest/Direction.h"
#include "deptest/Memo.h"
#include "deptest/Stats.h"
#include "deptest/TestPipeline.h"
#include "ir/Program.h"
#include "support/Boxed.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace edda {

/// Analyzer configuration.
struct AnalyzerOptions {
  /// Run the prepass optimizer before collecting references.
  bool RunPrepass = true;
  /// Consult and fill the memoization tables.
  bool UseMemoization = true;
  MemoOptions Memo;
  /// Also compute direction/distance vectors per dependent pair.
  bool ComputeDirections = false;
  DirectionOptions Direction;
  CascadeOptions Cascade;
  /// Record a per-stage pipeline trace for every analyzable pair
  /// (AnalysisResult::Traces; surfaced by `edda-cli --explain`). The
  /// trace comes from an observational re-run of the pipeline on the
  /// pair's unconstrained problem — no stats, no memoization — so
  /// enabling it cannot perturb results; expect roughly double the
  /// testing cost.
  bool Trace = false;
  /// Worker threads for the ref-pair fan-out. 1 (the default) runs the
  /// exact serial pipeline on the calling thread; 0 means one thread
  /// per hardware core. Results are identical at every thread count.
  unsigned NumThreads = 1;
  /// Fault-injection hook for the fuzzer's `incr` axis: key re-analysis
  /// reuse on the bounds-free reference fingerprints, so bound edits go
  /// undetected and stale results get spliced in. Never set outside the
  /// fuzzer.
  bool InjectStaleFingerprint = false;
};

/// What reanalyze() reused versus re-ran. The reuse counters — not
/// wall time — are the incremental claim: after a one-statement edit,
/// PairsInvalidated should be a small fraction of PairsTotal.
struct ReanalyzeStats {
  uint64_t PairsTotal = 0;
  /// Pairs whose fingerprint key matched the previous result and whose
  /// outcome was spliced in without building or testing a problem.
  uint64_t PairsReused = 0;
  /// Pairs built and decided afresh (including new pairs).
  uint64_t PairsInvalidated = 0;
  /// Pair keys present in the previous result but absent from the new
  /// program, sorted; callers feed them to
  /// DependenceCache::invalidateFingerprints to bound store growth.
  std::vector<uint64_t> StaleKeys;
};

/// The analysis outcome for one reference pair.
struct DependencePair {
  /// Indices into AnalysisResult::Refs.
  unsigned RefA = 0;
  unsigned RefB = 0;
  DepAnswer Answer = DepAnswer::Unknown;
  TestKind DecidedBy = TestKind::Unanalyzable;
  bool Exact = false;
  /// True when the answer (and directions) came from the cache.
  bool FromCache = false;
  /// The pair's common enclosing loops, outermost first: a prefix of
  /// the source reference's Loops, valid as long as that reference's
  /// tables are (Refs.h).
  std::span<const LoopStmt *const> CommonLoops;
  /// Present when directions were requested and the pair may depend.
  /// Boxed: the table-3 configuration never sets it, and one suite pass
  /// makes 17,940 pairs.
  Boxed<DirectionResult> Directions;
};
static_assert(sizeof(DependencePair) <= 48,
              "keep rarely set members out of the pair record");

/// Whole-program analysis result.
struct AnalysisResult {
  std::vector<ArrayReference> Refs;
  std::vector<DependencePair> Pairs;
  /// Per-stage pipeline traces, pair by pair, when AnalyzerOptions::Trace
  /// was set (else empty); absent for pairs whose problem could not be
  /// built and for pairs reanalyze() spliced in.
  std::vector<std::optional<PipelineTrace>> Traces;
  /// Decisions per test kind (only cache misses run tests).
  DepStats Stats;
  uint64_t PairsConsidered = 0;
  uint64_t UnanalyzablePairs = 0;
};

/// Runs dependence analysis over a program. The analyzer owns the
/// memoization tables, which persist across analyze() calls (so a
/// benchmark suite shares one cache, as the paper's compiler did within
/// a compilation). analyze() itself parallelizes internally; concurrent
/// analyze() calls on one analyzer are not supported.
class DependenceAnalyzer {
public:
  explicit DependenceAnalyzer(AnalyzerOptions Opts = {});

  /// Shares an external cache instead of owning one: \p SharedCache
  /// must outlive the analyzer. This is the serving configuration —
  /// edda-serve runs one single-threaded analyzer per in-flight
  /// request, all hitting one concurrent sharded cache, which the
  /// first-insert-wins discipline keeps consistent: a cached entry is
  /// always bit-identical to what recomputation would produce, so
  /// answers are independent of request interleaving (only the
  /// FromCache flags vary).
  DependenceAnalyzer(AnalyzerOptions Opts, DependenceCache &SharedCache);

  /// Analyzes \p Prog (mutating it when the prepass is enabled).
  AnalysisResult analyze(Program &Prog);

  /// Analyzes \p Prog reusing \p Previous — the result of an earlier
  /// analyze()/reanalyze() under the same options — wherever the
  /// content fingerprints prove the answer cannot have changed: a pair
  /// whose two references have unchanged subscripts, array, and
  /// enclosing bound chains (and the same common-loop count) builds the
  /// identical dependence problem, so its previous outcome is spliced
  /// in verbatim and only the remaining pairs are re-run on the pool.
  /// No diff against the old program text is needed; the fingerprints
  /// stored in Previous.Refs carry everything the comparison requires.
  ///
  /// Answers, directions and the report header are bit-identical to a
  /// from-scratch analyze() of \p Prog (the incr fuzz axis enforces
  /// this); only DependencePair::FromCache (true for spliced pairs) and
  /// Result.Stats (which covers just the re-run pairs) may differ.
  AnalysisResult reanalyze(Program &Prog, const AnalysisResult &Previous,
                           ReanalyzeStats *RS = nullptr);

  DependenceCache &cache() { return External ? *External : Owned; }
  const AnalyzerOptions &options() const { return Opts; }
  /// The resolved worker count (NumThreads with 0 expanded).
  unsigned threadCount() const { return Opts.NumThreads; }

private:
  AnalyzerOptions Opts;
  DependenceCache Owned;
  /// When set, cache() resolves here instead of Owned.
  DependenceCache *External = nullptr;
  /// Created on the first parallel analyze(), reused afterwards.
  std::unique_ptr<ThreadPool> Pool;

  /// The number of contiguous chunks runChunks cuts N items into: one
  /// on a serial analyzer, several per worker otherwise (none for no
  /// items).
  size_t chunkCount(size_t N) const;
  /// Runs Body(Chunk, Begin, End) for each of the chunkCount(N) chunks
  /// of [0, N), in order: on the pool when parallel, inline when
  /// serial. Each chunk runs on one thread, so per-chunk state indexed
  /// by Chunk needs no lock.
  void runChunks(size_t N,
                 const std::function<void(size_t, size_t, size_t)> &Body);

  /// Shared body of analyze()/reanalyze(); \p Prev enables fingerprint
  /// reuse.
  AnalysisResult analyzeImpl(Program &Prog, const AnalysisResult *Prev,
                             ReanalyzeStats *RS);

  /// Decides one analyzable, non-constant pair: memo lookup, cascade or
  /// direction computation on a miss, insert. \p Key is the pair's memo
  /// key (null when memoization is off), made once for every lookup and
  /// insert. \p Problem() returns the pair's problem, building it; it is
  /// called only when the memo cannot answer. \p BuiltExact is the
  /// build's BuiltProblem::Exact. Writes the outcome into \p Pair and
  /// the decision counters into \p Stats. \p PairKey tags the memo
  /// entries the pair creates (fingerprint-aware invalidation).
  template <typename BuildFn>
  void decideTestedPair(const MemoKeyRef *Key, bool BuiltExact,
                        const BuildFn &Problem, DependencePair &Pair,
                        DepStats &Stats, uint64_t PairKey);
};

} // namespace edda

#endif // EDDA_ANALYSIS_ANALYZER_H
