//===- analysis/Transforms.h - Loop transformation legality ----*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic consumers of direction vectors (Wolfe's book, which the
/// paper cites as its direction-vector framework): legality checks for
/// loop interchange, loop reversal and loop parallelization, phrased
/// over the normalized dependence graph. A transformation is legal
/// when every transformed direction vector stays lexicographically
/// non-negative — dependences must still flow forward in time.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_ANALYSIS_TRANSFORMS_H
#define EDDA_ANALYSIS_TRANSFORMS_H

#include "analysis/DependenceGraph.h"
#include "deptest/Stats.h"

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>

namespace edda {

/// Verdict of a legality query.
struct LegalityResult {
  bool Legal = true;
  /// When illegal: a violating direction vector (in the pair's common
  /// loops) for diagnostics. This is a guarantee, not a best effort:
  /// every `Legal == false` result carries a non-empty Violation.
  /// Checks that reject for a structural or conservative reason rather
  /// than a concrete vector (imperfect nest, unanalyzable pair, inexact
  /// edge) report an all-'*' vector of the pair's common-nest length —
  /// "any direction may be violated". Consumers may index or render
  /// Violation unconditionally when Legal is false.
  DirVector Violation;
};

/// Is it legal to interchange the two adjacent loops at depths
/// \p Level and \p Level+1 of \p Outer's nest? Checks every edge whose
/// common nest includes both loops: after swapping components Level and
/// Level+1, no vector may become lexicographically negative — the
/// classic (<, >) violation. '*' components are treated conservatively
/// (as possibly '>'). Edges flagged inexact are conservatively
/// violating.
LegalityResult canInterchange(const DependenceGraph &Graph,
                              const LoopStmt *OuterLoop,
                              const LoopStmt *InnerLoop);

/// Is it legal to reverse \p Loop (run it from hi down to lo)?
/// Reversal negates the loop's component of every vector, so it is
/// legal iff no dependence is carried by the loop.
LegalityResult canReverse(const DependenceGraph &Graph,
                          const LoopStmt *Loop);

/// Can \p Loop run its iterations concurrently? Equivalent to
/// !Graph.carries(Loop), reported with a violating vector.
LegalityResult canParallelize(const DependenceGraph &Graph,
                              const LoopStmt *Loop);

/// Can \p Loop be executed in vector chunks of \p VectorWidth
/// iterations? Legal when every dependence carried at the loop's level
/// has a known constant distance of at least VectorWidth (lanes within
/// one chunk never communicate). Dependences carried with unknown or
/// short distance are violations; carried-at-outer-level and
/// loop-independent dependences do not matter. A width of 1 is a
/// serial loop — trivially legal, answered without looking at the
/// graph at all.
///
/// Sound but conservative in the multi-vector case: an edge stores one
/// pinned distance per level (the distance shared by *all* of its
/// vectors), so an edge whose carried vectors have different — but
/// individually safe — distances pins no distance at the level and is
/// rejected. The Program-taking overload below decides those exactly.
LegalityResult canVectorize(const DependenceGraph &Graph,
                            const LoopStmt *Loop,
                            unsigned VectorWidth);

/// Exact variant of canVectorize: when the per-edge pinned distance is
/// absent (vectors with differing distances share the edge), falls back
/// to asking the cascade directly whether any dependence carried at the
/// loop's level can have distance in [1, VectorWidth-1] — rebuilding
/// the failing pair's problem from \p Prog with equality constraints on
/// the outer common loops and a banded constraint at the loop's level.
/// Independent means the chunked execution is safe even though the
/// graph-only check had to give up.
LegalityResult canVectorize(const DependenceGraph &Graph,
                            const Program &Prog, const LoopStmt *Loop,
                            unsigned VectorWidth);

/// Memo for the exact canVectorize overload's cascade probes, shared
/// across a sequence of width queries on the same graph (the width
/// client's doubling/binary search asks many widths per edge).
/// Band-emptiness is monotone in the width — the band [1, W-1] only
/// grows with W — so per (edge, level) an interval suffices: the
/// largest width whose band is known empty and the smallest width whose
/// band is known blocked. A probe inside the interval is answered
/// without touching the cascade.
struct VectorizeProbeCache {
  struct Interval {
    /// Largest W with band [1, W-1] proven dependence-free. Starts at
    /// 1: the empty band of a serial loop.
    unsigned MaxEmptyWidth = 1;
    /// Smallest W whose band is (possibly conservatively) blocked.
    std::optional<unsigned> MinBlockedWidth;
  };
  /// Keyed by (source ref index, sink ref index, level in the edge's
  /// common nest).
  std::map<std::tuple<unsigned, unsigned, int>, Interval> Edges;
  /// Cascade probes actually issued vs. answered from an interval.
  uint64_t Probes = 0;
  uint64_t Hits = 0;
};

/// The exact overload with an optional shared probe memo and decision
/// stats. \p Cache may be null (every unpinned edge costs one cascade
/// probe per call, as in the overload above, which forwards here);
/// \p Stats, when provided, receives the cascade's decision counters
/// for any probes issued. Width 1 returns Legal immediately — no
/// probes are issued and \p Stats is untouched.
LegalityResult canVectorize(const DependenceGraph &Graph,
                            const Program &Prog, const LoopStmt *Loop,
                            unsigned VectorWidth,
                            VectorizeProbeCache *Cache,
                            DepStats *Stats = nullptr);

/// Maps one direction-vector component pair under a skew of the loop at
/// \p InnerLevel by \p Factor times the loop at \p OuterLevel: the
/// distance at InnerLevel becomes d_inner + Factor * d_outer, so the
/// direction at InnerLevel is recomputed by interval arithmetic over
/// the signs ('<' is [1,inf), '>' is (-inf,-1], '*' is unknown). All
/// other components are unchanged.
DirVector skewVector(const DirVector &V, unsigned OuterLevel,
                     unsigned InnerLevel, int64_t Factor);

/// Is it legal to skew \p InnerLoop by \p Factor times \p OuterLoop's
/// iteration number? Skewing is an order-preserving reindexing of the
/// iteration space, so it is always semantics-preserving; this check
/// maps every affected vector through skewVector and verifies the
/// result stays lexicographically non-negative, rejecting (rare,
/// conservative) cases where '*' components make the mapped vector
/// unprovable, and inexact edges. Its real use is pairing with
/// canInterchange/canTile on the mapped graph: skewing makes wavefront
/// bands fully permutable.
LegalityResult canSkew(const DependenceGraph &Graph,
                       const LoopStmt *OuterLoop,
                       const LoopStmt *InnerLoop, int64_t Factor);

/// Applies a skew: \p Outer's immediate only child loop j gets bounds
/// lo+f*i .. hi+f*i (i = Outer's variable, f = \p Factor) and every use
/// of j in its body is rewritten to j - f*i, so iteration (i, j) of the
/// old space runs as (i, j + f*i) — the same order, reindexed.
/// \pre Outer's body is exactly one loop whose bounds do not reference
/// its own variable; returns false otherwise (no change).
bool skewLoops(Program &Prog, LoopStmt &Outer, int64_t Factor);

/// Is the band from \p OuterLoop to \p InnerLoop (adjacent levels)
/// tileable? Tiling (strip-mine both + interchange the strips) is legal
/// iff the band is fully permutable: every vector of every edge whose
/// common nest covers both levels has components in {'=', '<'} at both
/// levels. '*' components and inexact edges are conservative
/// violations.
LegalityResult canTile(const DependenceGraph &Graph,
                       const LoopStmt *OuterLoop,
                       const LoopStmt *InnerLoop);

/// Applies a tiling of \p Outer and its immediate only child by
/// \p TileSize: rewrites the pair into a 4-deep nest
///   for it = 0 to n1/T-1: for jt = 0 to n2/T-1:
///     for i = lo1+it*T to lo1+it*T+T-1: for j = lo2+jt*T to ...
/// Restricted to rectangular step-1 bands with constant bounds whose
/// trip counts \p TileSize divides evenly (no remainder tiles, so the
/// iteration space is preserved exactly); returns false otherwise (no
/// change). Fresh tile-counter variables are registered in \p Prog.
bool tileLoops(Program &Prog, LoopStmt &Outer, int64_t TileSize);

/// Applies a legal reversal to \p Loop: rewrites every use of the loop
/// variable v in the body to lo+hi-v, which runs the old iterations in
/// reverse order while the header keeps counting upward. Returns false
/// (no change) when the loop's bounds reference its own variable.
/// \p Prog is the program \p Loop belongs to.
bool reverseLoop(Program &Prog, LoopStmt &Loop);

/// Applies a legal interchange to the program structure: swaps the
/// loop headers of \p Outer and its immediate only child \p Inner.
/// \pre Inner is the sole statement of Outer's body and the bounds of
/// Inner do not reference Outer's variable (rectangular nest); returns
/// false otherwise.
bool interchangeLoops(LoopStmt &Outer);

/// Is it legal to fuse the adjacent sibling loops \p First and
/// \p Second (same bounds and step assumed; fuseLoops checks them)?
/// Fusion is illegal when some dependence from a reference of First to
/// a reference of Second would run backward in the fused loop — i.e.
/// the dependence requires Second's iteration to be *earlier* than
/// First's ('>' at the fused level). Decided exactly by building each
/// cross-loop pair's dependence problem with the two loops identified
/// as one common loop and asking the cascade for the '>' direction.
LegalityResult canFuse(const Program &Prog, const LoopStmt *First,
                       const LoopStmt *Second);

/// Fuses \p Second's body into \p First (which must be adjacent
/// siblings in \p Body with structurally identical constant bounds,
/// identical step, and loop variables that can be unified). Returns
/// false (no change) when the structural preconditions fail. Legality
/// must be checked separately with canFuse.
bool fuseLoops(Program &Prog, std::vector<StmtPtr> &Body,
               unsigned FirstIdx);

/// A loop distribution (fission) plan: the loop's top-level statements
/// partitioned into groups (Allen-Kennedy: the strongly connected
/// components of the statement-level dependence graph), listed in a
/// legal execution order. Statements inside one group are mutually
/// dependence-cycled and must stay together; distinct groups can become
/// separate loops.
struct DistributionPlan {
  /// Statement indices into the loop's body, grouped; groups ordered so
  /// that every dependence flows forward.
  std::vector<std::vector<unsigned>> Groups;

  bool distributable() const { return Groups.size() > 1; }
};

/// Plans distribution of \p Loop using the dependence graph \p Graph
/// (which must have been built for the same program). Inexact edges
/// conservatively glue their statements together.
DistributionPlan planDistribution(const DependenceGraph &Graph,
                                  const LoopStmt *Loop);

/// Applies a distribution plan: replaces \p Body[LoopIdx] (which must
/// be \p the planned loop) with one loop per group, cloning the header.
/// Returns false if the plan is trivial or indices are inconsistent.
bool distributeLoop(std::vector<StmtPtr> &Body, unsigned LoopIdx,
                    const DistributionPlan &Plan);

/// True when \p Loop provably runs at most one iteration (constant
/// bounds with hi - lo + 1 <= 1). Such loops are trivially free of
/// carried dependences but offer no parallelism: the search refuses to
/// mark them parallel and the width client reports width/coarsening 1
/// instead of unbounded. Conservative for non-constant bounds (returns
/// false) and for downward loops (hi < lo with a negative step counts
/// as "at most one", which under-reports their trip count — callers
/// use this only to *withhold* degenerate-parallelism claims, where
/// under-reporting is the safe direction).
bool knownTripCountAtMostOne(const LoopStmt &Loop);

} // namespace edda

#endif // EDDA_ANALYSIS_TRANSFORMS_H
