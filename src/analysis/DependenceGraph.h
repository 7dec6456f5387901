//===- analysis/DependenceGraph.h - Statement dependence graph -*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence graph a parallelizing compiler builds on top of the
/// pairwise analysis: nodes are array references, edges are dependences
/// classified as flow (write then read), anti (read then write) or
/// output (write then write), each carrying its direction vectors and
/// known constant distances. Direction vectors with a leading '>' are
/// normalized away by flipping the edge (a dependence from iteration
/// i' < i to i is really an edge in the other direction with '<'), so
/// every stored vector is lexicographically non-negative — the form
/// loop transformation legality checks expect.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_ANALYSIS_DEPENDENCEGRAPH_H
#define EDDA_ANALYSIS_DEPENDENCEGRAPH_H

#include "analysis/Analyzer.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace edda {

/// Classification of a dependence edge.
enum class DepEdgeKind {
  Flow,   ///< Write before read (true dependence).
  Anti,   ///< Read before write.
  Output, ///< Write before write.
};

const char *depEdgeKindName(DepEdgeKind Kind);

/// One dependence edge between two references.
struct DepEdge {
  /// Indices into DependenceGraph::Refs; the dependence flows Src ->
  /// Dst (Src's access happens first).
  unsigned Src = 0;
  unsigned Dst = 0;
  DepEdgeKind Kind = DepEdgeKind::Flow;
  /// Direction vectors over the pair's common loops, normalized to be
  /// lexicographically non-negative (no leading '>').
  std::vector<DirVector> Vectors;
  /// Constant distances where known (normalized with the vectors).
  std::vector<std::optional<int64_t>> Distances;
  /// The common enclosing loops, outermost first (a prefix of the
  /// source pair's Loops, kept alive by the graph's refs).
  std::span<const LoopStmt *const> CommonLoops;
  /// False when the underlying answer was Unknown/unanalyzable: the
  /// edge must be treated as carrying every direction.
  bool Exact = true;
};

/// Whole-program dependence graph.
class DependenceGraph {
public:
  /// Builds the graph by running \p Analyzer (directions forced on)
  /// over \p Prog.
  static DependenceGraph build(Program &Prog,
                               DependenceAnalyzer &Analyzer);

  /// Builds the graph from an existing analysis result whose pairs
  /// carry direction vectors (ComputeDirections). build() and
  /// incremental re-analysis (IncrementalSession) share this: edge
  /// aggregation replays \p Analysis.Pairs in their enumeration order,
  /// so a result assembled by splicing reused pair outcomes into the
  /// fresh pair list produces a graph bit-identical to one built from
  /// scratch — including edge order and first-encounter metadata.
  static DependenceGraph buildFromResult(const AnalysisResult &Analysis);

  const std::vector<ArrayReference> &refs() const { return Refs; }
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Edges for which \p Loop is one of the common loops, i.e. the
  /// dependences that constrain transformations of that loop.
  std::vector<const DepEdge *> edgesUnder(const LoopStmt *Loop) const;

  /// True when some dependence is carried by \p Loop (first non-'='
  /// possibly at its level) — the loop cannot run its iterations
  /// concurrently.
  bool carries(const LoopStmt *Loop) const;

  /// Renders the graph for diagnostics.
  std::string str(const Program &Prog) const;

  /// Graphviz rendering: one node per reference, one edge per
  /// dependence, labeled with kind and direction vectors.
  std::string toDot(const Program &Prog) const;

private:
  std::vector<ArrayReference> Refs;
  std::vector<DepEdge> Edges;
};

/// Normalizes one reported vector into edge form: returns false when
/// the vector's first definite direction is '>' (the edge must flip).
/// '*' components are treated as potentially '<', so a vector starting
/// with '*' contributes to both orientations; normalizeVector is then
/// called for each orientation with \p Flip chosen accordingly.
bool leadingDirectionIsReversed(const DirVector &V);

/// Flips a vector (swap < and >) and negates distances; used when the
/// edge orientation is reversed.
DirVector flipVector(const DirVector &V);

} // namespace edda

#endif // EDDA_ANALYSIS_DEPENDENCEGRAPH_H
