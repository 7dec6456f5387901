//===- analysis/Search.cpp - Transformation-sequence search --------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Search.h"

#include "analysis/Parallelizer.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <tuple>

using namespace edda;

const char *edda::transformKindName(TransformKind Kind) {
  switch (Kind) {
  case TransformKind::Interchange:
    return "interchange";
  case TransformKind::Reverse:
    return "reverse";
  case TransformKind::Skew:
    return "skew";
  case TransformKind::Tile:
    return "tile";
  case TransformKind::Fuse:
    return "fuse";
  case TransformKind::Distribute:
    return "distribute";
  }
  return "?";
}

LoopStmt *edda::loopAtPath(Program &Prog,
                           const std::vector<unsigned> &Path) {
  std::vector<StmtPtr> *Body = &Prog.body();
  LoopStmt *Loop = nullptr;
  for (unsigned Idx : Path) {
    if (Idx >= Body->size() || (*Body)[Idx]->kind() != StmtKind::Loop)
      return nullptr;
    Loop = &asLoop(*(*Body)[Idx]);
    Body = &Loop->body();
  }
  return Loop;
}

const LoopStmt *edda::loopAtPath(const Program &Prog,
                                 const std::vector<unsigned> &Path) {
  return loopAtPath(const_cast<Program &>(Prog), Path);
}

std::string edda::transformStepStr(const TransformStep &Step,
                                   const Program &Prog) {
  const LoopStmt *Loop = loopAtPath(Prog, Step.Path);
  auto name = [&Prog](const LoopStmt *L) {
    return L ? Prog.var(L->varId()).Name : std::string("<gone>");
  };
  const LoopStmt *Child =
      Loop && Loop->body().size() == 1 &&
              Loop->body()[0]->kind() == StmtKind::Loop
          ? &asLoop(*Loop->body()[0])
          : nullptr;
  std::string S = transformKindName(Step.Kind);
  switch (Step.Kind) {
  case TransformKind::Interchange:
    return S + "(" + name(Loop) + "," + name(Child) + ")";
  case TransformKind::Reverse:
  case TransformKind::Distribute:
    return S + "(" + name(Loop) + ")";
  case TransformKind::Skew:
    return S + "(" + name(Loop) + "," + name(Child) +
           (Step.Amount >= 0 ? ",+" : ",") +
           std::to_string(Step.Amount) + ")";
  case TransformKind::Tile:
    return S + "(" + name(Loop) + "," + name(Child) + "," +
           std::to_string(Step.Amount) + ")";
  case TransformKind::Fuse:
    return S + "(" + name(Loop) + ",next)";
  }
  return S;
}

namespace {

int levelOf(const DepEdge &Edge, const LoopStmt *Loop) {
  auto It = std::find(Edge.CommonLoops.begin(), Edge.CommonLoops.end(),
                      Loop);
  if (It == Edge.CommonLoops.end())
    return -1;
  return static_cast<int>(It - Edge.CommonLoops.begin());
}

/// Marks every loop's parallel flag from \p Graph: no carried
/// dependence at the loop's level and no loop-carried scalar flow.
void markParallel(Program &Prog, const DependenceGraph &Graph) {
  std::function<void(std::vector<StmtPtr> &)> Walk =
      [&](std::vector<StmtPtr> &Body) {
        for (StmtPtr &S : Body) {
          if (S->kind() != StmtKind::Loop)
            continue;
          LoopStmt &L = asLoop(*S);
          bool Parallel = canParallelize(Graph, &L).Legal;
          // A loop with a known trip count of one is trivially free of
          // carried dependences but offers no parallelism; marking it
          // would let degenerate wrapper loops game the objective.
          // (Shared with the width client, which caps such loops at
          // width 1 for the same reason.)
          if (Parallel && knownTripCountAtMostOne(L))
            Parallel = false;
          if (Parallel)
            for (const auto &[Var, Class] : classifyScalars(Prog, L))
              if (Class == ScalarClass::Carried)
                Parallel = false;
          L.setParallel(Parallel);
          Walk(L.body());
        }
      };
  Walk(Prog.body());
}

struct ParallelCounts {
  unsigned Total = 0;
  unsigned Outer = 0;
};

ParallelCounts countParallel(const Program &Prog) {
  ParallelCounts Counts;
  std::function<void(const std::vector<StmtPtr> &, unsigned)> Walk =
      [&](const std::vector<StmtPtr> &Body, unsigned Depth) {
        for (const StmtPtr &S : Body) {
          if (S->kind() != StmtKind::Loop)
            continue;
          const LoopStmt &L = asLoop(*S);
          if (L.isParallel()) {
            ++Counts.Total;
            if (Depth == 0)
              ++Counts.Outer;
          }
          Walk(L.body(), Depth + 1);
        }
      };
  Walk(Prog.body(), 0);
  return Counts;
}

/// The search objective over a parallel-marked program. Outermost
/// parallelism dominates: every assignment scores by the depth of its
/// outermost enclosing parallel loop (64/16/4/1 for depths 0/1/2/3+),
/// weighted so that no combination of the locality terms can outweigh
/// one assignment moving under an outer parallel loop. Locality terms:
/// fully permutable bands (tileable modulo strip-mine expressiveness),
/// bands actually tiled along this node's sequence, and references
/// whose fastest-varying subscript walks the innermost loop. A small
/// per-loop penalty breaks ties toward fewer loops (fusion, dead strip
/// loops).
int64_t objectiveOf(const Program &Prog, const DependenceGraph &Graph,
                    unsigned TiledBands) {
  int64_t ParallelScore = 0;
  int64_t LoopCount = 0;
  std::function<void(const std::vector<StmtPtr> &, unsigned, int)> Walk =
      [&](const std::vector<StmtPtr> &Body, unsigned Depth,
          int OutermostParallel) {
        for (const StmtPtr &S : Body) {
          if (S->kind() == StmtKind::Assign) {
            if (OutermostParallel >= 0) {
              unsigned D = std::min<unsigned>(
                  static_cast<unsigned>(OutermostParallel), 3);
              ParallelScore += 64 >> (2 * D);
            }
            continue;
          }
          const LoopStmt &L = asLoop(*S);
          ++LoopCount;
          int Outermost = OutermostParallel;
          if (Outermost < 0 && L.isParallel())
            Outermost = static_cast<int>(Depth);
          Walk(L.body(), Depth + 1, Outermost);
        }
      };
  Walk(Prog.body(), 0, -1);

  int64_t PermutableBands = 0;
  std::function<void(const std::vector<StmtPtr> &)> Bands =
      [&](const std::vector<StmtPtr> &Body) {
        for (const StmtPtr &S : Body) {
          if (S->kind() != StmtKind::Loop)
            continue;
          const LoopStmt &L = asLoop(*S);
          if (L.body().size() == 1 &&
              L.body()[0]->kind() == StmtKind::Loop &&
              canTile(Graph, &L, &asLoop(*L.body()[0])).Legal)
            ++PermutableBands;
          Bands(L.body());
        }
      };
  Bands(Prog.body());

  int64_t Stride1 = 0;
  for (const ArrayReference &Ref : Graph.refs()) {
    if (Ref.Loops.empty() || Ref.Subscripts.empty())
      continue;
    if (Ref.Subscripts.back()->references(Ref.Loops.back()->varId()))
      ++Stride1;
  }

  return ParallelScore * 1024 + PermutableBands * 64 +
         static_cast<int64_t>(TiledBands) * 128 + Stride1 * 4 -
         LoopCount * 2;
}

/// Verifies the skewVector model against a freshly analyzed graph.
/// \p Before edges are matched to \p After edges by (Src, Dst, Kind) —
/// a skew changes no reference and reorders none, so the pairings line
/// up. Checks, per matched exact edge covering both levels: pinned
/// distances must shift by exactly Factor * d_outer, and every fully
/// definite fresh vector must be covered by some mapped old vector
/// (mapped 'Any' components are wildcards).
bool auditSkewPrediction(const DependenceGraph &Before,
                         const LoopStmt *Outer, const LoopStmt *Inner,
                         int64_t Factor, const DependenceGraph &After,
                         std::string &Note) {
  std::map<std::tuple<unsigned, unsigned, int>, const DepEdge *>
      AfterEdges;
  for (const DepEdge &F : After.edges())
    AfterEdges.emplace(
        std::make_tuple(F.Src, F.Dst, static_cast<int>(F.Kind)), &F);

  for (const DepEdge &E : Before.edges()) {
    int OuterLevel = levelOf(E, Outer);
    if (OuterLevel < 0)
      continue;
    int InnerLevel = levelOf(E, Inner);
    if (InnerLevel < 0)
      continue;
    if (!E.Exact)
      continue; // nothing definite to predict
    auto It = AfterEdges.find(
        std::make_tuple(E.Src, E.Dst, static_cast<int>(E.Kind)));
    if (It == AfterEdges.end()) {
      Note = "edge " + std::to_string(E.Src) + "->" +
             std::to_string(E.Dst) + " vanished after skew";
      return false;
    }
    const DepEdge &F = *It->second;
    if (!F.Exact)
      continue; // the fresh analysis gave up; nothing to compare

    const std::optional<int64_t> &DO = E.Distances[OuterLevel];
    const std::optional<int64_t> &DN = E.Distances[InnerLevel];
    if (DO && DN) {
      int64_t Predicted = *DN + Factor * *DO;
      const std::optional<int64_t> &Fresh = F.Distances[InnerLevel];
      if (!Fresh || *Fresh != Predicted) {
        Note = "pinned distance at skewed level: predicted " +
               std::to_string(Predicted) + ", fresh " +
               (Fresh ? std::to_string(*Fresh) : std::string("none"));
        return false;
      }
      const std::optional<int64_t> &FreshOuter =
          F.Distances[OuterLevel];
      if (!FreshOuter || *FreshOuter != *DO) {
        Note = "outer pinned distance changed under skew";
        return false;
      }
    }

    for (const DirVector &W : F.Vectors) {
      if (std::find(W.begin(), W.end(), Dir::Any) != W.end())
        continue; // only fully definite fresh vectors are checked
      bool Covered = false;
      for (const DirVector &V : E.Vectors) {
        DirVector Mapped =
            skewVector(V, static_cast<unsigned>(OuterLevel),
                       static_cast<unsigned>(InnerLevel), Factor);
        if (Mapped.size() != W.size())
          continue;
        bool Match = true;
        for (unsigned K = 0; K < W.size(); ++K)
          if (Mapped[K] != Dir::Any && Mapped[K] != W[K]) {
            Match = false;
            break;
          }
        if (Match) {
          Covered = true;
          break;
        }
      }
      if (!Covered) {
        Note = "fresh vector not predicted by skewVector on edge " +
               std::to_string(E.Src) + "->" + std::to_string(E.Dst);
        return false;
      }
    }
  }
  return true;
}

/// One beam node. Move-only in spirit: Result and Graph hold pointers
/// into Prog's statements, which moving a Program preserves (the
/// statement tree is unique_ptr-owned) but copying would not.
struct Node {
  Program Prog;
  AnalysisResult Result;
  DependenceGraph Graph;
  std::vector<TransformStep> Steps;
  std::vector<std::string> StepStrs;
  std::vector<unsigned> TraceIdx;
  int64_t Objective = 0;
  unsigned TiledBands = 0;

  Node() = default;
  Node(Node &&) = default;
  Node &operator=(Node &&) = default;
};

/// Enumerates every candidate step of \p Prog, deterministically:
/// depth-first statement order, loop-local steps before the fuse step
/// that consumes the loop's right sibling.
std::vector<TransformStep>
enumerateCandidates(const Program &Prog, const SearchOptions &Opts) {
  std::vector<TransformStep> Out;
  std::function<void(const std::vector<StmtPtr> &,
                     std::vector<unsigned> &)>
      Walk = [&](const std::vector<StmtPtr> &Body,
                 std::vector<unsigned> &Path) {
        for (unsigned I = 0; I < Body.size(); ++I) {
          if (Body[I]->kind() != StmtKind::Loop)
            continue;
          const LoopStmt &L = asLoop(*Body[I]);
          Path.push_back(I);
          bool Perfect = L.body().size() == 1 &&
                         L.body()[0]->kind() == StmtKind::Loop;
          if (Perfect) {
            Out.push_back({TransformKind::Interchange, Path, 0});
            for (int64_t F : Opts.SkewFactors)
              if (F != 0)
                Out.push_back({TransformKind::Skew, Path, F});
            for (int64_t T : Opts.TileSizes)
              if (T >= 2)
                Out.push_back({TransformKind::Tile, Path, T});
          }
          Out.push_back({TransformKind::Reverse, Path, 0});
          if (L.body().size() > 1)
            Out.push_back({TransformKind::Distribute, Path, 0});
          if (I + 1 < Body.size() &&
              Body[I + 1]->kind() == StmtKind::Loop)
            Out.push_back({TransformKind::Fuse, Path, 0});
          Walk(L.body(), Path);
          Path.pop_back();
        }
      };
  std::vector<unsigned> Path;
  Walk(Prog.body(), Path);
  return Out;
}

/// Resolves the statement list containing the loop \p Path addresses.
std::vector<StmtPtr> *containerOf(Program &Prog,
                                  const std::vector<unsigned> &Path) {
  std::vector<StmtPtr> *Body = &Prog.body();
  for (unsigned I = 0; I + 1 < Path.size(); ++I) {
    if (Path[I] >= Body->size() ||
        (*Body)[Path[I]]->kind() != StmtKind::Loop)
      return nullptr;
    Body = &asLoop(*(*Body)[Path[I]]).body();
  }
  return Body;
}

} // namespace

SearchResult edda::searchTransformations(const Program &Prog,
                                         const SearchOptions &Opts) {
  SearchResult Result;
  // The session supplies the incremental machinery: one analyzer whose
  // memo cache and fingerprint splicing every candidate evaluation
  // shares. Its single-timeline update() does not fit a branching
  // beam, so the search drives reanalyze() itself, always against the
  // candidate's parent result.
  IncrementalSession Session(Opts.Analyzer);

  Node Root;
  Root.Prog = Prog;
  Root.Result = Session.analyzer().analyze(Root.Prog);
  Root.Graph = DependenceGraph::buildFromResult(Root.Result);
  markParallel(Root.Prog, Root.Graph);
  Root.Objective = objectiveOf(Root.Prog, Root.Graph, 0);

  Result.Base = Root.Prog;
  Result.BaseObjective = Root.Objective;
  ParallelCounts BaseCounts = countParallel(Root.Prog);
  Result.BaseParallelLoops = BaseCounts.Total;
  Result.BaseOuterParallel = BaseCounts.Outer;

  // Branch & bound: one step can at best move every assignment under a
  // new outermost parallel loop.
  int64_t NumAssigns = 0;
  {
    std::function<void(const std::vector<StmtPtr> &)> Count =
        [&](const std::vector<StmtPtr> &Body) {
          for (const StmtPtr &S : Body) {
            if (S->kind() == StmtKind::Assign)
              ++NumAssigns;
            else
              Count(asLoop(*S).body());
          }
        };
    Count(Root.Prog.body());
  }
  const int64_t MaxStepGain = NumAssigns * 64 * 1024 + 256;

  std::set<std::string> Seen;
  Seen.insert(Root.Prog.print());

  Program BestProg = Root.Prog;
  int64_t BestObjective = Root.Objective;
  std::vector<TransformStep> BestSteps;
  std::vector<std::string> BestStepStrs;
  std::vector<unsigned> BestTraceIdx;

  std::vector<Node> Beam;
  Beam.push_back(std::move(Root));

  for (unsigned Depth = 1;
       Depth <= Opts.MaxSteps && !Beam.empty(); ++Depth) {
    std::vector<Node> Next;
    for (Node &Parent : Beam) {
      int64_t Remaining =
          static_cast<int64_t>(Opts.MaxSteps - (Depth - 1));
      if (Parent.Objective + Remaining * MaxStepGain <= BestObjective)
        continue; // bounded: cannot beat the incumbent
      for (const TransformStep &Step :
           enumerateCandidates(Parent.Prog, Opts)) {
        SearchTraceEntry Entry;
        Entry.Step = Step;
        Entry.Depth = Depth;
        Entry.StepStr = transformStepStr(Step, Parent.Prog);
        Entry.ParentObjective = Parent.Objective;

        const LoopStmt *PL = loopAtPath(Parent.Prog, Step.Path);
        const LoopStmt *PChild =
            PL && PL->body().size() == 1 &&
                    PL->body()[0]->kind() == StmtKind::Loop
                ? &asLoop(*PL->body()[0])
                : nullptr;

        // Legality against the parent's graph.
        LegalityResult Legality;
        DistributionPlan Plan;
        bool LegalityApplies = true;
        switch (Step.Kind) {
        case TransformKind::Interchange:
          Legality = canInterchange(Parent.Graph, PL, PChild);
          break;
        case TransformKind::Reverse:
          Legality = canReverse(Parent.Graph, PL);
          break;
        case TransformKind::Skew:
          Legality = canSkew(Parent.Graph, PL, PChild, Step.Amount);
          break;
        case TransformKind::Tile:
          Legality = canTile(Parent.Graph, PL, PChild);
          break;
        case TransformKind::Fuse: {
          std::vector<StmtPtr> *Container =
              containerOf(Parent.Prog, Step.Path);
          const LoopStmt *Second =
              Container && Step.Path.back() + 1 < Container->size()
                  ? &asLoop(*(*Container)[Step.Path.back() + 1])
                  : nullptr;
          if (PL && Second)
            Legality = canFuse(Parent.Prog, PL, Second);
          else
            LegalityApplies = false;
          break;
        }
        case TransformKind::Distribute:
          Plan = planDistribution(Parent.Graph, PL);
          // Distribution along SCCs in condensation order is always
          // legal; the question is whether it splits anything.
          break;
        }
        Entry.Legal = LegalityApplies && Legality.Legal;
        Entry.Violation = Legality.Violation;
        if (!Entry.Legal) {
          Result.Trace.push_back(std::move(Entry));
          continue;
        }

        // Apply to a copy.
        Program Cand = Parent.Prog;
        LoopStmt *CL = loopAtPath(Cand, Step.Path);
        unsigned CandTiled = Parent.TiledBands;
        bool AppliedOk = false;
        switch (Step.Kind) {
        case TransformKind::Interchange:
          AppliedOk = CL && interchangeLoops(*CL);
          break;
        case TransformKind::Reverse:
          AppliedOk = CL && reverseLoop(Cand, *CL);
          break;
        case TransformKind::Skew: {
          int64_t Applied = Opts.InjectMisSignedSkew ? -Step.Amount
                                                     : Step.Amount;
          AppliedOk = CL && skewLoops(Cand, *CL, Applied);
          break;
        }
        case TransformKind::Tile:
          AppliedOk = CL && tileLoops(Cand, *CL, Step.Amount);
          if (AppliedOk)
            ++CandTiled;
          break;
        case TransformKind::Fuse: {
          std::vector<StmtPtr> *Container = containerOf(Cand, Step.Path);
          AppliedOk = Container &&
                      fuseLoops(Cand, *Container, Step.Path.back());
          break;
        }
        case TransformKind::Distribute: {
          std::vector<StmtPtr> *Container = containerOf(Cand, Step.Path);
          AppliedOk = Container &&
                      distributeLoop(*Container, Step.Path.back(), Plan);
          break;
        }
        }
        Entry.StructuralOk = AppliedOk;
        if (!AppliedOk) {
          Result.Trace.push_back(std::move(Entry));
          continue;
        }

        std::string Key = Cand.print();
        if (!Seen.insert(Key).second) {
          Entry.Duplicate = true;
          Result.Trace.push_back(std::move(Entry));
          continue; // structurally identical program already evaluated
        }

        // Re-query dependences incrementally against the parent.
        ReanalyzeStats RS;
        Node Child;
        Child.Prog = std::move(Cand);
        Child.Result =
            Session.analyzer().reanalyze(Child.Prog, Parent.Result, &RS);
        Child.Graph = DependenceGraph::buildFromResult(Child.Result);
        ++Result.Reanalyses;
        Entry.PairsTotal = RS.PairsTotal;
        Entry.PairsReused = RS.PairsReused;
        Entry.PairsInvalidated = RS.PairsInvalidated;
        Result.PairsTotal += RS.PairsTotal;
        Result.PairsReused += RS.PairsReused;
        Result.PairsInvalidated += RS.PairsInvalidated;

        if (Step.Kind == TransformKind::Skew && Opts.AuditPredictions) {
          std::string Note;
          if (!auditSkewPrediction(Parent.Graph, PL, PChild,
                                   Step.Amount, Child.Graph, Note)) {
            Entry.PredictionOk = false;
            Entry.PredictionNote = std::move(Note);
            Result.PredictionsHeld = false;
            Result.Trace.push_back(std::move(Entry));
            continue; // the model and the application disagree: drop
          }
        }

        markParallel(Child.Prog, Child.Graph);
        Child.TiledBands = CandTiled;
        Child.Objective =
            objectiveOf(Child.Prog, Child.Graph, Child.TiledBands);
        Entry.Objective = Child.Objective;

        Child.Steps = Parent.Steps;
        Child.Steps.push_back(Step);
        Child.StepStrs = Parent.StepStrs;
        Child.StepStrs.push_back(Entry.StepStr);
        Child.TraceIdx = Parent.TraceIdx;
        Child.TraceIdx.push_back(
            static_cast<unsigned>(Result.Trace.size()));

        if (Child.Objective > BestObjective) {
          BestObjective = Child.Objective;
          BestProg = Child.Prog; // deep copy; flags travel with it
          BestSteps = Child.Steps;
          BestStepStrs = Child.StepStrs;
          BestTraceIdx = Child.TraceIdx;
        }
        Result.Trace.push_back(std::move(Entry));
        Next.push_back(std::move(Child));
      }
    }
    // Keep the best BeamWidth children; stable sort preserves
    // examination order among ties, keeping the search deterministic.
    std::stable_sort(Next.begin(), Next.end(),
                     [](const Node &A, const Node &B) {
                       return A.Objective > B.Objective;
                     });
    if (Next.size() > Opts.BeamWidth)
      Next.resize(Opts.BeamWidth);
    for (Node &N : Next)
      for (unsigned Idx : N.TraceIdx)
        Result.Trace[Idx].Kept = true;
    Beam = std::move(Next);
  }

  for (unsigned Idx : BestTraceIdx)
    Result.Trace[Idx].Chosen = true;
  Result.Best = std::move(BestProg);
  Result.BestObjective = BestObjective;
  Result.Sequence = std::move(BestSteps);
  Result.SequenceStrs = std::move(BestStepStrs);
  ParallelCounts BestCounts = countParallel(Result.Best);
  Result.BestParallelLoops = BestCounts.Total;
  Result.BestOuterParallel = BestCounts.Outer;
  return Result;
}

SkewProbeResult edda::probeSkew(const Program &Prog,
                                const std::vector<unsigned> &Path,
                                int64_t Factor,
                                const SearchOptions &Opts) {
  SkewProbeResult Probe;
  AnalyzerOptions AOpts = Opts.Analyzer;
  AOpts.ComputeDirections = true;
  DependenceAnalyzer Analyzer(AOpts);

  Program Base = Prog;
  AnalysisResult BaseResult = Analyzer.analyze(Base);
  DependenceGraph BaseGraph =
      DependenceGraph::buildFromResult(BaseResult);
  LoopStmt *Outer = loopAtPath(Base, Path);
  if (!Outer || Outer->body().size() != 1 ||
      Outer->body()[0]->kind() != StmtKind::Loop)
    return Probe;
  LoopStmt *Inner = &asLoop(*Outer->body()[0]);
  if (!canSkew(BaseGraph, Outer, Inner, Factor).Legal)
    return Probe; // conservative rejection: nothing to audit

  Program Cand = Base;
  LoopStmt *CandOuter = loopAtPath(Cand, Path);
  int64_t Applied = Opts.InjectMisSignedSkew ? -Factor : Factor;
  if (!CandOuter || !skewLoops(Cand, *CandOuter, Applied))
    return Probe;
  Probe.Applied = true;

  AnalysisResult CandResult = Analyzer.analyze(Cand);
  DependenceGraph CandGraph =
      DependenceGraph::buildFromResult(CandResult);
  Probe.Ok = auditSkewPrediction(BaseGraph, Outer, Inner, Factor,
                                 CandGraph, Probe.Note);
  return Probe;
}
