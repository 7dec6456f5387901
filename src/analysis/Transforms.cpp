//===- analysis/Transforms.cpp - Loop transformation legality -------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Transforms.h"

#include "analysis/Builder.h"
#include "analysis/Parallelizer.h"
#include "deptest/Cascade.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

using namespace edda;

namespace {

/// Lexicographic non-negativity, conservatively: '*' may hide '>'.
bool lexNonNegative(const DirVector &V) {
  for (Dir D : V) {
    if (D == Dir::Less)
      return true;
    if (D == Dir::Equal)
      continue;
    return false; // Greater, or Any which may be Greater
  }
  return true; // all '='
}

int levelOf(const DepEdge &Edge, const LoopStmt *Loop) {
  auto It = std::find(Edge.CommonLoops.begin(), Edge.CommonLoops.end(),
                      Loop);
  if (It == Edge.CommonLoops.end())
    return -1;
  return static_cast<int>(It - Edge.CommonLoops.begin());
}

/// True when some loop in \p Body (recursively) binds \p VarId as its
/// induction variable — rewriting uses of VarId through such a subtree
/// would capture or be captured by the inner binding.
bool bindsVar(const std::vector<StmtPtr> &Body, unsigned VarId) {
  for (const StmtPtr &S : Body) {
    if (S->kind() != StmtKind::Loop)
      continue;
    const LoopStmt &L = asLoop(*S);
    if (L.varId() == VarId || bindsVar(L.body(), VarId))
      return true;
  }
  return false;
}

/// Rewrites every use of variable \p VarId in \p Body (subscripts,
/// right-hand sides, nested loop bounds) to \p Replacement.
/// \pre no loop in Body binds VarId (see bindsVar).
void rewriteVarUses(ExprArena &Exprs, std::vector<StmtPtr> &Body,
                    unsigned VarId, const Expr *Replacement) {
  auto Rewrite = [&Exprs, VarId, Replacement](const Expr *E) {
    return substitute(Exprs, E, [VarId, Replacement](unsigned Var) {
      return Var == VarId ? Replacement : nullptr;
    });
  };
  std::function<void(Stmt &)> RewriteStmt = [&](Stmt &S) {
    if (S.kind() == StmtKind::Assign) {
      AssignStmt &A = asAssign(S);
      if (A.isArrayLhs())
        for (unsigned D = 0; D < A.lhsSubscripts().size(); ++D)
          A.setLhsSubscript(D, Rewrite(A.lhsSubscripts()[D]));
      A.setRhs(Rewrite(A.rhs()));
      return;
    }
    LoopStmt &L = asLoop(S);
    L.setLo(Rewrite(L.lo()));
    L.setHi(Rewrite(L.hi()));
    for (StmtPtr &Child : L.body())
      RewriteStmt(*Child);
  };
  for (StmtPtr &Child : Body)
    RewriteStmt(*Child);
}

} // namespace

LegalityResult edda::canInterchange(const DependenceGraph &Graph,
                                    const LoopStmt *OuterLoop,
                                    const LoopStmt *InnerLoop) {
  LegalityResult Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int OuterLevel = levelOf(Edge, OuterLoop);
    if (OuterLevel < 0)
      continue;
    int InnerLevel = levelOf(Edge, InnerLoop);
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    if (InnerLevel != OuterLevel + 1) {
      // The pair's common nest ends between the two loops: the nest is
      // not perfect around this dependence; be conservative. No single
      // vector witnesses a structural rejection, so report the all-'*'
      // vector the header contract promises.
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    for (const DirVector &V : Edge.Vectors) {
      DirVector Swapped = V;
      std::swap(Swapped[OuterLevel], Swapped[InnerLevel]);
      if (!lexNonNegative(Swapped)) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

LegalityResult edda::canReverse(const DependenceGraph &Graph,
                                const LoopStmt *Loop) {
  LegalityResult Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int Level = levelOf(Edge, Loop);
    if (Level < 0)
      continue;
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    for (const DirVector &V : Edge.Vectors) {
      DirVector Reversed = V;
      Dir &D = Reversed[Level];
      if (D == Dir::Less)
        D = Dir::Greater;
      else if (D == Dir::Greater)
        D = Dir::Less;
      if (!lexNonNegative(Reversed)) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

LegalityResult edda::canParallelize(const DependenceGraph &Graph,
                                    const LoopStmt *Loop) {
  LegalityResult Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int Level = levelOf(Edge, Loop);
    if (Level < 0)
      continue;
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    for (const DirVector &V : Edge.Vectors) {
      if (carriedAt(V, static_cast<unsigned>(Level))) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

LegalityResult edda::canFuse(const Program &Prog, const LoopStmt *First,
                             const LoopStmt *Second) {
  LegalityResult Result;
  std::vector<ArrayReference> Refs = collectReferences(Prog);

  for (const ArrayReference &R1 : Refs) {
    if (std::find(R1.Loops.begin(), R1.Loops.end(), First) ==
        R1.Loops.end())
      continue;
    for (const ArrayReference &R2 : Refs) {
      if (std::find(R2.Loops.begin(), R2.Loops.end(), Second) ==
          R2.Loops.end())
        continue;
      if (R1.ArrayId != R2.ArrayId || (!R1.IsWrite && !R2.IsWrite))
        continue;

      std::optional<BuiltProblem> Built = buildProblem(Prog, R1, R2);
      if (!Built) {
        // Unanalyzable pair: conservative rejection. The fused nest is
        // the shared outer loops plus the fused level itself; report
        // the contract's all-'*' vector at that length.
        unsigned Shared = 0;
        while (Shared < R1.Loops.size() && Shared < R2.Loops.size() &&
               R1.Loops[Shared] == R2.Loops[Shared])
          ++Shared;
        Result.Legal = false;
        Result.Violation.assign(Shared + 1, Dir::Any);
        return Result;
      }
      DependenceProblem P = Built->Problem;
      // The common prefix ends exactly where the two sibling loops
      // diverge; identify them as one more common loop.
      unsigned FusedLevel = P.NumCommon;
      if (FusedLevel >= P.NumLoopsA || FusedLevel >= P.NumLoopsB ||
          R1.Loops[FusedLevel] != First ||
          R2.Loops[FusedLevel] != Second) {
        Result.Legal = false; // unexpected shape: stay conservative
        Result.Violation.assign(FusedLevel + 1, Dir::Any);
        return Result;
      }
      P.NumCommon = FusedLevel + 1;

      // Pre-fusion every R1 access precedes every R2 access; after
      // fusion iteration i runs R1(i) then R2(i), so a conflict with
      // i1 > i2 would flip producer and consumer. Ask for exactly that
      // direction: xA - xB >= 1, i.e. xB - xA + 1 <= 0.
      XAffine Greater(P.numX());
      Greater.Coeffs[P.xOfCommonA(FusedLevel)] = -1;
      Greater.Coeffs[P.xOfCommonB(FusedLevel)] = 1;
      Greater.Const = 1;
      CascadeResult Test = testDependenceConstrained(P, {Greater});
      if (Test.Answer != DepAnswer::Independent) {
        Result.Legal = false;
        Result.Violation.assign(FusedLevel + 1, Dir::Equal);
        Result.Violation[FusedLevel] = Dir::Greater;
        return Result;
      }
    }
  }
  return Result;
}

bool edda::fuseLoops(Program &Prog, std::vector<StmtPtr> &Body,
                     unsigned FirstIdx) {
  if (FirstIdx + 1 >= Body.size())
    return false;
  if (Body[FirstIdx]->kind() != StmtKind::Loop ||
      Body[FirstIdx + 1]->kind() != StmtKind::Loop)
    return false;
  LoopStmt &First = asLoop(*Body[FirstIdx]);
  LoopStmt &Second = asLoop(*Body[FirstIdx + 1]);
  if (First.step() != Second.step() ||
      !exprEquals(First.lo(), Second.lo()) ||
      !exprEquals(First.hi(), Second.hi()))
    return false;

  // Unify the induction variables (siblings often share one already).
  if (First.varId() != Second.varId()) {
    unsigned From = Second.varId();
    unsigned To = First.varId();
    // A nested loop inside Second that binds To would capture the
    // rewritten uses (they would suddenly refer to the inner loop's
    // counter), and one that re-binds From shadows the occurrences we
    // must NOT rewrite. Either way a blind substitution changes
    // semantics — bail instead.
    if (bindsVar(Second.body(), To) || bindsVar(Second.body(), From))
      return false;
    rewriteVarUses(Prog.exprs(), Second.body(), From,
                   Prog.exprs().makeVar(To));
  }

  for (StmtPtr &Child : Second.body())
    First.body().push_back(std::move(Child));
  Body.erase(Body.begin() + FirstIdx + 1);
  return true;
}

LegalityResult edda::canVectorize(const DependenceGraph &Graph,
                                  const LoopStmt *Loop,
                                  unsigned VectorWidth) {
  assert(VectorWidth >= 1 && "vector width must be positive");
  LegalityResult Result;
  // Width 1 is the serial loop itself: the forbidden distance band
  // [1, 0] is empty, so legality holds no matter what the graph says
  // (including inexact edges, which reject any *real* chunking).
  if (VectorWidth <= 1)
    return Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int Level = levelOf(Edge, Loop);
    if (Level < 0)
      continue;
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    for (const DirVector &V : Edge.Vectors) {
      if (!carriedAt(V, static_cast<unsigned>(Level)))
        continue;
      const std::optional<int64_t> &Distance = Edge.Distances[Level];
      if (!Distance || *Distance < 0 ||
          *Distance < static_cast<int64_t>(VectorWidth)) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

namespace {

/// Collects every assignment statement in the subtree of \p S.
void collectAssigns(const Stmt &S,
                    std::vector<const AssignStmt *> &Out) {
  if (S.kind() == StmtKind::Assign) {
    Out.push_back(&asAssign(S));
    return;
  }
  for (const StmtPtr &Child : asLoop(S).body())
    collectAssigns(*Child, Out);
}

} // namespace

DistributionPlan edda::planDistribution(const DependenceGraph &Graph,
                                        const LoopStmt *Loop) {
  DistributionPlan Plan;
  const unsigned NumStmts = static_cast<unsigned>(Loop->body().size());
  if (NumStmts == 0)
    return Plan;

  // Map every assignment in the loop body to its top-level statement.
  std::map<const AssignStmt *, unsigned> StmtOf;
  for (unsigned I = 0; I < NumStmts; ++I) {
    std::vector<const AssignStmt *> Assigns;
    collectAssigns(*Loop->body()[I], Assigns);
    for (const AssignStmt *A : Assigns)
      StmtOf[A] = I;
  }

  // Statement-level precedence graph: every normalized dependence edge
  // whose endpoints live in this loop means "some instance of Src must
  // run before some instance of Dst" — a constraint between the
  // top-level statements. Inexact edges were already materialized in
  // both directions by the graph builder, gluing their statements into
  // one cycle.
  std::vector<std::vector<unsigned>> Succ(NumStmts);
  for (const DepEdge &Edge : Graph.edges()) {
    auto SrcIt = StmtOf.find(Graph.refs()[Edge.Src].Stmt);
    auto DstIt = StmtOf.find(Graph.refs()[Edge.Dst].Stmt);
    if (SrcIt == StmtOf.end() || DstIt == StmtOf.end())
      continue;
    if (SrcIt->second != DstIt->second)
      Succ[SrcIt->second].push_back(DstIt->second);
  }

  // The array dependence graph knows nothing about scalar flows
  // (s = a[i]; b[i] = s). Glue every pair of statements that touch a
  // scalar some statement in the body mutates — conservative but
  // sound; the prepass usually substitutes such scalars away first.
  {
    std::vector<std::set<unsigned>> Assigned(NumStmts), Used(NumStmts);
    std::function<void(const Stmt &, unsigned)> Scan =
        [&](const Stmt &S, unsigned Top) {
          if (S.kind() == StmtKind::Assign) {
            const AssignStmt &A = asAssign(S);
            std::vector<unsigned> Vars;
            if (A.isArrayLhs())
              for (const Expr *Sub : A.lhsSubscripts())
                Sub->collectVars(Vars);
            else
              Assigned[Top].insert(A.lhsScalar());
            A.rhs()->collectVars(Vars);
            Used[Top].insert(Vars.begin(), Vars.end());
            return;
          }
          const LoopStmt &L = asLoop(S);
          std::vector<unsigned> Vars;
          L.lo()->collectVars(Vars);
          L.hi()->collectVars(Vars);
          Used[Top].insert(Vars.begin(), Vars.end());
          for (const StmtPtr &Child : L.body())
            Scan(*Child, Top);
        };
    for (unsigned I = 0; I < NumStmts; ++I)
      Scan(*Loop->body()[I], I);

    std::set<unsigned> Mutated;
    for (unsigned I = 0; I < NumStmts; ++I)
      Mutated.insert(Assigned[I].begin(), Assigned[I].end());
    for (unsigned Var : Mutated) {
      std::vector<unsigned> Touching;
      for (unsigned I = 0; I < NumStmts; ++I)
        if (Assigned[I].count(Var) || Used[I].count(Var))
          Touching.push_back(I);
      for (unsigned A : Touching)
        for (unsigned B : Touching)
          if (A != B)
            Succ[A].push_back(B);
    }
  }

  // Tarjan SCC, iterative.
  std::vector<int> Index(NumStmts, -1), Low(NumStmts, 0);
  std::vector<bool> OnStack(NumStmts, false);
  std::vector<unsigned> Stack;
  std::vector<int> Component(NumStmts, -1);
  int NextIndex = 0, NextComponent = 0;

  struct Frame {
    unsigned Node;
    size_t NextSucc;
  };
  for (unsigned Start = 0; Start < NumStmts; ++Start) {
    if (Index[Start] != -1)
      continue;
    std::vector<Frame> Frames{{Start, 0}};
    Index[Start] = Low[Start] = NextIndex++;
    Stack.push_back(Start);
    OnStack[Start] = true;
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.NextSucc < Succ[F.Node].size()) {
        unsigned Next = Succ[F.Node][F.NextSucc++];
        if (Index[Next] == -1) {
          Index[Next] = Low[Next] = NextIndex++;
          Stack.push_back(Next);
          OnStack[Next] = true;
          Frames.push_back({Next, 0});
        } else if (OnStack[Next]) {
          Low[F.Node] = std::min(Low[F.Node], Index[Next]);
        }
        continue;
      }
      if (Low[F.Node] == Index[F.Node]) {
        while (true) {
          unsigned Popped = Stack.back();
          Stack.pop_back();
          OnStack[Popped] = false;
          Component[Popped] = NextComponent;
          if (Popped == F.Node)
            break;
        }
        ++NextComponent;
      }
      unsigned Done = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Node] =
            std::min(Low[Frames.back().Node], Low[Done]);
    }
  }

  // Order the components: topological over the condensation, stable by
  // smallest original statement index (keeps unrelated statements in
  // source order).
  std::vector<unsigned> MinStmt(NextComponent, NumStmts);
  std::vector<unsigned> InDegree(NextComponent, 0);
  std::vector<std::vector<unsigned>> CompSucc(NextComponent);
  for (unsigned S = 0; S < NumStmts; ++S)
    MinStmt[Component[S]] = std::min(MinStmt[Component[S]], S);
  for (unsigned S = 0; S < NumStmts; ++S) {
    for (unsigned T : Succ[S]) {
      if (Component[S] == Component[T])
        continue;
      CompSucc[Component[S]].push_back(
          static_cast<unsigned>(Component[T]));
      ++InDegree[Component[T]];
    }
  }
  std::vector<unsigned> Order;
  std::vector<bool> Emitted(NextComponent, false);
  while (Order.size() < static_cast<size_t>(NextComponent)) {
    int Best = -1;
    for (int C = 0; C < NextComponent; ++C) {
      if (Emitted[C] || InDegree[C] != 0)
        continue;
      if (Best < 0 || MinStmt[C] < MinStmt[Best])
        Best = C;
    }
    assert(Best >= 0 && "condensation has a cycle");
    Emitted[Best] = true;
    Order.push_back(static_cast<unsigned>(Best));
    for (unsigned T : CompSucc[Best])
      --InDegree[T];
  }

  for (unsigned C : Order) {
    std::vector<unsigned> Group;
    for (unsigned S = 0; S < NumStmts; ++S)
      if (Component[S] == static_cast<int>(C))
        Group.push_back(S);
    Plan.Groups.push_back(std::move(Group));
  }
  return Plan;
}

bool edda::distributeLoop(std::vector<StmtPtr> &Body, unsigned LoopIdx,
                          const DistributionPlan &Plan) {
  if (!Plan.distributable() || LoopIdx >= Body.size() ||
      Body[LoopIdx]->kind() != StmtKind::Loop)
    return false;
  LoopStmt &Loop = asLoop(*Body[LoopIdx]);
  unsigned Covered = 0;
  for (const std::vector<unsigned> &Group : Plan.Groups) {
    for (unsigned S : Group)
      if (S >= Loop.body().size())
        return false;
    Covered += static_cast<unsigned>(Group.size());
  }
  if (Covered != Loop.body().size())
    return false;

  std::vector<StmtPtr> NewLoops;
  for (const std::vector<unsigned> &Group : Plan.Groups) {
    auto Piece = std::make_unique<LoopStmt>(Loop.varId(), Loop.lo(),
                                            Loop.hi(), Loop.step());
    Piece->setParallel(Loop.isParallel());
    for (unsigned S : Group)
      Piece->body().push_back(std::move(Loop.body()[S]));
    NewLoops.push_back(std::move(Piece));
  }
  Body.erase(Body.begin() + LoopIdx);
  Body.insert(Body.begin() + LoopIdx,
              std::make_move_iterator(NewLoops.begin()),
              std::make_move_iterator(NewLoops.end()));
  return true;
}

bool edda::interchangeLoops(LoopStmt &Outer) {
  if (Outer.body().size() != 1 ||
      Outer.body()[0]->kind() != StmtKind::Loop)
    return false;
  LoopStmt &Inner = asLoop(*Outer.body()[0]);
  // Rectangular requirement: the inner bounds must not depend on the
  // outer variable (otherwise interchange changes the iteration space).
  if (Inner.lo()->references(Outer.varId()) ||
      Inner.hi()->references(Outer.varId()))
    return false;

  unsigned OuterVar = Outer.varId();
  const Expr *OuterLo = Outer.lo();
  const Expr *OuterHi = Outer.hi();
  int64_t OuterStep = Outer.step();

  Outer.setVarId(Inner.varId());
  Outer.setLo(Inner.lo());
  Outer.setHi(Inner.hi());
  Outer.setStep(Inner.step());

  Inner.setVarId(OuterVar);
  Inner.setLo(OuterLo);
  Inner.setHi(OuterHi);
  Inner.setStep(OuterStep);
  return true;
}

LegalityResult edda::canVectorize(const DependenceGraph &Graph,
                                  const Program &Prog,
                                  const LoopStmt *Loop,
                                  unsigned VectorWidth) {
  return canVectorize(Graph, Prog, Loop, VectorWidth, /*Cache=*/nullptr);
}

namespace {

/// Issues the banded cascade probe for one edge: is a dependence
/// carried at \p Level with distance in [1, Width-1] feasible? Outer
/// common loops are pinned equal; Independent means the band is empty
/// (every lane distance is >= Width, i.e. safe).
bool probeBandEmpty(const DependenceGraph &Graph, const Program &Prog,
                    const DepEdge &Edge, int Level, unsigned Width,
                    DepStats *Stats) {
  std::optional<BuiltProblem> Built = buildProblem(
      Prog, Graph.refs()[Edge.Src], Graph.refs()[Edge.Dst]);
  if (!Built || !Built->Exact)
    return false;
  const DependenceProblem &P = Built->Problem;
  std::vector<XAffine> Constraints;
  for (unsigned K = 0; K < static_cast<unsigned>(Level); ++K) {
    XAffine LE(P.numX()), GE(P.numX());
    LE.Coeffs[P.xOfCommonA(K)] = 1;
    LE.Coeffs[P.xOfCommonB(K)] = -1;
    GE.Coeffs[P.xOfCommonA(K)] = -1;
    GE.Coeffs[P.xOfCommonB(K)] = 1;
    Constraints.push_back(LE);
    Constraints.push_back(GE);
  }
  // 1 <= xB - xA: xA - xB + 1 <= 0.
  XAffine AtLeastOne(P.numX());
  AtLeastOne.Coeffs[P.xOfCommonA(Level)] = 1;
  AtLeastOne.Coeffs[P.xOfCommonB(Level)] = -1;
  AtLeastOne.Const = 1;
  Constraints.push_back(AtLeastOne);
  // xB - xA <= W - 1: xB - xA - (W-1) <= 0.
  XAffine AtMostW(P.numX());
  AtMostW.Coeffs[P.xOfCommonA(Level)] = -1;
  AtMostW.Coeffs[P.xOfCommonB(Level)] = 1;
  AtMostW.Const = -(static_cast<int64_t>(Width) - 1);
  Constraints.push_back(AtMostW);
  CascadeResult Test =
      testDependenceConstrained(P, Constraints, {}, Stats);
  return Test.Answer == DepAnswer::Independent;
}

} // namespace

LegalityResult edda::canVectorize(const DependenceGraph &Graph,
                                  const Program &Prog,
                                  const LoopStmt *Loop,
                                  unsigned VectorWidth,
                                  VectorizeProbeCache *Cache,
                                  DepStats *Stats) {
  assert(VectorWidth >= 1 && "vector width must be positive");
  LegalityResult Result;
  // Width 1 is the serial loop itself: the forbidden distance band
  // [1, 0] is empty, so legality holds unconditionally. Return before
  // touching the graph — no cascade probes, no FmWork, no Stats.
  if (VectorWidth <= 1)
    return Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int Level = levelOf(Edge, Loop);
    if (Level < 0)
      continue;
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    // One cascade query settles the whole edge; remember its verdict
    // across this edge's vectors.
    std::optional<bool> EdgeBandEmpty;
    for (const DirVector &V : Edge.Vectors) {
      if (!carriedAt(V, static_cast<unsigned>(Level)))
        continue;
      const std::optional<int64_t> &Distance = Edge.Distances[Level];
      if (Distance && *Distance >= 0 &&
          *Distance >= static_cast<int64_t>(VectorWidth))
        continue;
      if (Distance) {
        // A pinned distance that is short (or malformed) is a genuine
        // violation — every vector of the edge shares it.
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
      // No pinned distance: the edge's vectors disagree on it. The
      // graph-only check gives up here; decide exactly instead,
      // answering from the shared probe memo when the asked width
      // falls inside an already-settled interval (band-emptiness is
      // monotone in the width).
      if (!EdgeBandEmpty) {
        VectorizeProbeCache::Interval *Iv = nullptr;
        if (Cache)
          Iv = &Cache->Edges[{Edge.Src, Edge.Dst, Level}];
        if (Iv && VectorWidth <= Iv->MaxEmptyWidth) {
          ++Cache->Hits;
          EdgeBandEmpty = true;
        } else if (Iv && Iv->MinBlockedWidth &&
                   VectorWidth >= *Iv->MinBlockedWidth) {
          ++Cache->Hits;
          EdgeBandEmpty = false;
        } else {
          if (Cache)
            ++Cache->Probes;
          EdgeBandEmpty = probeBandEmpty(Graph, Prog, Edge, Level,
                                         VectorWidth, Stats);
          if (Iv) {
            if (*EdgeBandEmpty)
              Iv->MaxEmptyWidth =
                  std::max(Iv->MaxEmptyWidth, VectorWidth);
            else
              Iv->MinBlockedWidth = std::min(
                  Iv->MinBlockedWidth.value_or(VectorWidth),
                  VectorWidth);
          }
        }
      }
      if (!*EdgeBandEmpty) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

bool edda::knownTripCountAtMostOne(const LoopStmt &Loop) {
  return Loop.lo()->kind() == ExprKind::Const &&
         Loop.hi()->kind() == ExprKind::Const &&
         Loop.hi()->constValue() - Loop.lo()->constValue() + 1 <= 1;
}

DirVector edda::skewVector(const DirVector &V, unsigned OuterLevel,
                           unsigned InnerLevel, int64_t Factor) {
  DirVector Out = V;
  if (Factor == 0 || OuterLevel >= V.size() || InnerLevel >= V.size() ||
      OuterLevel == InnerLevel)
    return Out;
  // Sign classes: the new component is d_inner + Factor * d_outer with
  // both distances of unknown magnitude; only their signs are known.
  enum Sign { Neg, Zero, Pos, AnySign };
  auto signOf = [](Dir D) {
    switch (D) {
    case Dir::Less:
      return Pos;
    case Dir::Greater:
      return Neg;
    case Dir::Equal:
      return Zero;
    case Dir::Any:
      return AnySign;
    }
    return AnySign;
  };
  Sign Scaled = signOf(V[OuterLevel]);
  if (Factor < 0) {
    if (Scaled == Pos)
      Scaled = Neg;
    else if (Scaled == Neg)
      Scaled = Pos;
  }
  Sign Inner = signOf(V[InnerLevel]);
  Sign Sum;
  if (Scaled == Zero)
    Sum = Inner;
  else if (Inner == Zero)
    Sum = Scaled;
  else if (Scaled == Inner)
    Sum = Scaled; // pos+pos or neg+neg
  else
    Sum = AnySign; // opposite or unknown signs: magnitude decides
  switch (Sum) {
  case Pos:
    Out[InnerLevel] = Dir::Less;
    break;
  case Neg:
    Out[InnerLevel] = Dir::Greater;
    break;
  case Zero:
    Out[InnerLevel] = Dir::Equal;
    break;
  case AnySign:
    Out[InnerLevel] = Dir::Any;
    break;
  }
  return Out;
}

LegalityResult edda::canSkew(const DependenceGraph &Graph,
                             const LoopStmt *OuterLoop,
                             const LoopStmt *InnerLoop, int64_t Factor) {
  LegalityResult Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int OuterLevel = levelOf(Edge, OuterLoop);
    if (OuterLevel < 0)
      continue;
    int InnerLevel = levelOf(Edge, InnerLoop);
    if (InnerLevel < 0)
      continue; // nest ends before the skewed loop: unaffected
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    for (const DirVector &V : Edge.Vectors) {
      DirVector Mapped =
          skewVector(V, static_cast<unsigned>(OuterLevel),
                     static_cast<unsigned>(InnerLevel), Factor);
      if (!lexNonNegative(Mapped)) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

bool edda::skewLoops(Program &Prog, LoopStmt &Outer, int64_t Factor) {
  if (Outer.body().size() != 1 ||
      Outer.body()[0]->kind() != StmtKind::Loop)
    return false;
  LoopStmt &Inner = asLoop(*Outer.body()[0]);
  unsigned I = Outer.varId();
  unsigned J = Inner.varId();
  if (I == J || Inner.lo()->references(J) || Inner.hi()->references(J))
    return false;
  if (bindsVar(Inner.body(), J) || bindsVar(Inner.body(), I))
    return false;
  if (Factor == 0)
    return true;

  ExprArena &A = Prog.exprs();
  const Expr *Offset = A.makeMul(A.makeConst(Factor), A.makeVar(I));
  // Old iteration (i, j) runs as (i, j + f*i): shift the bounds up by
  // f*i and undo the shift at every use of j inside the body.
  rewriteVarUses(A, Inner.body(), J, A.makeSub(A.makeVar(J), Offset));
  Inner.setLo(A.makeAdd(Inner.lo(), Offset));
  Inner.setHi(A.makeAdd(Inner.hi(), Offset));
  return true;
}

LegalityResult edda::canTile(const DependenceGraph &Graph,
                             const LoopStmt *OuterLoop,
                             const LoopStmt *InnerLoop) {
  LegalityResult Result;
  for (const DepEdge &Edge : Graph.edges()) {
    int OuterLevel = levelOf(Edge, OuterLoop);
    if (OuterLevel < 0)
      continue;
    int InnerLevel = levelOf(Edge, InnerLoop);
    if (!Edge.Exact) {
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    if (InnerLevel != OuterLevel + 1) {
      // Imperfect around this dependence: structural rejection, all-'*'
      // by the header contract.
      Result.Legal = false;
      Result.Violation.assign(Edge.CommonLoops.size(), Dir::Any);
      return Result;
    }
    // Fully permutable band: both components must be '=' or '<' for
    // every vector, so any interleaving of the tile traversal respects
    // the dependence.
    for (const DirVector &V : Edge.Vectors) {
      if ((V[OuterLevel] != Dir::Equal && V[OuterLevel] != Dir::Less) ||
          (V[InnerLevel] != Dir::Equal && V[InnerLevel] != Dir::Less)) {
        Result.Legal = false;
        Result.Violation = V;
        return Result;
      }
    }
  }
  return Result;
}

bool edda::tileLoops(Program &Prog, LoopStmt &Outer, int64_t TileSize) {
  if (TileSize < 2)
    return false;
  if (Outer.body().size() != 1 ||
      Outer.body()[0]->kind() != StmtKind::Loop)
    return false;
  LoopStmt &Inner = asLoop(*Outer.body()[0]);
  if (Outer.step() != 1 || Inner.step() != 1)
    return false;
  if (Outer.lo()->kind() != ExprKind::Const ||
      Outer.hi()->kind() != ExprKind::Const ||
      Inner.lo()->kind() != ExprKind::Const ||
      Inner.hi()->kind() != ExprKind::Const)
    return false;
  int64_t Lo1 = Outer.lo()->constValue();
  int64_t Hi1 = Outer.hi()->constValue();
  int64_t Lo2 = Inner.lo()->constValue();
  int64_t Hi2 = Inner.hi()->constValue();
  int64_t Trip1 = Hi1 - Lo1 + 1;
  int64_t Trip2 = Hi2 - Lo2 + 1;
  // Exact tiling only: TileSize must divide both trip counts so there
  // are no remainder tiles (the IR has no min/max for clamping). A
  // dimension with a single tile would only wrap the band in a
  // trip-count-1 loop — refuse that too; it is a no-op, not a tiling.
  if (Trip1 <= TileSize || Trip2 <= TileSize ||
      Trip1 % TileSize != 0 || Trip2 % TileSize != 0)
    return false;

  auto freshVar = [&Prog](const std::string &Base) {
    std::string Name = Base;
    while (Prog.lookupSymbol(Name))
      Name += "t";
    return Prog.addVar(Name, VarKind::Loop);
  };
  unsigned ItVar = freshVar(Prog.var(Outer.varId()).Name + "_t");
  unsigned JtVar = freshVar(Prog.var(Inner.varId()).Name + "_t");

  ExprArena &A = Prog.exprs();
  auto tileLo = [&A, TileSize](int64_t Lo, unsigned TileVar) {
    return A.makeAdd(A.makeConst(Lo),
                     A.makeMul(A.makeConst(TileSize), A.makeVar(TileVar)));
  };

  // Point loops: i in [lo1 + it*T, lo1 + it*T + T-1], j likewise.
  auto ILoop = std::make_unique<LoopStmt>(
      Outer.varId(), tileLo(Lo1, ItVar),
      A.makeAdd(tileLo(Lo1, ItVar), A.makeConst(TileSize - 1)),
      1);
  Inner.setLo(tileLo(Lo2, JtVar));
  Inner.setHi(
      A.makeAdd(tileLo(Lo2, JtVar), A.makeConst(TileSize - 1)));
  Inner.setParallel(false);
  ILoop->body().push_back(std::move(Outer.body()[0]));

  // Tile loops: it in [0, trip1/T - 1], jt likewise.
  auto JtLoop = std::make_unique<LoopStmt>(
      JtVar, A.makeConst(0), A.makeConst(Trip2 / TileSize - 1),
      1);
  JtLoop->body().push_back(std::move(ILoop));

  Outer.body().clear();
  Outer.body().push_back(std::move(JtLoop));
  Outer.setVarId(ItVar);
  Outer.setLo(A.makeConst(0));
  Outer.setHi(A.makeConst(Trip1 / TileSize - 1));
  Outer.setParallel(false);
  return true;
}

bool edda::reverseLoop(Program &Prog, LoopStmt &Loop) {
  unsigned V = Loop.varId();
  if (Loop.lo()->references(V) || Loop.hi()->references(V))
    return false;
  if (bindsVar(Loop.body(), V))
    return false;
  // v' = lo + hi - v enumerates the same values in the opposite order;
  // the header keeps counting upward.
  ExprArena &A = Prog.exprs();
  const Expr *Mapped =
      A.makeSub(A.makeAdd(Loop.lo(), Loop.hi()), A.makeVar(V));
  rewriteVarUses(A, Loop.body(), V, Mapped);
  return true;
}
