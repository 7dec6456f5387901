//===- analysis/Parallelizer.cpp - Loop parallelization client ------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Parallelizer.h"

#include <algorithm>
#include <map>

using namespace edda;

bool edda::carriedAt(const DirVector &V, unsigned Level) {
  if (Level >= V.size())
    return false; // the loop is not part of this pair's common nest
  for (unsigned K = 0; K < Level; ++K)
    if (V[K] == Dir::Less || V[K] == Dir::Greater)
      return false; // definitely carried at an outer level
  // '*' components before Level include '=', so carried-ness here is
  // still possible; stay conservative.
  return V[Level] != Dir::Equal;
}

namespace {

void collectLoops(const std::vector<StmtPtr> &Body,
                  std::vector<LoopStmt *> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->kind() != StmtKind::Loop)
      continue;
    auto &L = asLoop(*S);
    Out.push_back(&L);
    collectLoops(L.body(), Out);
  }
}

void collectAssignedScalars(const std::vector<StmtPtr> &Body,
                            std::vector<unsigned> &Out) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (!A.isArrayLhs() &&
          std::find(Out.begin(), Out.end(), A.lhsScalar()) == Out.end())
        Out.push_back(A.lhsScalar());
      continue;
    }
    collectAssignedScalars(asLoop(*S).body(), Out);
  }
}

/// True when \p S (or anything below it) reads variable \p Var in an
/// expression — RHS, subscripts or nested bounds.
bool readsVar(const Stmt &S, unsigned Var) {
  if (S.kind() == StmtKind::Assign) {
    const AssignStmt &A = asAssign(S);
    if (A.isArrayLhs())
      for (const Expr *Sub : A.lhsSubscripts())
        if (Sub->references(Var))
          return true;
    return A.rhs()->references(Var);
  }
  const LoopStmt &L = asLoop(S);
  if (L.lo()->references(Var) || L.hi()->references(Var))
    return true;
  for (const StmtPtr &Child : L.body())
    if (readsVar(*Child, Var))
      return true;
  return false;
}

/// Counts scalar assignments to \p Var below \p S.
unsigned countAssignments(const Stmt &S, unsigned Var) {
  if (S.kind() == StmtKind::Assign) {
    const AssignStmt &A = asAssign(S);
    return !A.isArrayLhs() && A.lhsScalar() == Var ? 1 : 0;
  }
  unsigned Count = 0;
  for (const StmtPtr &Child : asLoop(S).body())
    Count += countAssignments(*Child, Var);
  return Count;
}

/// Matches s = s + e, s = e + s, s = s - e, s = s * e, s = e * s with e
/// free of s. Additive (+/-) and multiplicative updates must not mix,
/// so the operator group is reported through \p Additive.
bool isReductionUpdate(const AssignStmt &A, unsigned Var,
                       bool &Additive) {
  const Expr *Rhs = A.rhs();
  ExprKind K = Rhs->kind();
  if (K != ExprKind::Add && K != ExprKind::Sub && K != ExprKind::Mul)
    return false;
  Additive = K != ExprKind::Mul;
  const Expr *L = Rhs->lhs();
  const Expr *R = Rhs->rhs();
  auto IsVar = [Var](const Expr *E) {
    return E->kind() == ExprKind::Var && E->varId() == Var;
  };
  if (IsVar(L) && !R->references(Var))
    return true;
  if (K != ExprKind::Sub && IsVar(R) && !L->references(Var))
    return true;
  return false;
}

/// Collects every scalar assignment to \p Var below \p S.
void collectUpdates(const Stmt &S, unsigned Var,
                    std::vector<const AssignStmt *> &Out) {
  if (S.kind() == StmtKind::Assign) {
    const AssignStmt &A = asAssign(S);
    if (!A.isArrayLhs() && A.lhsScalar() == Var)
      Out.push_back(&A);
    return;
  }
  for (const StmtPtr &Child : asLoop(S).body())
    collectUpdates(*Child, Var, Out);
}

/// True when \p S reads \p Var outside the given update statements
/// (their RHS use of the scalar is the reduction chain itself).
bool readsVarOutsideUpdates(
    const Stmt &S, unsigned Var,
    const std::vector<const AssignStmt *> &Updates) {
  if (S.kind() == StmtKind::Assign) {
    const AssignStmt &A = asAssign(S);
    if (std::find(Updates.begin(), Updates.end(), &A) != Updates.end())
      return false;
    return readsVar(S, Var);
  }
  const LoopStmt &L = asLoop(S);
  if (L.lo()->references(Var) || L.hi()->references(Var))
    return true;
  for (const StmtPtr &Child : L.body())
    if (readsVarOutsideUpdates(*Child, Var, Updates))
      return true;
  return false;
}

} // namespace

std::vector<std::pair<unsigned, ScalarClass>>
edda::classifyScalars(const Program &Prog, const LoopStmt &Loop) {
  (void)Prog;
  std::vector<unsigned> Assigned;
  collectAssignedScalars(Loop.body(), Assigned);

  std::vector<std::pair<unsigned, ScalarClass>> Out;
  for (unsigned Var : Assigned) {
    // Reduction: every assignment to the scalar (at any depth) is a
    // reduction update of one operator group, and the scalar is read
    // nowhere else in the body. Iteration order then does not matter
    // up to reassociation.
    std::vector<const AssignStmt *> Updates;
    for (const StmtPtr &S : Loop.body())
      collectUpdates(*S, Var, Updates);
    bool AllReductions = !Updates.empty();
    bool GroupKnown = false, GroupAdditive = false;
    for (const AssignStmt *U : Updates) {
      bool Additive;
      if (!isReductionUpdate(*U, Var, Additive)) {
        AllReductions = false;
        break;
      }
      if (GroupKnown && Additive != GroupAdditive) {
        AllReductions = false;
        break;
      }
      GroupKnown = true;
      GroupAdditive = Additive;
    }
    if (AllReductions) {
      bool OtherReads = false;
      for (const StmtPtr &S : Loop.body())
        OtherReads = OtherReads ||
                     readsVarOutsideUpdates(*S, Var, Updates);
      if (!OtherReads) {
        Out.push_back({Var, ScalarClass::Reduction});
        continue;
      }
    }

    // Private: scanning the body in order, the first statement that
    // touches the scalar must be an unconditional top-level write.
    ScalarClass Class = ScalarClass::Carried;
    for (const StmtPtr &S : Loop.body()) {
      bool Reads = readsVar(*S, Var);
      bool Writes = S->kind() == StmtKind::Assign &&
                    !asAssign(*S).isArrayLhs() &&
                    asAssign(*S).lhsScalar() == Var;
      if (Reads)
        break; // read (or read-modify-write) before a definite write
      if (Writes) {
        Class = ScalarClass::Private;
        break;
      }
      // A nested loop that writes (but never reads) the scalar might
      // run zero iterations, so it is not a definite write; keep
      // scanning only if it does not touch the scalar at all.
      if (S->kind() == StmtKind::Loop && countAssignments(*S, Var) > 0)
        break;
    }
    Out.push_back({Var, Class});
  }
  return Out;
}

ParallelizeSummary edda::parallelize(Program &Prog,
                                     DependenceAnalyzer &Analyzer) {
  // Force direction vectors on for this analysis.
  AnalyzerOptions Opts = Analyzer.options();
  Opts.ComputeDirections = true;
  DependenceAnalyzer DirAnalyzer(Opts);
  AnalysisResult Analysis = DirAnalyzer.analyze(Prog);

  std::vector<LoopStmt *> Loops;
  collectLoops(Prog.body(), Loops);

  std::map<const LoopStmt *, bool> Parallel;
  for (LoopStmt *L : Loops)
    Parallel[L] = true;

  for (const DependencePair &Pair : Analysis.Pairs) {
    if (Pair.Answer == DepAnswer::Independent)
      continue;
    if (!Pair.Directions || !Pair.Exact ||
        Pair.Answer == DepAnswer::Unknown) {
      // Conservative: serialize every loop enclosing both references.
      for (const LoopStmt *L : Pair.CommonLoops)
        Parallel[L] = false;
      continue;
    }
    for (const DirVector &V : Pair.Directions->Vectors) {
      for (unsigned Level = 0; Level < Pair.CommonLoops.size(); ++Level)
        if (carriedAt(V, Level))
          Parallel[Pair.CommonLoops[Level]] = false;
    }
  }

  ParallelizeSummary Summary;
  for (LoopStmt *L : Loops) {
    ++Summary.LoopsTotal;
    bool IsParallel = Parallel[L];
    // Array dependences are not the whole story: scalars assigned in
    // the body carry values across iterations unless they are private
    // or reductions.
    bool HasReduction = false;
    if (IsParallel) {
      for (const auto &[Var, Class] : classifyScalars(Prog, *L)) {
        (void)Var;
        if (Class == ScalarClass::Carried)
          IsParallel = false;
        else if (Class == ScalarClass::Reduction)
          HasReduction = true;
      }
    }
    L->setParallel(IsParallel);
    if (IsParallel) {
      ++Summary.LoopsParallel;
      if (HasReduction)
        ++Summary.LoopsWithReductions;
    }
  }
  return Summary;
}
