//===- deptest/TestPipeline.cpp - Pluggable dependence-test pipeline ------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/TestPipeline.h"

#include "deptest/Banerjee.h"
#include "deptest/Direction.h"
#include "deptest/LoopResidue.h"
#include "support/IntMath.h"
#include "support/WideInt.h"

#include <cassert>
#include <chrono>
#include <cstdio>

using namespace edda;

//===----------------------------------------------------------------------===//
// PipelineContext
//===----------------------------------------------------------------------===//

namespace {

/// Lifts a 64-bit Diophantine solution to the 128-bit tier verbatim:
/// the solved numbers are exact, only their width changes.
DiophantineSolutionT<Int128> widenSolution(const DiophantineSolution &S) {
  DiophantineSolutionT<Int128> W;
  W.Solvable = S.Solvable;
  W.Overflow = false;
  W.NumX = S.NumX;
  W.NumFree = S.NumFree;
  W.Offset = widenVec(S.Offset);
  W.FreeRows = MatrixT<Int128>(S.FreeRows.rows(), S.FreeRows.cols());
  for (unsigned R = 0; R < S.FreeRows.rows(); ++R)
    for (unsigned C = 0; C < S.FreeRows.cols(); ++C)
      W.FreeRows.at(R, C) = Int128(S.FreeRows.at(R, C));
  return W;
}

} // namespace

template <typename T>
const DiophantineSolutionT<T> &PipelineContext::solutionT() {
  Artifacts<T> &A = arts<T>();
  if (!A.Solution) {
    if constexpr (std::is_same_v<T, Int128>) {
      // Reuse the narrow solve unless it overflowed: its numbers are
      // exact, so the wide solution is the same solution, widened.
      const DiophantineSolution &NS = solutionT<int64_t>();
      if (!NS.Overflow)
        A.Solution = widenSolution(NS);
      else
        A.Solution = solveEquations<Int128>(Problem);
    } else {
      A.Solution = solveEquations<int64_t>(Problem);
    }
  }
  return *A.Solution;
}

template <typename T> PipelineContext::Prep PipelineContext::prepT() {
  Artifacts<T> &A = arts<T>();
  if constexpr (std::is_same_v<T, Int128>) {
    // When the narrow tier prepped cleanly the wide system is just the
    // widened narrow system; infeasibility is exact at any width. Only
    // a narrow overflow forces the genuine wide rebuild below.
    switch (prepT<int64_t>()) {
    case Prep::Infeasible:
      return Prep::Infeasible;
    case Prep::Ready:
      if (!A.SystemBuilt) {
        A.SystemBuilt = true;
        A.System = widenSystem(systemT<int64_t>());
      }
      return Prep::Ready;
    case Prep::Overflow:
      break;
    }
  }
  const DiophantineSolutionT<T> &Sol = solutionT<T>();
  if (Sol.Overflow)
    return Prep::Overflow;
  if (!Sol.Solvable)
    return Prep::Infeasible;
  if (!A.SystemBuilt) {
    A.SystemBuilt = true;
    std::optional<LinearSystemT<T>> MaybeSystem =
        boundsToFreeSpace(Problem, Sol);
    if (!MaybeSystem) {
      A.SystemOverflow = true;
    } else {
      for (const XAffine &Form : ExtraLe0) {
        std::vector<T> TCoeffs;
        T TConst{};
        if (!projectToFree(Form, Sol, TCoeffs, TConst)) {
          A.SystemOverflow = true;
          break;
        }
        std::optional<T> Bound = checkedNeg(TConst);
        if (!Bound) {
          A.SystemOverflow = true;
          break;
        }
        MaybeSystem->addLe(std::move(TCoeffs), *Bound);
      }
      if (!A.SystemOverflow)
        A.System = std::move(*MaybeSystem);
    }
  }
  return A.SystemOverflow ? Prep::Overflow : Prep::Ready;
}

template <typename T> const LinearSystemT<T> &PipelineContext::systemT() {
  Prep P = prepT<T>();
  (void)P;
  assert(P == Prep::Ready && "system requested without Ready prep");
  return *arts<T>().System;
}

template <typename T> const SvpcResultT<T> &PipelineContext::svpcPassT() {
  Artifacts<T> &A = arts<T>();
  if (!A.Svpc)
    A.Svpc = runSvpc(systemT<T>());
  return *A.Svpc;
}

template <typename T>
std::optional<std::vector<int64_t>>
PipelineContext::witnessFromT(const std::vector<T> &TSample) {
  std::optional<std::vector<T>> X = solutionT<T>().instantiate(TSample);
  if (!X)
    return std::nullopt;
  if constexpr (std::is_same_v<T, Int128>)
    return narrowVec(*X);
  else
    return X;
}

namespace edda {
template const DiophantineSolutionT<int64_t> &
PipelineContext::solutionT<int64_t>();
template const DiophantineSolutionT<Int128> &
PipelineContext::solutionT<Int128>();
template PipelineContext::Prep PipelineContext::prepT<int64_t>();
template PipelineContext::Prep PipelineContext::prepT<Int128>();
template const LinearSystemT<int64_t> &PipelineContext::systemT<int64_t>();
template const LinearSystemT<Int128> &PipelineContext::systemT<Int128>();
template const SvpcResultT<int64_t> &PipelineContext::svpcPassT<int64_t>();
template const SvpcResultT<Int128> &PipelineContext::svpcPassT<Int128>();
template std::optional<std::vector<int64_t>>
PipelineContext::witnessFromT<int64_t>(const std::vector<int64_t> &);
template std::optional<std::vector<int64_t>>
PipelineContext::witnessFromT<Int128>(const std::vector<Int128> &);
} // namespace edda

//===----------------------------------------------------------------------===//
// The stages
//===----------------------------------------------------------------------===//

namespace {

/// Runs a stage's width-templated body on the 64-bit fast path first,
/// retrying once at 128 bits when that overflowed and widening is
/// enabled. A wide outcome is tagged Widened; when the wide tier also
/// overflows, the narrow overflow stands and the pipeline records its
/// provenance exactly as in the 64-bit-only days.
template <typename StageT>
StageResult runWidened(const StageT &Stage, PipelineContext &Ctx) {
  StageResult Narrow = Stage.template runT<int64_t>(Ctx);
  if (Narrow.St != StageResult::Status::Overflow || !Ctx.options().Widen)
    return Narrow;
  StageResult Wide = Stage.template runT<Int128>(Ctx);
  if (Wide.St == StageResult::Status::Overflow) {
    Narrow.Fm += Wide.Fm;
    return Narrow;
  }
  Wide.Widened = true;
  Wide.Fm += Narrow.Fm;
  return Wide;
}

/// Shared applicability screen: the free-space system is usable if the
/// 64-bit prep succeeded, or the 128-bit retry can still produce one.
/// (Without this, a narrow prep overflow would skip every stage and the
/// wide tier would never get its chance.)
bool prepUsable(PipelineContext &Ctx) {
  if (Ctx.prepT<int64_t>() != PipelineContext::Prep::Overflow)
    return true;
  return Ctx.options().Widen &&
         Ctx.prepT<Int128>() != PipelineContext::Prep::Overflow;
}

/// What the shared preprocessing alone says at width T: Overflow,
/// Independent when the equations have no integer solution, and
/// NotApplicable once the free-space system is ready for the stage.
template <typename T> StageResult prepResult(PipelineContext &Ctx) {
  switch (Ctx.prepT<T>()) {
  case PipelineContext::Prep::Overflow:
    return StageResult::overflow();
  case PipelineContext::Prep::Infeasible:
    return StageResult::independent();
  case PipelineContext::Prep::Ready:
    break;
  }
  return StageResult::notApplicable();
}

/// Translates an SVPC or Acyclic verdict at width T, mapping its sample
/// back to an x-space witness; NeedsMore becomes NotApplicable.
template <typename T, typename ResultT>
StageResult verdictResult(PipelineContext &Ctx, const ResultT &R) {
  switch (R.St) {
  case ResultT::Status::Independent:
    return StageResult::independent();
  case ResultT::Status::Dependent:
    return StageResult::dependent(R.Sample ? Ctx.witnessFromT<T>(*R.Sample)
                                           : std::nullopt);
  case ResultT::Status::NeedsMore:
    return StageResult::notApplicable();
  case ResultT::Status::Overflow:
    return StageResult::overflow();
  }
  return StageResult::notApplicable();
}

/// Step 0 of the cascade (paper Table 1, first column): all-constant
/// subscripts need no dependence testing.
class ArrayConstantStage final : public DependenceTest {
public:
  const char *name() const override { return "const"; }
  const char *label() const override { return "Constant"; }
  const char *description() const override {
    return "all-constant subscripts: nonzero difference is independence, "
           "otherwise dependence hinges only on loops executing";
  }
  TestKind kind() const override { return TestKind::ArrayConstant; }
  bool exact() const override { return true; }

  bool applicable(PipelineContext &Ctx) const override {
    const DependenceProblem &P = Ctx.problem();
    if (P.Equations.empty())
      return true;
    for (const XAffine &Eq : P.Equations)
      if (Eq.isConstant())
        return true;
    return false;
  }

  StageResult run(PipelineContext &Ctx) const override {
    const DependenceProblem &P = Ctx.problem();
    bool AllConstant = true;
    for (const XAffine &Eq : P.Equations) {
      if (!Eq.isConstant()) {
        AllConstant = false;
        continue;
      }
      if (Eq.Const != 0)
        return StageResult::independent();
    }
    if (!AllConstant || !Ctx.extraLe0().empty())
      return StageResult::notApplicable();
    // Constant-bound empty loops are detected exactly.
    bool EmptyLoop = false;
    for (unsigned L = 0; L < P.numLoopVars(); ++L)
      EmptyLoop = EmptyLoop ||
                  (P.Lo[L] && P.Hi[L] && P.Lo[L]->isConstant() &&
                   P.Hi[L]->isConstant() && P.Lo[L]->Const > P.Hi[L]->Const);
    StageResult R;
    R.St = arrayConstantRule(/*NonzeroDifference=*/false, EmptyLoop,
                             Ctx.options());
    return R;
  }
};

/// Step 1: extended GCD. Owns all of the shared preprocessing, so a
/// preprocessing overflow surfaces (and is attributed) here when the
/// stage is part of the pipeline.
class GcdStage final : public DependenceTest {
public:
  const char *name() const override { return "gcd"; }
  const char *label() const override { return "GCD"; }
  const char *description() const override {
    return "extended GCD: integer-solves the subscript equations and "
           "rewrites the bounds over the free variables";
  }
  TestKind kind() const override { return TestKind::GcdTest; }
  bool exact() const override { return true; }

  bool applicable(PipelineContext &) const override { return true; }

  StageResult run(PipelineContext &Ctx) const override {
    return runWidened(*this, Ctx);
  }

  template <typename T> StageResult runT(PipelineContext &Ctx) const {
    return prepResult<T>(Ctx);
  }
};

/// Step 2: Single Variable Per Constraint.
class SvpcStage final : public DependenceTest {
public:
  const char *name() const override { return "svpc"; }
  const char *label() const override { return "SVPC"; }
  const char *description() const override {
    return "single variable per constraint: intersects per-variable "
           "integer intervals; exact when no constraint couples variables";
  }
  TestKind kind() const override { return TestKind::Svpc; }
  bool exact() const override { return true; }

  bool applicable(PipelineContext &Ctx) const override {
    return prepUsable(Ctx);
  }

  StageResult run(PipelineContext &Ctx) const override {
    return runWidened(*this, Ctx);
  }

  template <typename T> StageResult runT(PipelineContext &Ctx) const {
    if (StageResult Prep = prepResult<T>(Ctx);
        Prep.St != StageResult::Status::NotApplicable)
      return Prep;
    return verdictResult<T>(Ctx, Ctx.svpcPassT<T>());
  }
};

/// Step 3: the Acyclic test on SVPC's leftover multi-variable
/// constraints. Publishes its simplified core for the residue stage.
class AcyclicStage final : public DependenceTest {
public:
  const char *name() const override { return "acyclic"; }
  const char *label() const override { return "Acyclic"; }
  const char *description() const override {
    return "acyclic: pins one-directional variables to interval "
           "endpoints; exact unless a cyclic core remains";
  }
  TestKind kind() const override { return TestKind::Acyclic; }
  bool exact() const override { return true; }

  bool applicable(PipelineContext &Ctx) const override {
    return prepUsable(Ctx);
  }

  StageResult run(PipelineContext &Ctx) const override {
    return runWidened(*this, Ctx);
  }

  template <typename T> StageResult runT(PipelineContext &Ctx) const {
    if (StageResult Prep = prepResult<T>(Ctx);
        Prep.St != StageResult::Status::NotApplicable)
      return Prep;
    const SvpcResultT<T> &Svpc = Ctx.svpcPassT<T>();
    // In a permuted pipeline SVPC may not have run as a stage; its
    // classification is shared preprocessing either way, and a system it
    // already decides is decided here with the same certainty.
    if (Svpc.St != SvpcResultT<T>::Status::NeedsMore)
      return verdictResult<T>(Ctx, Svpc);
    AcyclicResultT<T> Acyc = runAcyclic(Ctx.systemT<T>().numVars(),
                                        Svpc.MultiVar, Svpc.Intervals);
    StageResult Out = verdictResult<T>(Ctx, Acyc);
    Ctx.setAcyclicOutcomeT<T>(std::move(Acyc));
    return Out;
  }
};

/// Step 4: the Simple Loop Residue test, preferably on the cyclic core
/// the Acyclic stage left behind, directly on the SVPC leftovers when
/// Acyclic has not run.
class LoopResidueStage final : public DependenceTest {
public:
  const char *name() const override { return "residue"; }
  const char *label() const override { return "Residue"; }
  const char *description() const override {
    return "loop residue: negative-cycle detection over difference "
           "constraints; exact via total unimodularity";
  }
  TestKind kind() const override { return TestKind::LoopResidue; }
  bool exact() const override { return true; }

  bool applicable(PipelineContext &Ctx) const override {
    if (!prepUsable(Ctx))
      return false;
    // Consult the widest acyclic outcome published: when the wide tier
    // ran, it subsumes the narrow one. An overflowed outcome means that
    // tier's simplified state is unusable; skip straight to
    // Fourier-Motzkin as the cascade always has.
    if (const AcyclicResultT<Int128> *W = Ctx.acyclicOutcomeT<Int128>())
      return W->St == AcyclicResultT<Int128>::Status::NeedsMore;
    if (const AcyclicResult *Acyc = Ctx.acyclicOutcomeT<int64_t>())
      return Acyc->St == AcyclicResult::Status::NeedsMore ||
             (Acyc->St == AcyclicResult::Status::Overflow &&
              Ctx.options().Widen);
    return true;
  }

  StageResult run(PipelineContext &Ctx) const override {
    return runWidened(*this, Ctx);
  }

  template <typename T> StageResult runT(PipelineContext &Ctx) const {
    if (StageResult Prep = prepResult<T>(Ctx);
        Prep.St != StageResult::Status::NotApplicable)
      return Prep;

    const std::vector<LinearConstraintT<T>> *MultiVar;
    const VarIntervalsT<T> *Intervals;
    const AcyclicResultT<T> *Acyc = Ctx.acyclicOutcomeT<T>();
    if (Acyc && Acyc->St == AcyclicResultT<T>::Status::Overflow)
      return StageResult::overflow(); // this tier's core is unusable
    if (Acyc) {
      MultiVar = &Acyc->Remaining;
      Intervals = &Acyc->Intervals;
    } else {
      const SvpcResultT<T> &Svpc = Ctx.svpcPassT<T>();
      if (Svpc.St != SvpcResultT<T>::Status::NeedsMore)
        return verdictResult<T>(Ctx, Svpc);
      MultiVar = &Svpc.MultiVar;
      Intervals = &Svpc.Intervals;
    }

    ResidueResultT<T> Residue =
        runLoopResidue(Ctx.systemT<T>().numVars(), *MultiVar, *Intervals);
    switch (Residue.St) {
    case ResidueResultT<T>::Status::Independent:
      return StageResult::independent();
    case ResidueResultT<T>::Status::Dependent: {
      std::optional<std::vector<int64_t>> Witness;
      if (Residue.Sample) {
        std::vector<T> TSample = std::move(*Residue.Sample);
        // Replay the acyclic eliminations backwards to re-fill the
        // pinned/dropped variables (no-op when Acyclic did not run).
        if (!Acyc || completeSample(TSample, Acyc->Log, Acyc->Intervals))
          Witness = Ctx.witnessFromT<T>(TSample);
      }
      return StageResult::dependent(std::move(Witness));
    }
    case ResidueResultT<T>::Status::NotApplicable:
      return StageResult::notApplicable();
    case ResidueResultT<T>::Status::Overflow:
      return StageResult::overflow();
    }
    return StageResult::notApplicable();
  }
};

/// Step 5: the backup Fourier-Motzkin test on the full t-space system.
class FourierMotzkinStage final : public DependenceTest {
public:
  const char *name() const override { return "fm"; }
  const char *label() const override { return "F-M"; }
  const char *description() const override {
    return "Fourier-Motzkin backup: real and dark shadows plus splinters; "
           "inexact only on budget exhaustion or 128-bit overflow";
  }
  TestKind kind() const override { return TestKind::FourierMotzkin; }
  bool exact() const override { return true; }

  bool applicable(PipelineContext &Ctx) const override {
    return prepUsable(Ctx);
  }

  StageResult run(PipelineContext &Ctx) const override {
    StageResult R = runWidened(*this, Ctx);
    // An overflow surviving the ladder is still this stage's call: FM
    // has always answered its own overflows with a decided (inexact)
    // Unknown rather than falling through, and --no-widen keeps that.
    if (R.St == StageResult::Status::Overflow)
      R.St = StageResult::Status::Unknown;
    return R;
  }

  template <typename T> StageResult runT(PipelineContext &Ctx) const {
    if (StageResult Prep = prepResult<T>(Ctx);
        Prep.St != StageResult::Status::NotApplicable)
      return Prep;
    FmResultT<T> Fm = runFourierMotzkin(Ctx.systemT<T>(), Ctx.options().Fm);
    StageResult Out;
    switch (Fm.St) {
    case FmResultT<T>::Status::Independent:
      Out = StageResult::independent();
      break;
    case FmResultT<T>::Status::Dependent:
      Out = StageResult::dependent(
          Fm.Sample ? Ctx.witnessFromT<T>(*Fm.Sample) : std::nullopt);
      break;
    case FmResultT<T>::Status::Unknown:
      // Only overflow-caused Unknowns are worth a wide retry; budget
      // exhaustion would exhaust the wide tier just the same.
      Out = Fm.Overflowed ? StageResult::overflow()
                          : StageResult::unknown();
      break;
    }
    // The solver's work measure: every combine and splinter node — the
    // units elimination cost actually scales with, and the unit
    // DepStats::FmWork counts in. A solve the witness guess settles
    // outright charges nothing, and a sharing-table hit charges
    // nothing — the original solve already paid.
    if (Fm.ShareHit) {
      Out.Fm.FmShareHits = 1;
    } else {
      Out.Fm.FmWork = Fm.Combines + uint64_t(Fm.BranchNodes);
      Out.Fm.FmDarkShadowExact = Fm.DarkDecided;
      Out.Fm.FmSplinters = Fm.BranchNodes;
      Out.Fm.FmRedundantPruned = Fm.RedundantPruned;
    }
    return Out;
  }
};

/// Decodes ExtraLe0 forms produced by the direction-vector refinement
/// back into a direction vector, when every form matches one of the
/// patterns appendDirConstraints emits (Less: +xA -xB, const 1;
/// Greater: -xA +xB, const 1; Equal: the two complementary const-0
/// halves). Returns nullopt for any other constraint shape — the
/// Banerjee baseline has no notion of general linear side constraints.
std::optional<DirVector>
decodeDirConstraints(const DependenceProblem &P,
                     const std::vector<XAffine> &ExtraLe0) {
  DirVector Psi(P.NumCommon, Dir::Any);
  // Per common loop: which Equal halves were seen (A-B and B-A).
  std::vector<uint8_t> EqualHalves(P.NumCommon, 0);
  for (const XAffine &Form : ExtraLe0) {
    std::optional<unsigned> PosVar, NegVar;
    for (unsigned J = 0; J < Form.Coeffs.size(); ++J) {
      if (Form.Coeffs[J] == 0)
        continue;
      if (Form.Coeffs[J] == 1 && !PosVar)
        PosVar = J;
      else if (Form.Coeffs[J] == -1 && !NegVar)
        NegVar = J;
      else
        return std::nullopt;
    }
    if (!PosVar || !NegVar)
      return std::nullopt;
    // Identify the common loop the pair (PosVar, NegVar) belongs to.
    unsigned K;
    bool AFirst;
    if (*PosVar < P.NumCommon && *NegVar == P.NumLoopsA + *PosVar) {
      K = *PosVar;
      AFirst = true;
    } else if (*NegVar < P.NumCommon &&
               *PosVar == P.NumLoopsA + *NegVar) {
      K = *NegVar;
      AFirst = false;
    } else {
      return std::nullopt;
    }
    Dir Seen;
    if (Form.Const == 1)
      Seen = AFirst ? Dir::Less : Dir::Greater;
    else if (Form.Const == 0) {
      EqualHalves[K] |= AFirst ? 1 : 2;
      if (EqualHalves[K] == 3)
        Seen = Dir::Equal;
      else
        continue; // waiting for the complementary half
    } else {
      return std::nullopt;
    }
    if (Psi[K] != Dir::Any && Psi[K] != Seen)
      return std::nullopt; // contradictory redundant constraints
    Psi[K] = Seen;
  }
  // A lone Equal half is a one-sided <= we cannot express.
  for (unsigned K = 0; K < P.NumCommon; ++K)
    if (EqualHalves[K] != 0 && Psi[K] != Dir::Equal)
      return std::nullopt;
  return Psi;
}

/// The inexact section 7 baseline behind the same interface: simple GCD
/// plus the Banerjee bounds test (Wolfe's rectangular per-direction
/// variant when direction constraints are imposed). Independent answers
/// are sound; anything else is "assumed dependent" (Unknown).
class BanerjeeStage final : public DependenceTest {
public:
  const char *name() const override { return "banerjee"; }
  const char *label() const override { return "Banerjee"; }
  const char *description() const override {
    return "inexact baseline: simple GCD + Banerjee bounds test "
           "(assumes dependence when real extremes straddle zero)";
  }
  TestKind kind() const override { return TestKind::Banerjee; }
  bool exact() const override { return false; }

  bool applicable(PipelineContext &Ctx) const override {
    return decodeDirConstraints(Ctx.problem(), Ctx.extraLe0())
        .has_value();
  }

  StageResult run(PipelineContext &Ctx) const override {
    std::optional<DirVector> Psi =
        decodeDirConstraints(Ctx.problem(), Ctx.extraLe0());
    assert(Psi && "run() without applicable()");
    return banerjeeDirected(Ctx.problem(), *Psi) ==
                   BaselineAnswer::Independent
               ? StageResult::independent()
               : StageResult::unknown();
  }
};

} // namespace

StageResult::Status edda::arrayConstantRule(bool NonzeroDifference,
                                            bool ConstantEmptyLoop,
                                            const CascadeOptions &Opts) {
  if (NonzeroDifference || ConstantEmptyLoop)
    return StageResult::Status::Independent;
  // Follow the paper and assume enclosing loops execute; when that
  // assumption is disabled the later stages decide bounds feasibility.
  return Opts.AssumeNonEmptyLoops ? StageResult::Status::Dependent
                                  : StageResult::Status::NotApplicable;
}

//===----------------------------------------------------------------------===//
// The registry
//===----------------------------------------------------------------------===//

const std::vector<const DependenceTest *> &edda::stageRegistry() {
  static const std::vector<const DependenceTest *> Registry = [] {
    static ArrayConstantStage Const;
    static GcdStage Gcd;
    static SvpcStage Svpc;
    static AcyclicStage Acyclic;
    static LoopResidueStage Residue;
    static FourierMotzkinStage Fm;
    static BanerjeeStage Banerjee;
    std::vector<const DependenceTest *> Out = {
        &Const, &Gcd, &Svpc, &Acyclic, &Residue, &Fm, &Banerjee};
    for (unsigned I = 0; I < Out.size(); ++I)
      assert(Out[I]->kind() == static_cast<TestKind>(I) &&
             "registry order must be TestKind order");
    return Out;
  }();
  return Registry;
}

const DependenceTest *edda::findStage(std::string_view Name) {
  for (const DependenceTest *Stage : stageRegistry())
    if (Name == Stage->name())
      return Stage;
  return nullptr;
}

const DependenceTest *edda::stageForKind(TestKind Kind) {
  const std::vector<const DependenceTest *> &Registry = stageRegistry();
  const unsigned K = static_cast<unsigned>(Kind);
  return K < Registry.size() ? Registry[K] : nullptr;
}

//===----------------------------------------------------------------------===//
// TestPipeline
//===----------------------------------------------------------------------===//

const TestPipeline &TestPipeline::defaultPipeline() {
  static const TestPipeline Default = [] {
    TestPipeline P;
    for (const DependenceTest *Stage : stageRegistry())
      if (Stage->exact())
        P.Stages.push_back(Stage);
    return P;
  }();
  return Default;
}

std::optional<TestPipeline> TestPipeline::parse(std::string_view Spec,
                                                std::string *Error) {
  auto Fail = [&](const std::string &Message) -> std::optional<TestPipeline> {
    if (Error) {
      *Error = Message + "; valid stages:";
      for (const DependenceTest *Stage : stageRegistry())
        *Error += std::string(" ") + Stage->name();
      *Error += ", or 'default'";
    }
    return std::nullopt;
  };

  if (Spec == "default")
    return defaultPipeline();

  TestPipeline P;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string_view Token = Spec.substr(
        Pos, Comma == std::string_view::npos ? Comma : Comma - Pos);
    if (Token.empty())
      return Fail("empty stage name in pipeline spec '" +
                  std::string(Spec) + "'");
    const DependenceTest *Stage = findStage(Token);
    if (!Stage)
      return Fail("unknown stage '" + std::string(Token) +
                  "' in pipeline spec '" + std::string(Spec) + "'");
    for (const DependenceTest *Prev : P.Stages)
      if (Prev == Stage)
        return Fail("duplicate stage '" + std::string(Token) +
                    "' in pipeline spec '" + std::string(Spec) + "'");
    P.Stages.push_back(Stage);
    if (Comma == std::string_view::npos)
      break;
    Pos = Comma + 1;
  }
  if (P.Stages.empty())
    return Fail("empty pipeline spec");
  return P;
}

std::string TestPipeline::spec() const {
  std::string Out;
  for (const DependenceTest *Stage : Stages) {
    if (!Out.empty())
      Out += ',';
    Out += Stage->name();
  }
  return Out;
}

std::shared_ptr<const TestPipeline>
edda::makePipeline(std::string_view Spec, std::string *Error) {
  std::optional<TestPipeline> P = TestPipeline::parse(Spec, Error);
  if (!P)
    return nullptr;
  return std::make_shared<const TestPipeline>(std::move(*P));
}

std::optional<CascadeResult>
TestPipeline::runConstant(bool NonzeroDifference, bool ConstantEmptyLoop,
                          const CascadeOptions &Opts,
                          DepStats *Stats) const {
  // run() on an all-constant problem: the const stage is applicable,
  // and its verdict is the rule's.
  if (Stages.empty() || Stages.front()->kind() != TestKind::ArrayConstant)
    return std::nullopt;
  StageResult::Status St =
      arrayConstantRule(NonzeroDifference, ConstantEmptyLoop, Opts);
  if (St == StageResult::Status::NotApplicable)
    return std::nullopt;
  CascadeResult Result;
  Result.Answer = St == StageResult::Status::Independent
                      ? DepAnswer::Independent
                      : DepAnswer::Dependent;
  Result.DecidedBy = TestKind::ArrayConstant;
  Result.Exact = true;
  if (Stats) {
    ++Stats->Queries;
    Stats->recordDecision(TestKind::ArrayConstant,
                          Result.Answer == DepAnswer::Independent);
  }
  return Result;
}

CascadeResult TestPipeline::run(const DependenceProblem &Problem,
                                const std::vector<XAffine> &ExtraLe0,
                                const CascadeOptions &Opts,
                                DepStats *Stats,
                                PipelineTrace *Trace) const {
  assert(Problem.wellFormed() && "malformed problem");
  if (Stats)
    ++Stats->Queries;

  PipelineContext Ctx(Problem, ExtraLe0, Opts);
  // First stage whose own arithmetic gave up, for Unanalyzable
  // provenance (one record per query even if several stages overflow).
  std::optional<TestKind> OverflowStage;

  auto Decide = [&](const DependenceTest *Stage, DepAnswer Answer,
                    std::optional<std::vector<int64_t>> Witness,
                    bool Widened) {
    if (Stats) {
      Stats->recordDecision(Stage->kind(), Answer == DepAnswer::Independent);
      if (Widened) {
        ++Stats->WidenedQueries;
        // A widening forced by shared-preprocessing overflow is the GCD
        // stage's, whichever stage's retry then decided — the same
        // order-independence rule as overflow provenance.
        ++Stats->StageWiden[static_cast<unsigned>(
            Ctx.prepOverflowStage().value_or(Stage->kind()))];
      }
    }
    CascadeResult Result;
    Result.Answer = Answer;
    Result.DecidedBy = Stage->kind();
    Result.Exact = Answer != DepAnswer::Unknown;
    Result.Witness = std::move(Witness);
    Result.Widened = Widened;
    return Result;
  };

  for (const DependenceTest *Stage : Stages) {
    std::chrono::steady_clock::time_point Start;
    if (Trace)
      Start = std::chrono::steady_clock::now();

    bool Applicable = Stage->applicable(Ctx);
    StageResult R = Applicable ? Stage->run(Ctx)
                               : StageResult::notApplicable();

    if (Trace) {
      StageTrace &T = Trace->Stages.emplace_back();
      T.Stage = Stage;
      T.Applicable = Applicable;
      T.Result = R;
      T.Nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count());
    }

    if (Stats)
      *Stats += R.Fm;

    switch (R.St) {
    case StageResult::Status::Independent:
      return Decide(Stage, DepAnswer::Independent, std::nullopt,
                    R.Widened);
    case StageResult::Status::Dependent:
      return Decide(Stage, DepAnswer::Dependent, std::move(R.Witness),
                    R.Widened);
    case StageResult::Status::Unknown:
      return Decide(Stage, DepAnswer::Unknown, std::nullopt, R.Widened);
    case StageResult::Status::Overflow:
      if (!OverflowStage)
        OverflowStage = Stage->kind();
      continue;
    case StageResult::Status::NotApplicable:
      continue;
    }
  }

  // No stage decided: conservatively unknown. Record which stage's
  // arithmetic gave up — a shared-preprocessing overflow is the GCD
  // stage's even when another stage's lazy access tripped it.
  if (!OverflowStage)
    OverflowStage = Ctx.prepOverflowStage();
  if (Stats) {
    Stats->recordDecision(TestKind::Unanalyzable, false);
    if (OverflowStage)
      ++Stats->StageOverflow[static_cast<unsigned>(*OverflowStage)];
  }
  CascadeResult Result;
  Result.Answer = DepAnswer::Unknown;
  Result.DecidedBy = TestKind::Unanalyzable;
  Result.Exact = false;
  return Result;
}

//===----------------------------------------------------------------------===//
// Trace rendering
//===----------------------------------------------------------------------===//

static const char *statusStr(StageResult::Status St) {
  switch (St) {
  case StageResult::Status::Independent:
    return "independent";
  case StageResult::Status::Dependent:
    return "dependent";
  case StageResult::Status::Unknown:
    return "unknown";
  case StageResult::Status::NotApplicable:
    return "not-applicable";
  case StageResult::Status::Overflow:
    return "overflow";
  }
  return "?";
}

std::string PipelineTrace::str(unsigned Indent) const {
  std::string Pad(Indent, ' ');
  std::string Out;
  for (const StageTrace &T : Stages) {
    Out += Pad + T.Stage->name() + std::string(": ");
    const StageResult &R = T.Result;
    if (!T.Applicable) {
      Out += "skipped (not applicable)";
    } else {
      Out += statusStr(R.St);
      if (R.St == StageResult::Status::Independent ||
          R.St == StageResult::Status::Dependent)
        Out += " (exact)";
      else if (R.St == StageResult::Status::Unknown)
        Out += " (inexact)";
      if (R.Widened)
        Out += " (widened to 128-bit)";
      if (R.Witness) {
        Out += ", witness [";
        for (unsigned J = 0; J < R.Witness->size(); ++J) {
          if (J)
            Out += ", ";
          Out += std::to_string((*R.Witness)[J]);
        }
        Out += "]";
      }
      if (R.Fm.FmShareHits)
        Out += ", fm shared";
      else if (R.Fm.FmWork > 0) {
        Out += ", fm work " + std::to_string(R.Fm.FmWork);
        if (R.Fm.FmDarkShadowExact)
          Out += ", dark-decided " + std::to_string(R.Fm.FmDarkShadowExact);
        if (R.Fm.FmSplinters)
          Out += ", splinters " + std::to_string(R.Fm.FmSplinters);
        if (R.Fm.FmRedundantPruned)
          Out += ", pruned " + std::to_string(R.Fm.FmRedundantPruned);
      }
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), ", %llu ns",
                  static_cast<unsigned long long>(T.Nanos));
    Out += Buf;
    Out += "\n";
  }
  return Out;
}
