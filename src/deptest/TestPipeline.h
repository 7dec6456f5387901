//===- deptest/TestPipeline.h - Pluggable dependence-test pipeline -*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's cascade (section 3) restated as a *pipeline of pluggable
/// stages*: each test — array constants, extended GCD, SVPC, Acyclic,
/// Loop Residue, Fourier-Motzkin, and the inexact Banerjee baseline of
/// section 7 — implements one uniform DependenceTest interface and is
/// registered in a global stage registry. A pipeline is an ordered
/// selection of stages, built from a spec string such as
///
///   "const,gcd,svpc,acyclic,residue,fm"   (the default exact cascade)
///   "banerjee"                            (the section 7 baseline)
///   "const,gcd,fm"                        (skip the special cases)
///
/// Stages share preprocessing through a PipelineContext that computes
/// the extended-GCD solution, the free-space bounds system and the SVPC
/// constraint classification lazily and at most once per query, so a
/// stage costs the same whether it runs first or fifth. Every exact
/// stage answers Independent/Dependent only when the answer is certain
/// and reports NotApplicable otherwise, which is what makes the final
/// Independent/Dependent verdict invariant under stage reordering
/// (checked by the pipeline permutation property test).
///
/// A structured trace layer records, per stage: the applicability
/// verdict, the answer, exactness, the witness and elapsed nanoseconds
/// — surfaced as AnalyzerOptions::Trace and `edda-cli --explain`.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_TESTPIPELINE_H
#define EDDA_DEPTEST_TESTPIPELINE_H

#include "deptest/Acyclic.h"
#include "deptest/Cascade.h"
#include "deptest/ExtendedGcd.h"
#include "deptest/Problem.h"
#include "deptest/Stats.h"
#include "deptest/Svpc.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace edda {

/// Outcome of one stage's attempt at a problem.
struct StageResult {
  enum class Status {
    Independent,   ///< Exact: no dependence.
    Dependent,     ///< Exact: dependence, witness attached when
                   ///< reconstruction did not overflow.
    Unknown,       ///< The stage consumed the problem but could not
                   ///< decide exactly (FM budget exhaustion, Banerjee
                   ///< "assumed dependent"). Ends the pipeline,
                   ///< flagged inexact.
    NotApplicable, ///< The stage cannot decide this problem; later
                   ///< stages continue.
    Overflow,      ///< Arithmetic gave up mid-run at every enabled
                   ///< width; later stages continue, provenance is
                   ///< recorded.
  };

  Status St = Status::NotApplicable;
  /// Witness iteration vector in x space when Dependent.
  std::optional<std::vector<int64_t>> Witness;
  /// True when this outcome came from the 128-bit retry tier (the
  /// stage's 64-bit attempt overflowed).
  bool Widened = false;
  /// The work this stage's Fourier-Motzkin solves did, across both
  /// tiers (zero for every other stage); the runner adds it to
  /// DepStats.
  FmCounters Fm{};

  static StageResult independent() {
    return {Status::Independent, std::nullopt};
  }
  static StageResult dependent(
      std::optional<std::vector<int64_t>> Witness = std::nullopt) {
    return {Status::Dependent, std::move(Witness)};
  }
  static StageResult unknown() { return {Status::Unknown, std::nullopt}; }
  static StageResult notApplicable() {
    return {Status::NotApplicable, std::nullopt};
  }
  static StageResult overflow() {
    return {Status::Overflow, std::nullopt};
  }
};

/// Shared per-query state. The preprocessing artifacts every stage
/// builds on (extended-GCD solution, free-space bounds system, SVPC
/// classification) are computed lazily and cached, so each is paid for
/// at most once regardless of stage order; the acyclic stage publishes
/// its simplified core here for the residue stage, mirroring the
/// paper's "applicability checks are byproducts of the previous stage".
///
/// Every artifact exists at two widths: the int64_t fast path and the
/// Int128 retry tier (the widening ladder). The wide twins are built
/// only when a 64-bit computation overflows and widening is enabled,
/// and reuse narrow results wherever those did not overflow — a wide
/// system is the widened narrow system, not a recomputation.
class PipelineContext {
public:
  PipelineContext(const DependenceProblem &Problem,
                  const std::vector<XAffine> &ExtraLe0,
                  const CascadeOptions &Opts)
      : Problem(Problem), ExtraLe0(ExtraLe0), Opts(Opts) {}

  const DependenceProblem &problem() const { return Problem; }
  const std::vector<XAffine> &extraLe0() const { return ExtraLe0; }
  const CascadeOptions &options() const { return Opts; }

  /// Readiness of the shared free-space system.
  enum class Prep {
    Ready,      ///< System over the free variables is available.
    Infeasible, ///< The equations alone have no integer solution.
    Overflow,   ///< Preprocessing overflowed (attributed to "gcd").
  };

  /// Extended-GCD solution of the subscript equations at width T
  /// (lazy). The wide instantiation widens the narrow solution when
  /// that one did not overflow, and re-solves at 128 bits otherwise.
  template <typename T> const DiophantineSolutionT<T> &solutionT();

  /// Builds (lazily) the bounds + ExtraLe0 system over the free
  /// variables at width T and reports its readiness.
  template <typename T> Prep prepT();

  /// The free-space system at width T. \pre prepT<T>() == Prep::Ready.
  template <typename T> const LinearSystemT<T> &systemT();

  /// The SVPC classification of systemT<T>() (lazy).
  /// \pre prepT<T>() == Prep::Ready.
  template <typename T> const SvpcResultT<T> &svpcPassT();

  /// The acyclic stage's width-T outcome, when that tier ran earlier in
  /// the pipeline.
  template <typename T> const AcyclicResultT<T> *acyclicOutcomeT() const {
    const std::optional<AcyclicResultT<T>> &A = arts<T>().Acyclic;
    return A ? &*A : nullptr;
  }
  template <typename T> void setAcyclicOutcomeT(AcyclicResultT<T> R) {
    arts<T>().Acyclic = std::move(R);
  }

  /// The stage whose 64-bit *preprocessing* overflowed, when
  /// prepT<int64_t>() == Prep::Overflow (always the extended-GCD stage:
  /// attribution must not depend on which stage triggered the lazy
  /// computation, or permutations would disagree). The same rule
  /// attributes widening provenance when the wide tier rescued a query
  /// whose narrow preprocessing overflowed.
  std::optional<TestKind> prepOverflowStage() const {
    if (narrowPrepOverflowed())
      return TestKind::GcdTest;
    return std::nullopt;
  }

  /// True when any 64-bit preprocessing artifact overflowed (whether or
  /// not a wide twin later succeeded).
  bool narrowPrepOverflowed() const {
    return (Narrow.Solution && Narrow.Solution->Overflow) ||
           Narrow.SystemOverflow;
  }

  /// Maps a width-T free-space sample back to a 64-bit x-space witness
  /// (nullopt when reconstruction overflows or the wide witness does
  /// not fit; the qualitative answer stays exact).
  template <typename T>
  std::optional<std::vector<int64_t>>
  witnessFromT(const std::vector<T> &TSample);

private:
  /// The lazy artifact set of one widening tier.
  template <typename T> struct Artifacts {
    std::optional<DiophantineSolutionT<T>> Solution;
    bool SystemBuilt = false;
    bool SystemOverflow = false;
    std::optional<LinearSystemT<T>> System;
    std::optional<SvpcResultT<T>> Svpc;
    std::optional<AcyclicResultT<T>> Acyclic;
  };

  template <typename T> Artifacts<T> &arts() {
    if constexpr (std::is_same_v<T, Int128>)
      return Wide;
    else
      return Narrow;
  }
  template <typename T> const Artifacts<T> &arts() const {
    if constexpr (std::is_same_v<T, Int128>)
      return Wide;
    else
      return Narrow;
  }

  const DependenceProblem &Problem;
  const std::vector<XAffine> &ExtraLe0;
  const CascadeOptions &Opts;

  Artifacts<int64_t> Narrow;
  Artifacts<Int128> Wide;
};

/// One pluggable dependence test. Implementations are stateless
/// singletons owned by the registry; all per-query state lives in the
/// PipelineContext.
class DependenceTest {
public:
  virtual ~DependenceTest() = default;

  /// Spec-string token ("svpc", "fm", ...).
  virtual const char *name() const = 0;
  /// Column label for the paper-table benches ("SVPC", "F-M", ...).
  virtual const char *label() const = 0;
  /// One-line description for `edda-cli --list-tests`.
  virtual const char *description() const = 0;
  /// The stage's identity: the stats bucket it decides into and its
  /// index in stageRegistry().
  virtual TestKind kind() const = 0;
  /// False for the inexact baselines (their Unknown answers assume
  /// dependence instead of proving it).
  virtual bool exact() const = 0;

  /// Cheap applicability screen. May consult the context's lazy shared
  /// state (each artifact is computed at most once per query).
  virtual bool applicable(PipelineContext &Ctx) const = 0;

  /// Runs the test. Called only when applicable() returned true.
  virtual StageResult run(PipelineContext &Ctx) const = 0;
};

/// All registered stages, in TestKind (= default cascade) order, so a
/// stage's kind() indexes this vector.
const std::vector<const DependenceTest *> &stageRegistry();

/// Looks a stage up by spec token; nullptr when unknown.
const DependenceTest *findStage(std::string_view Name);

/// The registered stage that decides into \p Kind; nullptr for
/// TestKind::Unanalyzable. Single source of truth for table headers.
const DependenceTest *stageForKind(TestKind Kind);

/// The const stage's rule (paper section 4) for a question whose
/// subscript equations are all constant: Independent when some
/// difference is nonzero or some loop has a constant empty range;
/// otherwise Dependent when the loops are assumed to execute
/// (CascadeOptions::AssumeNonEmptyLoops), else NotApplicable, and the
/// later stages decide bounds feasibility.
StageResult::Status arrayConstantRule(bool NonzeroDifference,
                                      bool ConstantEmptyLoop,
                                      const CascadeOptions &Opts);

/// Trace record for one stage of one query.
struct StageTrace {
  const DependenceTest *Stage = nullptr;
  bool Applicable = false;
  /// What the stage returned; notApplicable() when it was skipped. A
  /// decided Independent/Dependent is exact (even from the Banerjee
  /// stage, whose Independent answers are sound); only Unknown is not.
  StageResult Result;
  /// Wall-clock spent in applicable() + run(), nanoseconds.
  uint64_t Nanos = 0;
};

/// Trace of one full pipeline run.
struct PipelineTrace {
  std::vector<StageTrace> Stages;
  /// Human-readable multi-line rendering (indented by \p Indent).
  std::string str(unsigned Indent = 0) const;
};

/// An ordered selection of registered stages.
class TestPipeline {
public:
  /// The paper's cascade: const,gcd,svpc,acyclic,residue,fm.
  static const TestPipeline &defaultPipeline();

  /// Parses a comma-separated spec ("gcd,svpc,fm", "banerjee", or
  /// "default"). On failure returns nullopt and, when \p Error is
  /// non-null, an actionable message naming the valid stages.
  static std::optional<TestPipeline> parse(std::string_view Spec,
                                           std::string *Error = nullptr);

  const std::vector<const DependenceTest *> &stages() const {
    return Stages;
  }

  /// Canonical spec string (round-trips through parse()).
  std::string spec() const;

  /// Runs the pipeline on one problem. Decision counters land in
  /// \p Stats and per-stage records in \p Trace when provided. Stage
  /// timing is measured only when tracing.
  CascadeResult run(const DependenceProblem &Problem,
                    const std::vector<XAffine> &ExtraLe0,
                    const CascadeOptions &Opts = {},
                    DepStats *Stats = nullptr,
                    PipelineTrace *Trace = nullptr) const;

  /// Decides an all-constant question without a built problem, exactly
  /// as run() would on it, recording the same counters in \p Stats.
  /// std::nullopt when run() would go past its first stage: the
  /// pipeline does not start with const, or the rule is not applicable.
  std::optional<CascadeResult> runConstant(bool NonzeroDifference,
                                           bool ConstantEmptyLoop,
                                           const CascadeOptions &Opts,
                                           DepStats *Stats) const;

private:
  std::vector<const DependenceTest *> Stages;
};

/// Shared-ownership convenience for options structs.
std::shared_ptr<const TestPipeline> makePipeline(std::string_view Spec,
                                                 std::string *Error
                                                 = nullptr);

} // namespace edda

#endif // EDDA_DEPTEST_TESTPIPELINE_H
