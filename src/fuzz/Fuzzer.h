//===- fuzz/Fuzzer.h - Seeded differential fuzzer --------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edda-fuzz engine: generates random DependenceProblems and whole
/// LoopLang programs from a seed and cross-checks the analysis stack
/// along the differential axes registered in fuzzAxes() (Fuzzer.cpp
/// documents each axis on its entry).
///
/// Adding an axis is one table entry: a name, a check on a problem
/// and/or on a program, and the planted bugs only that axis must catch.
/// A check returns a mismatch detail, or nullopt when the axis agrees,
/// and it is also the axis's shrink predicate: the runner checks every
/// enabled axis on every input, shrinks a failing input while the same
/// check still fails, re-checks the shrunk input for its detail and
/// reports it.
///
/// Every run is a pure function of the seed: iteration i derives its
/// own SplitRng stream, so `--seed S` reproduces exactly and a failure
/// report names the iteration. Failures are delta-debugged (see
/// Shrink.h) into minimal `.dep`/`.loop` reproducers suitable for
/// tests/inputs/corpus/.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_FUZZ_FUZZER_H
#define EDDA_FUZZ_FUZZER_H

#include "analysis/Analyzer.h"
#include "analysis/Search.h"
#include "fuzz/ProblemGen.h"
#include "oracle/Oracle.h"
#include "workload/Generator.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace edda {
namespace fuzz {

struct FuzzOptions {
  uint64_t Seed = 1;
  /// Iterations to run; 0 means until the time budget expires (or a
  /// default of 5000 iterations when no budget is set either).
  uint64_t Count = 0;
  /// Wall-clock budget in seconds; 0 disables.
  double TimeBudgetSeconds = 0;
  /// Directory for minimized reproducers; empty writes none.
  std::string OutDir;
  /// Thread count for the parallel-analyzer axis.
  unsigned Threads = 4;
  /// Names of the fuzzAxes() entries to run; empty runs every axis.
  std::set<std::string> Axes;
  /// Length cap of the random edit sequence each program iteration
  /// draws (1..MaxEdits edits) for the axes that replay edits.
  unsigned MaxEdits = 4;
  /// Run every cascade under test with the 128-bit widening ladder
  /// enabled. False reproduces the historical 64-bit-only behavior on
  /// all axes (and makes the widen axis vacuous — there is nothing to
  /// differ against).
  bool Widen = true;
  /// Stop after this many failures.
  unsigned MaxFailures = 8;
  /// Name of a planted bug (an entry of some axis's Bugs); empty plants
  /// none.
  std::string Bug;
  FuzzProblemOptions Problem;
  RandomProgramOptions Program;
  /// Every Nth iteration generates a whole program instead of a bare
  /// problem (the program axes need programs).
  unsigned ProgramEvery = 8;
};

/// One confirmed, minimized mismatch.
struct FuzzFailure {
  std::string Axis; ///< The failing axis's name.
  uint64_t Iteration = 0;
  std::string Detail;     ///< Human-readable mismatch description.
  std::string Reproducer; ///< Minimized .dep / .loop text.
  bool IsProgram = false;
  std::string Path; ///< File written under OutDir (empty when none).
  /// Edit-replaying failures: edits remaining after shrinking (the
  /// seeds are embedded in the reproducer's "# edda-fuzz-edits:" line).
  unsigned Edits = 0;
};

struct FuzzSummary {
  uint64_t Iterations = 0;
  uint64_t Problems = 0;
  uint64_t Programs = 0;
  /// Problem iterations where enumeration (or the sampled grid) was
  /// conclusive — the denominator of real oracle coverage.
  uint64_t OracleConclusive = 0;
  /// Same denominator for the direction/distance axis.
  uint64_t DirsConclusive = 0;
  std::vector<FuzzFailure> Failures;

  bool ok() const { return Failures.empty(); }
};

/// The options of the computations under test. Each check runs what it
/// audits under these, and a planted bug perturbs one of them; the
/// oracle and every from-scratch baseline ignore them, so a planted (or
/// real) defect cannot hide behind a self-consistent wrong answer.
struct FuzzSubject {
  /// Applied to each problem before the cascade under test sees it.
  void (*Perturb)(DependenceProblem &) = nullptr;
  CascadeOptions Cascade;
  DirectionOptions Direction;
  AnalyzerOptions Analyzer; ///< The incremental session's options.
  SearchOptions Search;
};

/// What every check reads besides its input.
struct FuzzContext {
  /// Takes Widen, Threads and the planted bug from \p Opts.
  explicit FuzzContext(const FuzzOptions &Opts = {});

  bool Widen = true;
  unsigned Threads = 4;
  FuzzSubject Subject;
  oracle::OracleOptions Oracle;
  oracle::SymbolicOracleOptions Symbolic;
};

/// One problem as the problem checks see it.
class ProblemCase {
public:
  ProblemCase(const DependenceProblem &P, const FuzzContext &Ctx);

  const DependenceProblem &P; ///< Honest: the oracle judges this one.
  DependenceProblem UnderTest; ///< P as the subject perturbs it.
  const FuzzContext &Ctx;

  /// The cascade under test on UnderTest. Computed on first use, so one
  /// problem iteration runs it once for every axis that reads it.
  const CascadeResult &result() const;

private:
  mutable std::optional<CascadeResult> Result;
};

/// One program as the program checks see it.
class ProgramCase {
public:
  ProgramCase(std::string Source, std::vector<uint64_t> Edits,
              const FuzzContext &Ctx);

  std::string Source;
  /// Seeds of a random edit sequence (workload/Generator.h
  /// applyRandomEdit), one per edit, for the axes that replay edits.
  std::vector<uint64_t> Edits;
  const FuzzContext &Ctx;
  std::optional<Program> Prog; ///< Source parsed; empty if it fails.
  std::string ParseError;      ///< First diagnostic when Prog is empty.

  /// A serial whole-program analysis of Prog with directions, and the
  /// analyzer whose cache holds its answers. Computed on first use and
  /// shared by the axes that compare against it.
  struct SerialRun {
    std::unique_ptr<DependenceAnalyzer> Analyzer;
    AnalysisResult Result;
  };
  SerialRun &serial() const;

private:
  mutable std::unique_ptr<SerialRun> Serial;
};

/// A deliberate defect planted in the computation under test
/// (edda-fuzz --inject-bug=NAME), proving that the axis owning it
/// catches and shrinks real mismatches.
struct PlantedBug {
  const char *Name;
  void (*Plant)(FuzzSubject &);
};

/// One differential axis.
struct FuzzAxisSpec {
  const char *Name;
  /// The check on a problem; \p Variant counts up to Variants, and
  /// \p Conclusive reports whether the enumeration oracle had
  /// jurisdiction. Null when the axis takes no problems.
  std::optional<std::string> (*Problem)(const ProblemCase &,
                                        unsigned Variant,
                                        bool &Conclusive) = nullptr;
  /// The check on a program. Only always-on axes see programs that do
  /// not parse. Null when the axis takes no programs.
  std::optional<std::string> (*Program)(const ProgramCase &) = nullptr;
  /// The planted bugs this axis must catch with no other axis enabled.
  std::vector<PlantedBug> Bugs = {};
  /// Independent variants of the problem check, each reported (and
  /// shrunk) on its own.
  unsigned Variants = 1;
  /// When set, the runner checks problems in batches of 32 through this
  /// instead of one by one (it returns one detail slot per problem);
  /// Problem is then the single-problem form, used to shrink.
  std::vector<std::optional<std::string>> (*ProblemBatch)(
      const std::vector<DependenceProblem> &, const FuzzContext &) = nullptr;
  /// The summary counter of problems where the oracle was conclusive.
  uint64_t FuzzSummary::*Conclusive = nullptr;
  /// The program check replays ProgramCase::Edits: a failure shrinks
  /// the edit sequence before the source, and the reproducer records
  /// the surviving seeds.
  bool Edits = false;
  /// Runs whatever Axes selects (and is not selectable by name).
  bool AlwaysOn = false;
};

/// Every axis, in the order the runner checks them.
const std::vector<FuzzAxisSpec> &fuzzAxes();
const FuzzAxisSpec *findFuzzAxis(std::string_view Name);
const PlantedBug *findPlantedBug(std::string_view Name);

/// Runs the fuzzer. Deterministic in Opts.Seed (iteration counts under
/// a pure time budget excepted). Progress lines go to \p Log when
/// non-null.
FuzzSummary runFuzz(const FuzzOptions &Opts, std::ostream *Log = nullptr);

} // namespace fuzz
} // namespace edda

#endif // EDDA_FUZZ_FUZZER_H
