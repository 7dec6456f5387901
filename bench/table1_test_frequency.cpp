//===- bench/table1_test_frequency.cpp - Paper Table 1 --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 1: the number of times each cascade test decides a
/// dependence question, per program, with memoization and direction
/// vectors off. The shape to reproduce: array constants and SVPC
/// dominate; Acyclic, Loop Residue and Fourier-Motzkin together decide
/// only a few percent of the questions; no question is left unanswered.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace edda;
using namespace edda::bench;

int main() {
  AnalyzerOptions AOpts;
  AOpts.UseMemoization = false;
  AOpts.ComputeDirections = false;
  GeneratorOptions GOpts;

  std::vector<ProgramRun> Runs = runSuite(AOpts, GOpts);

  std::printf("Table 1: number of times each test decided a question "
              "(measured|paper)\n");
  std::printf("Suite: synthetic PERFECT Club (see DESIGN.md "
              "substitutions)\n\n");
  std::printf("%-4s %6s %12s %12s %12s %12s %12s %12s\n", "Prog",
              "Lines", stageHeader(TestKind::ArrayConstant),
              stageHeader(TestKind::GcdTest),
              stageHeader(TestKind::Svpc),
              stageHeader(TestKind::Acyclic),
              stageHeader(TestKind::LoopResidue),
              stageHeader(TestKind::FourierMotzkin));
  rule(100);

  DepStats Total;
  DecisionTargets PaperTotal;
  for (const ProgramRun &Run : Runs) {
    const DecisionTargets &T = Run.Profile->Table1;
    const DepStats &S = Run.Result.Stats;
    std::printf(
        "%-4s %6u  %s  %s  %s  %s  %s  %s\n",
        Run.Profile->Name.c_str(), Run.Profile->Lines,
        cell(S.decided(TestKind::ArrayConstant), T.Constant).c_str(),
        cell(S.decided(TestKind::GcdTest), T.Gcd).c_str(),
        cell(S.decided(TestKind::Svpc), T.Svpc).c_str(),
        cell(S.decided(TestKind::Acyclic), T.Acyclic).c_str(),
        cell(S.decided(TestKind::LoopResidue), T.Residue).c_str(),
        cell(S.decided(TestKind::FourierMotzkin), T.Fm).c_str());
    Total += S;
    PaperTotal.Constant += T.Constant;
    PaperTotal.Gcd += T.Gcd;
    PaperTotal.Svpc += T.Svpc;
    PaperTotal.Acyclic += T.Acyclic;
    PaperTotal.Residue += T.Residue;
    PaperTotal.Fm += T.Fm;
  }
  rule(100);
  std::printf(
      "%-4s %6s  %s  %s  %s  %s  %s  %s\n", "TOT", "",
      cell(Total.decided(TestKind::ArrayConstant), PaperTotal.Constant)
          .c_str(),
      cell(Total.decided(TestKind::GcdTest), PaperTotal.Gcd).c_str(),
      cell(Total.decided(TestKind::Svpc), PaperTotal.Svpc).c_str(),
      cell(Total.decided(TestKind::Acyclic), PaperTotal.Acyclic).c_str(),
      cell(Total.decided(TestKind::LoopResidue), PaperTotal.Residue)
          .c_str(),
      cell(Total.decided(TestKind::FourierMotzkin), PaperTotal.Fm)
          .c_str());

  std::printf("\nUnanalyzable pairs: %llu (must be 0)\n",
              static_cast<unsigned long long>(
                  Total.decided(TestKind::Unanalyzable)));
  // The PERFECT-style suite has modest coefficients, so the 128-bit
  // widening ladder must never fire here; a nonzero count means the
  // 64-bit fast path regressed.
  std::printf("Widened queries: %llu (64-bit fast path must stay 0)\n",
              static_cast<unsigned long long>(Total.WidenedQueries));
  std::printf("Shape check: SVPC decides %.1f%% of the non-constant "
              "exact tests (paper: %.1f%%)\n",
              100.0 * Total.decided(TestKind::Svpc) /
                  (Total.decided(TestKind::Svpc) +
                   Total.decided(TestKind::Acyclic) +
                   Total.decided(TestKind::LoopResidue) +
                   Total.decided(TestKind::FourierMotzkin)),
              100.0 * 5176 / (5176 + 323 + 6 + 174));
  return 0;
}
