//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads. Each generates its fixed input list from the
/// seed, runs it (untraced: in best-of rounds; traced: once, through
/// the replay), checks every answer against an independent reference
/// outside the timed region, and fills a RunRecord. README.md says why
/// each workload exists and which layers it loads or bypasses.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_PERFBENCH_WORKLOADS_H
#define EDDA_PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include "analysis/Analyzer.h"
#include "deptest/Stats.h"

#include <optional>

namespace perfbench {

/// Rounds of the untraced runs (see Measure.h, BestOf).
constexpr unsigned NumRounds = 5;
/// Set-ups timed before each round; setup_s is the median of all of them.
constexpr unsigned SetupsPerRound = 3;

/// Work per run scales with --seconds: an input list sized to take
/// roughly that long in NumRounds rounds on the reference host. The
/// list is a pure function of (seed, seconds), never of elapsed time.
size_t scaledCount(unsigned Seconds, double PerSecond);

/// Span name of a cascade call, by the stage that decided it.
const char *cascadeSpanName(edda::TestKind Kind);

/// Adds a DepStats block to the deterministic counters.
void addStatsCounters(const edda::DepStats &S, RunRecord &Rec);

/// Times one testDependence call as a span named by the stage that
/// decided it, and charges the widened-tier and FM-work aggregates.
edda::CascadeResult tracedCascade(Tracer &T, uint32_t Op,
                                  const edda::DependenceProblem &P,
                                  const edda::CascadeOptions &CO,
                                  edda::DepStats &Stats);

/// Replays \p R's pairs over \p Prog — a fresh parse of the program
/// \p A analyzed into \p R — through the public calls analyze() makes
/// (prepass, reference enumeration, build, memo lookup, cascade or
/// direction refinement, insert), in pair order and against \p Cache,
/// timing each call as a span. Returns the first difference from
/// analyze()'s answers, direction vectors or memo counters. The replay
/// restates DependenceAnalyzer::decideTestedPair's memo policy and must
/// change with it.
std::optional<std::string> replayProgram(Tracer &T, uint32_t Op,
                                         edda::Program &Prog,
                                         const edda::AnalysisResult &R,
                                         edda::DependenceAnalyzer &A,
                                         edda::DependenceCache &Cache);

RunRecord runSuiteCompile(const Config &C);
RunRecord runServeSession(const Config &C);

} // namespace perfbench

#endif // EDDA_PERFBENCH_WORKLOADS_H
