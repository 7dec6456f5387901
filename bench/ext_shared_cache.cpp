//===- bench/ext_shared_cache.cpp - Cross-program cache extension ---------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the paper's section 5 suggestion that went beyond what it
/// measured: "if there is similarity across programs, one could use a
/// set of benchmarks to set up a standard table which would be used by
/// all programs", and "store the hash table across compilations". Three
/// configurations over the whole suite:
///
///   per-program caches   — the paper's measured setup (Table 3);
///   one shared cache     — programs reuse each other's answers;
///   warm persisted cache — a second full compilation of the suite
///                          starting from the first run's saved table;
///   parallel shared cache — the shared-cache compilation fanned out
///                          across 1/2/4/8 worker threads; hit counts
///                          must not change with the thread count.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "opt/Pipeline.h"
#include "parser/Parser.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

using namespace edda;
using namespace edda::bench;

namespace {

uint64_t exactTests(const DepStats &S) {
  return S.decided(TestKind::Svpc) + S.decided(TestKind::Acyclic) +
         S.decided(TestKind::LoopResidue) +
         S.decided(TestKind::FourierMotzkin);
}

/// Analyzes the whole suite through one analyzer (sharing its cache);
/// returns the accumulated stats and optionally the wall-clock cost.
DepStats runShared(DependenceAnalyzer &Analyzer,
                   const GeneratorOptions &GOpts,
                   uint64_t *Micros = nullptr) {
  auto T0 = std::chrono::steady_clock::now();
  DepStats Total;
  for (const ProgramProfile &Profile : perfectClubProfiles()) {
    std::string Source = generateProgramSource(Profile, GOpts);
    ParseResult Parsed = parseProgram(Source);
    if (!Parsed.succeeded())
      std::exit(1);
    Program Prog = std::move(*Parsed.Prog);
    Total += Analyzer.analyze(Prog).Stats;
  }
  if (Micros)
    *Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  return Total;
}

} // namespace

int main() {
  GeneratorOptions GOpts;
  AnalyzerOptions AOpts;

  // Per-program caches (the paper's Table 3 configuration).
  DepStats PerProgram;
  for (const ProgramRun &Run : runSuite(AOpts, GOpts))
    PerProgram += Run.Result.Stats;

  // One shared cache across the suite.
  DependenceAnalyzer Shared(AOpts);
  DepStats SharedStats = runShared(Shared, GOpts);

  // Persist and recompile warm. The file is unique to this process, so
  // concurrent runs (say, two build trees' test suites) never remove or
  // overwrite each other's table.
  std::string CachePath =
      (std::filesystem::temp_directory_path() /
       ("edda_shared_cache." + std::to_string(getpid())))
          .string();
  DependenceAnalyzer Warm(AOpts);
  bool Reloaded = Shared.cache().saveToFile(CachePath) &&
                  Warm.cache().loadFromFile(CachePath);
  std::remove(CachePath.c_str());
  if (!Reloaded) {
    std::fprintf(stderr, "cannot persist and reload cache\n");
    return 1;
  }
  DepStats WarmStats = runShared(Warm, GOpts);

  std::printf("Extension: sharing the memo tables beyond one program "
              "(paper section 5 suggestions)\n\n");
  std::printf("%-34s %14s %14s\n", "configuration", "exact tests",
              "cache hits");
  rule(66);
  std::printf("%-34s %14llu %14llu\n", "per-program caches (Table 3)",
              static_cast<unsigned long long>(exactTests(PerProgram)),
              static_cast<unsigned long long>(PerProgram.MemoHitsFull +
                                              PerProgram.MemoHitsNoBounds));
  std::printf("%-34s %14llu %14llu\n", "one cache across the suite",
              static_cast<unsigned long long>(exactTests(SharedStats)),
              static_cast<unsigned long long>(
                  SharedStats.MemoHitsFull +
                  SharedStats.MemoHitsNoBounds));
  std::printf("%-34s %14llu %14llu\n",
              "recompile with persisted cache",
              static_cast<unsigned long long>(exactTests(WarmStats)),
              static_cast<unsigned long long>(WarmStats.MemoHitsFull +
                                              WarmStats.MemoHitsNoBounds));
  rule(66);
  std::printf("\nCross-program sharing removes %.0f%% of the remaining "
              "tests; a warm cache removes all of them\n",
              100.0 *
                  (exactTests(PerProgram) - exactTests(SharedStats)) /
                  static_cast<double>(exactTests(PerProgram)));

  // The shared-cache compilation again, fanned out across worker
  // threads: the concurrent sharded cache must reproduce the exact
  // same hit counts at every thread count.
  std::printf("\nshared cache under the parallel analyzer\n");
  std::printf("%-10s %12s %14s %14s\n", "threads", "micros",
              "exact tests", "cache hits");
  rule(54);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    AnalyzerOptions ThreadedOpts = AOpts;
    ThreadedOpts.NumThreads = Threads;
    DependenceAnalyzer Threaded(ThreadedOpts);
    uint64_t Micros = 0;
    DepStats Stats = runShared(Threaded, GOpts, &Micros);
    std::printf("%-10u %12llu %14llu %14llu\n", Threads,
                static_cast<unsigned long long>(Micros),
                static_cast<unsigned long long>(exactTests(Stats)),
                static_cast<unsigned long long>(Stats.MemoHitsFull +
                                                Stats.MemoHitsNoBounds));
    if (exactTests(Stats) != exactTests(SharedStats) ||
        Stats.MemoHitsFull + Stats.MemoHitsNoBounds !=
            SharedStats.MemoHitsFull + SharedStats.MemoHitsNoBounds) {
      std::fprintf(stderr,
                   "FAIL: %u-thread shared cache diverged from serial\n",
                   Threads);
      return 1;
    }
  }
  rule(54);
  return 0;
}
