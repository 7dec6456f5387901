//===- tests/analysis/AllocationCountTest.cpp - Heap blocks per pass ------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// Counts the heap allocations of one pass over the 13 PERFECT Club
/// programs in the table-3 configuration (a fresh serial analyzer per
/// program, directions off): parseProgram, collectReferences on the
/// prepassed program, and analyze() without its prepass; then of
/// analyze() with directions on, by a fresh analyzer and again by the
/// same analyzer once its memo is warm. The counting global operator
/// new is why this test is an executable of its own.
///
/// The counts are deterministic for a given standard library; the
/// bounds leave headroom over them so a sanitizer or debug build passes
/// too. A count past its bound means a per-pair or per-reference heap
/// block came back.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "opt/Pipeline.h"
#include "parser/Parser.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};
} // namespace

// The array and nothrow forms forward to these in libstdc++; the
// aligned forms keep their own and are not counted.
void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace edda;

namespace {

/// Allocations made while running \p F.
template <typename Fn> uint64_t allocationsOf(Fn &&F) {
  const uint64_t Before = Allocations.load(std::memory_order_relaxed);
  F();
  return Allocations.load(std::memory_order_relaxed) - Before;
}

} // namespace

TEST(AllocationCount, SuitePass) {
  const auto Suite = generatePerfectClubSuite(GeneratorOptions());
  ASSERT_EQ(Suite.size(), 13u);
  AnalyzerOptions Opts; // The table-3 configuration.
  Opts.ComputeDirections = false;
  Opts.RunPrepass = false;
  uint64_t Parse = 0, Refs = 0, Analyze = 0, Pairs = 0;
  for (const auto &[Name, Source] : Suite) {
    ParseResult Parsed;
    Parse += allocationsOf([&] { Parsed = parseProgram(Source); });
    ASSERT_TRUE(Parsed.succeeded()) << Name;
    Program &Prog = *Parsed.Prog;
    runPrepass(Prog);
    Refs += allocationsOf([&] { (void)collectReferences(Prog); });
    DependenceAnalyzer Analyzer(Opts);
    Analyze += allocationsOf(
        [&] { Pairs += Analyzer.analyze(Prog).PairsConsidered; });
  }
  std::printf("allocations per suite pass: parseProgram %llu, "
              "collectReferences %llu, analyze() %llu (%llu pairs)\n",
              static_cast<unsigned long long>(Parse),
              static_cast<unsigned long long>(Refs),
              static_cast<unsigned long long>(Analyze),
              static_cast<unsigned long long>(Pairs));
  EXPECT_EQ(Pairs, 17940u);
  EXPECT_LE(Parse, 75000u);
  EXPECT_LE(Refs, 170u);
  EXPECT_LE(Analyze, 23500u);
}

TEST(AllocationCount, SuitePassWithDirections) {
  const auto Suite = generatePerfectClubSuite(GeneratorOptions());
  AnalyzerOptions Opts;
  Opts.ComputeDirections = true;
  Opts.RunPrepass = false;
  uint64_t Cold = 0, Warm = 0;
  for (const auto &[Name, Source] : Suite) {
    ParseResult Parsed = parseProgram(Source);
    ASSERT_TRUE(Parsed.succeeded()) << Name;
    Program &Prog = *Parsed.Prog;
    runPrepass(Prog);
    DependenceAnalyzer Analyzer(Opts);
    Cold += allocationsOf([&] { (void)Analyzer.analyze(Prog); });
    Warm += allocationsOf([&] { (void)Analyzer.analyze(Prog); });
  }
  std::printf("allocations per directions-on suite pass: analyze() %llu "
              "cold, %llu warm\n",
              static_cast<unsigned long long>(Cold),
              static_cast<unsigned long long>(Warm));
  EXPECT_LE(Cold, 170000u);
  EXPECT_LE(Warm, 80000u);
}
