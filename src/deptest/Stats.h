//===- deptest/Stats.h - Dependence test statistics ------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters underlying the paper's Tables 1-5 and 7: how often each test
/// in the cascade decides a problem, how often each returns independent,
/// and how much the memoization tables absorb.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_STATS_H
#define EDDA_DEPTEST_STATS_H

#include <array>
#include <cstdint>
#include <string>

namespace edda {

/// Which mechanism decided a dependence question. Order matches the
/// cascade (and the columns of the paper's Table 1).
enum class TestKind {
  ArrayConstant,  ///< All-constant subscripts: no dependence testing.
  GcdTest,        ///< Extended GCD proved independence.
  Svpc,           ///< Single Variable Per Constraint test.
  Acyclic,        ///< Acyclic test.
  LoopResidue,    ///< Simple Loop Residue test.
  FourierMotzkin, ///< Backup Fourier-Motzkin test.
  Banerjee,       ///< Inexact section 7 baseline (pipeline stage).
  Unanalyzable,   ///< Overflow / non-affine input: conservative answer.
};

constexpr unsigned NumTestKinds = 8;

/// Printable name of a test kind.
const char *testKindName(TestKind Kind);

/// The Fourier-Motzkin stage's work accounting (docs/ALGORITHMS.md
/// section 13). One record carries it from the stage's result through
/// the trace into the run's totals.
struct FmCounters {
  /// Fourier-Motzkin work performed (combine operations plus splinter
  /// subproblems, across both arithmetic tiers — the units elimination
  /// cost actually scales with). Solves the witness guess settles
  /// outright and shared-result hits charge nothing. This is the work
  /// metric the direction hierarchy budgets against — see
  /// DirectionOptions::MaxRefineFmWork.
  uint64_t FmWork = 0;
  /// Non-exact eliminations settled by the shadow decomposition alone,
  /// splinter subproblems solved, redundant inequalities pruned, and FM
  /// queries served from the per-query sharing table.
  uint64_t FmDarkShadowExact = 0;
  uint64_t FmSplinters = 0;
  uint64_t FmRedundantPruned = 0;
  uint64_t FmShareHits = 0;

  FmCounters &operator+=(const FmCounters &RHS) {
    FmWork += RHS.FmWork;
    FmDarkShadowExact += RHS.FmDarkShadowExact;
    FmSplinters += RHS.FmSplinters;
    FmRedundantPruned += RHS.FmRedundantPruned;
    FmShareHits += RHS.FmShareHits;
    return *this;
  }
};

/// Aggregated counters for one analysis run.
struct DepStats : FmCounters {
  /// Problems decided by each test.
  std::array<uint64_t, NumTestKinds> Decided{};
  /// Of those, how many were decided independent (section 7 reports the
  /// per-test independence rates).
  std::array<uint64_t, NumTestKinds> DecidedIndependent{};

  /// Provenance, indexed by the stage's TestKind. StageOverflow records
  /// which stage's arithmetic gave up on queries that end Unanalyzable
  /// (provenance the single Unanalyzable bucket cannot carry).
  /// StageWiden mirrors it for the 128-bit retry tier: which stage's
  /// 64-bit arithmetic overflowed on queries the wide tier then decided
  /// (preprocessing widening is the GCD stage's, like its overflows).
  std::array<uint64_t, NumTestKinds> StageOverflow{};
  std::array<uint64_t, NumTestKinds> StageWiden{};

  /// Memoization accounting (paper section 5 / Table 2).
  uint64_t Queries = 0;          ///< Dependence questions asked.
  uint64_t MemoHitsFull = 0;     ///< Served from the with-bounds table.
  uint64_t MemoHitsNoBounds = 0; ///< GCD outcome served from the
                                 ///< without-bounds table.
  uint64_t WidenedQueries = 0;   ///< Decided only after the 128-bit
                                 ///< retry (64-bit overflowed).

  void recordDecision(TestKind Kind, bool Independent) {
    ++Decided[static_cast<unsigned>(Kind)];
    if (Independent)
      ++DecidedIndependent[static_cast<unsigned>(Kind)];
  }

  uint64_t decided(TestKind Kind) const {
    return Decided[static_cast<unsigned>(Kind)];
  }
  uint64_t decidedIndependent(TestKind Kind) const {
    return DecidedIndependent[static_cast<unsigned>(Kind)];
  }

  /// Total problems decided by any real test (excludes memo hits).
  uint64_t totalDecided() const;

  using FmCounters::operator+=;
  DepStats &operator+=(const DepStats &RHS);

  /// Multi-line human-readable dump.
  std::string str() const;
};

} // namespace edda

#endif // EDDA_DEPTEST_STATS_H
