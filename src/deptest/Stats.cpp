//===- deptest/Stats.cpp - Dependence test statistics ---------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Stats.h"

#include "deptest/TestPipeline.h"

using namespace edda;

const char *edda::testKindName(TestKind Kind) {
  switch (Kind) {
  case TestKind::ArrayConstant:
    return "Constant";
  case TestKind::GcdTest:
    return "GCD";
  case TestKind::Svpc:
    return "SVPC";
  case TestKind::Acyclic:
    return "Acyclic";
  case TestKind::LoopResidue:
    return "LoopResidue";
  case TestKind::FourierMotzkin:
    return "Fourier-Motzkin";
  case TestKind::Banerjee:
    return "Banerjee";
  case TestKind::Unanalyzable:
    return "Unanalyzable";
  }
  return "unknown";
}

uint64_t DepStats::totalDecided() const {
  uint64_t Total = 0;
  for (uint64_t Count : Decided)
    Total += Count;
  return Total;
}

DepStats &DepStats::operator+=(const DepStats &RHS) {
  for (unsigned K = 0; K < NumTestKinds; ++K) {
    Decided[K] += RHS.Decided[K];
    DecidedIndependent[K] += RHS.DecidedIndependent[K];
    StageOverflow[K] += RHS.StageOverflow[K];
    StageWiden[K] += RHS.StageWiden[K];
  }
  Queries += RHS.Queries;
  MemoHitsFull += RHS.MemoHitsFull;
  MemoHitsNoBounds += RHS.MemoHitsNoBounds;
  WidenedQueries += RHS.WidenedQueries;
  *this += static_cast<const FmCounters &>(RHS);
  return *this;
}

std::string DepStats::str() const {
  std::string Out;
  for (unsigned K = 0; K < NumTestKinds; ++K) {
    if (Decided[K] == 0)
      continue;
    Out += std::string(testKindName(static_cast<TestKind>(K))) + ": " +
           std::to_string(Decided[K]) + " decided, " +
           std::to_string(DecidedIndependent[K]) + " independent\n";
  }
  auto PerStage = [&Out](const char *What,
                         const std::array<uint64_t, NumTestKinds> &Counts) {
    for (unsigned K = 0; K < NumTestKinds; ++K)
      if (Counts[K] != 0)
        Out += std::string(What) + " in stage '" +
               stageForKind(static_cast<TestKind>(K))->name() +
               "': " + std::to_string(Counts[K]) + "\n";
  };
  PerStage("overflow", StageOverflow);
  PerStage("widened", StageWiden);
  Out += "queries: " + std::to_string(Queries) +
         ", memo hits (full): " + std::to_string(MemoHitsFull) +
         ", memo hits (no bounds): " + std::to_string(MemoHitsNoBounds) +
         ", widened: " + std::to_string(WidenedQueries) + "\n";
  Out += "fm work: " + std::to_string(FmWork) +
         ", dark-shadow decided: " + std::to_string(FmDarkShadowExact) +
         ", splinters: " + std::to_string(FmSplinters) +
         ", redundant pruned: " + std::to_string(FmRedundantPruned) +
         ", share hits: " + std::to_string(FmShareHits) + "\n";
  return Out;
}
