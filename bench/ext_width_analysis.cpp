//===- bench/ext_width_analysis.cpp - Width/coarsening extension ----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the divergence/coarsening client (analysis/Widths.h) on the
/// GPU-kernel suite: every kernel runs through analyzeWidths and the
/// table reports the per-loop safe vectorization widths, coarsening
/// factors, the cascade probes the width search and the boundary scan
/// issued, and wall-clock time. A second pass sweeps every width
/// 2..MaxWidth through the exact canVectorize overload on one shared
/// VectorizeProbeCache per kernel — the monotone interval memo must
/// answer the overwhelming majority of that sweep without touching the
/// cascade, which is the headline reuse claim.
///
/// Invariants checked inline (the bench fails, not just reports):
/// every kernel's widths and factors must equal the closed-form
/// expectations (in particular width > 1 for every stencil/reduction
/// loop with no short carried dependence, the wide-shift stencil at
/// exactly 8, the block-aligned scatter coarsening at exactly 8, and
/// the trip-count-one loop at width 1, never unbounded), every kernel
/// must pass the validateWidths interpreter oracle, and the sweep must
/// answer a strict majority of its probes from the interval memo.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Transforms.h"
#include "analysis/Widths.h"
#include "parser/Parser.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace edda;
using namespace edda::bench;

namespace {

uint64_t microsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

Program parseOrDie(const std::string &Source, const char *What) {
  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.succeeded()) {
    std::fprintf(stderr, "FAIL: %s does not parse\n", What);
    std::exit(1);
  }
  return std::move(*Parsed.Prog);
}

/// Closed-form expectation for one loop, in analyzeWidths walk order.
struct LoopExpect {
  bool Unbounded = false;
  unsigned Width = 1;   // Ignored when Unbounded (clamped to MaxWidth).
  unsigned Coarsen = 0; // 0 = stays serial.
};

struct KernelExpect {
  const char *Name;
  std::vector<LoopExpect> Loops;
};

/// The suite's ground truth (see generateKernelSuite's doc comment);
/// WidthsTest pins the same table at the unit level.
const KernelExpect Expectations[] = {
    {"stencil1d_jacobi", {{true, 0, 1}}},
    {"stencil1d_seidel", {{false, 1, 0}}},
    {"stencil1d_wide", {{false, 8, 0}}},
    {"stencil2d_jacobi", {{true, 0, 1}, {true, 0, 1}}},
    {"stencil2d_star", {{true, 0, 1}, {true, 0, 1}}},
    {"wavefront", {{false, 1, 0}, {true, 0, 1}}},
    {"reduction_sum", {{true, 0, 1}}},
    {"reduction_dot", {{true, 0, 1}}},
    {"gather_stride", {{true, 0, 1}}},
    {"gather_symbolic", {{true, 0, 1}}},
    {"scatter_symbolic", {{false, 1, 0}}},
    {"scatter_fold", {{false, 1, 8}}},
    {"private_tmp", {{true, 0, 1}}},
    {"trip_one", {{false, 1, 1}}},
};

std::string widthStr(const LoopWidthInfo &L) {
  if (L.WidthUnbounded)
    return "unb";
  return std::to_string(L.SafeWidth);
}

std::string joinLoops(const WidthAnalysis &WA,
                      std::string (*Fmt)(const LoopWidthInfo &)) {
  std::string Out;
  for (const LoopWidthInfo &L : WA.Loops) {
    if (!Out.empty())
      Out += ",";
    Out += Fmt(L);
  }
  return Out;
}

} // namespace

int main() {
  const auto Suite = generateKernelSuite();
  if (Suite.size() != sizeof(Expectations) / sizeof(Expectations[0])) {
    std::fprintf(stderr,
                 "FAIL: kernel suite has %zu programs, expected %zu\n",
                 Suite.size(),
                 sizeof(Expectations) / sizeof(Expectations[0]));
    return 1;
  }

  WidthOptions WOpts; // Defaults: MaxWidth 64, MaxCoarsen 64.

  std::printf("Width/coarsening client on the GPU-kernel suite "
              "(max width %u)\n\n",
              WOpts.MaxWidth);
  std::printf("%-18s %5s %-12s %-10s %6s %6s %8s\n", "kernel", "loops",
              "widths", "coarsen", "wprobe", "bprobe", "us");
  rule(72);

  uint64_t TotalWidthProbes = 0, TotalWidthHits = 0;
  uint64_t TotalBoundaryProbes = 0, TotalBoundaryHits = 0;
  uint64_t SweepProbes = 0, SweepHits = 0;
  size_t TotalLoops = 0;
  uint64_t TotalMicros = 0;

  for (size_t K = 0; K < Suite.size(); ++K) {
    const std::string &Name = Suite[K].first;
    const KernelExpect &Expect = Expectations[K];
    if (Name != Expect.Name) {
      std::fprintf(stderr, "FAIL: kernel %zu is %s, expected %s\n", K,
                   Name.c_str(), Expect.Name);
      return 1;
    }

    Program Prog = parseOrDie(Suite[K].second, Name.c_str());
    auto T0 = std::chrono::steady_clock::now();
    WidthAnalysis WA = analyzeWidths(Prog, WOpts);
    uint64_t Micros = microsSince(T0);

    if (WA.Loops.size() != Expect.Loops.size()) {
      std::fprintf(stderr, "FAIL: %s has %zu loops, expected %zu\n",
                   Name.c_str(), WA.Loops.size(), Expect.Loops.size());
      return 1;
    }
    for (size_t I = 0; I < WA.Loops.size(); ++I) {
      const LoopWidthInfo &Got = WA.Loops[I];
      const LoopExpect &Want = Expect.Loops[I];
      if (Got.WidthUnbounded != Want.Unbounded ||
          (!Want.Unbounded && Got.SafeWidth != Want.Width) ||
          Got.CoarsenFactor != Want.Coarsen) {
        std::fprintf(stderr,
                     "FAIL: %s loop %s: width %s coarsen %u, expected "
                     "width %s coarsen %u\n",
                     Name.c_str(), Got.VarName.c_str(),
                     widthStr(Got).c_str(), Got.CoarsenFactor,
                     Want.Unbounded ? "unb"
                                    : std::to_string(Want.Width).c_str(),
                     Want.Coarsen);
        return 1;
      }
    }

    // The interpreter oracle must agree with every claim (chunked
    // re-execution in both lane orders plus trace-mined distances).
    std::string Diag = validateWidths(Prog, WA);
    if (!Diag.empty()) {
      std::fprintf(stderr, "FAIL: %s fails the width oracle: %s\n",
                   Name.c_str(), Diag.c_str());
      return 1;
    }

    // The reuse sweep: ask the exact canVectorize overload every width
    // 2..MaxWidth per loop on one fresh shared cache. The first probe
    // per (edge, level) settles the monotone interval; nearly every
    // later width must land inside it.
    DependenceGraph Graph = DependenceGraph::buildFromResult(WA.Analysis);
    VectorizeProbeCache Cache;
    for (const LoopWidthInfo &L : WA.Loops)
      for (unsigned W = 2; W <= WOpts.MaxWidth; ++W)
        (void)canVectorize(Graph, Prog, L.Loop, W, &Cache);
    SweepProbes += Cache.Probes;
    SweepHits += Cache.Hits;

    TotalWidthProbes += WA.WidthProbes;
    TotalWidthHits += WA.WidthProbeHits;
    TotalBoundaryProbes += WA.BoundaryProbes;
    TotalBoundaryHits += WA.BoundaryProbeHits;
    TotalLoops += WA.Loops.size();
    TotalMicros += Micros;

    std::printf("%-18s %5zu %-12s %-10s %6llu %6llu %8llu\n",
                Name.c_str(), WA.Loops.size(),
                joinLoops(WA, [](const LoopWidthInfo &L) {
                  return widthStr(L);
                }).c_str(),
                joinLoops(WA,
                          [](const LoopWidthInfo &L) {
                            return std::to_string(L.CoarsenFactor);
                          })
                    .c_str(),
                static_cast<unsigned long long>(WA.WidthProbes),
                static_cast<unsigned long long>(WA.BoundaryProbes),
                static_cast<unsigned long long>(Micros));
  }
  rule(72);

  uint64_t SweepQueries = SweepProbes + SweepHits;
  double SweepPct =
      100.0 * SweepHits /
      static_cast<double>(SweepQueries ? SweepQueries : 1);
  std::printf("\nWidth suite: %zu kernels, %zu loops, "
              "%llu width probes (%llu cached), "
              "%llu boundary probes (%llu cached)\n",
              Suite.size(), TotalLoops,
              static_cast<unsigned long long>(TotalWidthProbes),
              static_cast<unsigned long long>(TotalWidthHits),
              static_cast<unsigned long long>(TotalBoundaryProbes),
              static_cast<unsigned long long>(TotalBoundaryHits));
  std::printf("Width suite time: %llu us\n",
              static_cast<unsigned long long>(TotalMicros));
  std::printf("Width sweep reuse: answered %llu of %llu probes from "
              "the interval memo (%.1f%%)\n",
              static_cast<unsigned long long>(SweepHits),
              static_cast<unsigned long long>(SweepQueries),
              SweepPct);

  // The sweep only consults the cascade for unpinned carried
  // distances, so it must both happen (the symbolic scatters force it)
  // and be answered from the memo after the first settling probe.
  if (SweepProbes == 0) {
    std::fprintf(stderr,
                 "FAIL: the width sweep issued no cascade probes — the "
                 "symbolic scatter kernels should force some\n");
    return 1;
  }
  if (SweepHits <= SweepProbes) {
    std::fprintf(stderr,
                 "FAIL: width sweep reuse %.1f%% is not a majority "
                 "(%llu hits vs %llu probes)\n",
                 SweepPct, static_cast<unsigned long long>(SweepHits),
                 static_cast<unsigned long long>(SweepProbes));
    return 1;
  }
  return 0;
}
