//===- perfbench/Main.cpp - The edda benchmark program --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   edda-perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--spans FILE] [--corrupt-answer]
///
/// Runs one workload (Workloads.h) and prints a human-readable report —
/// every metric with its unit and sample count, the deterministic
/// counter block, the slowest ops — followed by one JSON line:
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
/// Exits 1 when any op failed its correctness check, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::string Basis; ///< Sample count and statistic, for the report.
};

double seconds(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

/// Median over chunks of (amount of work / best seconds) — robust both
/// to the host's contention bursts and to heavy-tailed single ops.
double chunkRate(const RunRecord &Rec, const std::vector<uint64_t> &Work,
                 const std::vector<uint64_t> &Ns, size_t &Chunks) {
  std::vector<double> Rates;
  for (size_t B = 0; B < Ns.size(); B += Rec.ChunkOps) {
    uint64_t W = 0, T = 0;
    for (size_t I = B; I < std::min(Ns.size(), B + Rec.ChunkOps); ++I)
      if (Ns[I] != UINT64_MAX) {
        W += Work[I];
        T += Ns[I];
      }
    if (T)
      Rates.push_back(static_cast<double>(W) / seconds(T));
  }
  Chunks = Rates.size();
  return median(Rates) * Rec.Concurrency;
}

std::string chunkBasis(const RunRecord &Rec, size_t Chunks) {
  if (Chunks == 1)
    return "all " + std::to_string(Rec.BestNs.size()) +
           " ops over their summed time";
  return "median of " + std::to_string(Chunks) + " chunks of " +
         std::to_string(Rec.ChunkOps) + " ops";
}

std::vector<Metric> endToEnd(const RunRecord &Rec) {
  std::vector<Metric> M;
  std::vector<double> Ms;
  for (uint64_t Ns : Rec.BestNs)
    if (Ns != UINT64_MAX)
      Ms.push_back(static_cast<double>(Ns) * 1e-6);
  const std::string Best = "best of " + std::to_string(Rec.ExecutionsPerOp) +
                           " executions per op";
  M.push_back({"setup_s", median(Rec.SetupSeconds), "s",
               "median of " + std::to_string(Rec.SetupSeconds.size()) +
                   " set-ups"});
  size_t Chunks = 0;
  std::vector<uint64_t> Ones(Rec.BestNs.size(), 1);
  double Ops = chunkRate(Rec, Ones, Rec.BestNs, Chunks);
  M.push_back({"ops_per_s", Ops, "1/s",
               chunkBasis(Rec, Chunks) + ", " + Best});
  double Pairs = chunkRate(Rec, Rec.Questions, Rec.BestDecideNs, Chunks);
  M.push_back({"pairs_per_s", Pairs, "1/s",
               "questions per second deciding, " + chunkBasis(Rec, Chunks)});
  M.push_back({"op_p50_ms", median(Ms), "ms",
               "median of " + std::to_string(Ms.size()) + " ops, " + Best});
  // With too few ops for ten beyond even p90 the tail is the slowest op.
  double P = tailPercentile(Ms.size());
  char Tail[64];
  if (P > 0)
    std::snprintf(Tail, sizeof Tail, "p%g of %zu ops (%zu beyond)", P * 100,
                  Ms.size(),
                  static_cast<size_t>((1.0 - P) *
                                      static_cast<double>(Ms.size())));
  else
    std::snprintf(Tail, sizeof Tail, "slowest of %zu ops", Ms.size());
  M.push_back({"op_tail_ms", P > 0 ? quantile(Ms, P) : quantile(Ms, 1.0),
               "ms", Tail});
  M.push_back({"peak_rss_mb", peakRssMb(), "MiB", "whole process"});
  uint64_t Q = std::accumulate(Rec.Questions.begin(), Rec.Questions.end(),
                               uint64_t{0});
  uint64_t E = std::accumulate(Rec.ExactQuestions.begin(),
                               Rec.ExactQuestions.end(), uint64_t{0});
  M.push_back({"exact_pct", Q ? 100.0 * E / Q : 0, "%",
               std::to_string(E) + " of " + std::to_string(Q) +
                   " questions answered exactly"});
  return M;
}

const char *layerUnit(const std::string &Name) {
  auto Ends = [&](const char *Suffix) {
    size_t L = std::strlen(Suffix);
    return Name.size() >= L && Name.compare(Name.size() - L, L, Suffix) == 0;
  };
  if (Ends("_pct"))
    return "%";
  if (Ends("ns_per_kb"))
    return "ns/KiB";
  if (Ends("ns_per_work"))
    return "ns/work";
  if (Ends("_ns") || Ends("ns_per_call") || Ends("ns_per_program") ||
      Ends("ns_per_update"))
    return "ns";
  if (Ends("tests_per_call"))
    return "tests/call";
  return "count";
}

void printOutliers(const RunRecord &Rec) {
  std::vector<size_t> Order(Rec.BestNs.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    uint64_t TA = Rec.BestNs[A] == UINT64_MAX ? 0 : Rec.BestNs[A];
    uint64_t TB = Rec.BestNs[B] == UINT64_MAX ? 0 : Rec.BestNs[B];
    return TA > TB;
  });
  for (size_t K = 0; K < std::min<size_t>(5, Order.size()); ++K) {
    size_t I = Order[K];
    if (Rec.BestNs[I] == UINT64_MAX)
      break;
    std::printf("outlier: op %zu  %.3f ms  fm_work %" PRIu64
                "  questions %" PRIu64 "  %s\n",
                I, static_cast<double>(Rec.BestNs[I]) * 1e-6,
                I < Rec.FmWork.size() ? Rec.FmWork[I] : 0,
                I < Rec.Questions.size() ? Rec.Questions[I] : 0,
                I < Rec.OpLocator.size() ? Rec.OpLocator[I].c_str() : "");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: edda-perfbench --workload suite-compile|"
               "serve-session --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--corrupt-answer]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *A = Argv[I];
    const char *V = nullptr;
    if (!std::strcmp(A, "--workload") && (V = Next()))
      C.Workload = V;
    else if (!std::strcmp(A, "--seed") && (V = Next())) {
      C.Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (!std::strcmp(A, "--seconds") && (V = Next())) {
      C.Seconds = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      HaveSeconds = C.Seconds > 0;
    } else if (!std::strcmp(A, "--trace") && (V = Next()))
      C.Trace = std::strcmp(V, "0") != 0;
    else if (!std::strcmp(A, "--spans") && (V = Next()))
      C.SpansPath = V;
    else if (!std::strcmp(A, "--corrupt-answer"))
      C.CorruptAnswer = true;
    else
      return usage();
  }
  if (!HaveSeed || !HaveSeconds)
    return usage();

  RunRecord (*Run)(const Config &) = nullptr;
  if (C.Workload == "suite-compile")
    Run = runSuiteCompile;
  else if (C.Workload == "serve-session")
    Run = runServeSession;
  else
    return usage();

  if (C.Trace && C.SpansPath.empty()) {
    std::filesystem::create_directories(".bench_build/spans");
    C.SpansPath = ".bench_build/spans/" + C.Workload + "-seed" +
                  std::to_string(C.Seed) + ".jsonl";
  }

  RunRecord Rec = Run(C);

  std::printf("workload: %s  seed: %" PRIu64 "  seconds: %u  run: %s  "
              "threads: %u\n",
              C.Workload.c_str(), C.Seed, C.Seconds,
              C.Trace ? "traced" : "untraced", Rec.Threads);
  std::printf("inputs: %" PRIu64 " ops, digest %016" PRIx64 "\n",
              Rec.Attempted, Rec.InputDigest);
  std::string Counters = "counters:";
  for (const auto &[Name, Value] : Rec.Counters)
    Counters += " " + Name + "=" + std::to_string(Value);
  std::printf("%s\n", Counters.c_str());
  for (const std::string &Note : Rec.Notes)
    std::printf("%s\n", Note.c_str());
  for (const std::string &F : Rec.FailureNotes)
    std::printf("FAILED: %s\n", F.c_str());

  std::string Json = "{";
  if (C.Trace) {
    for (const auto &[Name, Value] : Rec.Layer) {
      const char *Unit = layerUnit(Name);
      std::printf("%-32s %16.4f %s\n", Name.c_str(), Value, Unit);
      char Buf[256];
      std::snprintf(Buf, sizeof Buf, "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    Json.size() > 1 ? ", " : "", Name.c_str(), Value, Unit);
      Json += Buf;
    }
  } else {
    printOutliers(Rec);
    for (const Metric &M : endToEnd(Rec)) {
      std::printf("%-12s %14.4f %-4s  (%s)\n", M.Name.c_str(), M.Value,
                  M.Unit, M.Basis.c_str());
      char Buf[256];
      std::snprintf(Buf, sizeof Buf, "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    Json.size() > 1 ? ", " : "", M.Name.c_str(), M.Value,
                    M.Unit);
      Json += Buf;
    }
  }
  Json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              Rec.Failed ? "false" : "true", Rec.Attempted, Rec.Failed,
              Json.c_str());
  return Rec.Failed ? 1 : 0;
}
