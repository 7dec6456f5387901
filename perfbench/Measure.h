//===- perfbench/Measure.h - Timing, statistics, spans, report -*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parts every workload shares: the run configuration, the
/// best-of-rounds op timer, the in-memory span recorder of the traced
/// run, and the record a workload fills for the report.
///
/// Why best-of-rounds: on a host whose memory system is shared with
/// other tenants the same fixed work can take 50% longer for seconds at
/// a time. Every workload therefore runs its fixed op list in several
/// rounds spread over the run and keeps, per op, the fastest of its
/// executions; all end-to-end timings are medians or quantiles over
/// those per-op bests (README.md, "Steadiness").
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_PERFBENCH_MEASURE_H
#define EDDA_PERFBENCH_MEASURE_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line configuration of one run.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Self-test hook: flip one reference answer before the gate checks
  /// it, so the gate must report exactly one failed op.
  bool CorruptAnswer = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string SpansPath;
};

/// 64-bit FNV-1a, for input and answer digests.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void add(const void *Data, size_t N);
  void add(const std::string &S) { add(S.data(), S.size()); }
  void add(uint64_t V) { add(&V, sizeof V); }
};

/// Ops whose first execution takes longer than this are not repeated:
/// a long op already averages over the host's contention bursts, and
/// repeating a multi-second Fourier-Motzkin outlier would blow the
/// run's time budget.
constexpr uint64_t LongOpNs = 250'000'000;

/// Per-op best-of-rounds timer. Round 0 runs every op; later rounds
/// skip the long ones (LongOpNs).
class BestOf {
public:
  explicit BestOf(size_t NumOps)
      : Best(NumOps, UINT64_MAX), BestDecide(NumOps, UINT64_MAX) {}

  bool shouldRun(size_t Op, unsigned Round) const {
    return Round == 0 || Best[Op] <= LongOpNs;
  }
  /// \p Ns is the whole op; \p DecideNs the part spent deciding
  /// dependence questions (feeds pairs_per_s).
  void record(size_t Op, uint64_t Ns, uint64_t DecideNs) {
    Best[Op] = std::min(Best[Op], Ns);
    BestDecide[Op] = std::min(BestDecide[Op], DecideNs);
  }

  std::vector<uint64_t> Best;
  std::vector<uint64_t> BestDecide;
};

/// One span of the traced run.
struct Span {
  const char *Name = "";
  uint64_t Start = 0;
  uint64_t End = 0;
  int32_t Parent = -1;
  uint32_t Op = 0;
};

/// Calls and summed nanoseconds of one span name.
struct LayerTotals {
  uint64_t Calls = 0;
  uint64_t Ns = 0;
};

/// In-memory span recorder. Spans nest through an explicit stack; the
/// name is given when the span ends, so a call can be bucketed by its
/// result (the cascade by its decider, a memo lookup by hit or miss).
class Tracer {
public:
  /// A disabled tracer records nothing; the traced run replays once
  /// with one to measure what the spans themselves cost.
  explicit Tracer(bool Enabled = true) : Enabled(Enabled) {}

  size_t begin(uint32_t Op);
  /// Closes span \p Idx, returning its duration.
  uint64_t end(size_t Idx, const char *Name);
  /// Adds a duration to an aggregate that has no span of its own (the
  /// widened-tier bucket overlaps the per-stage buckets).
  void addTotal(const char *Name, uint64_t Ns);
  void count(const std::string &Name, uint64_t N = 1) { Counts[Name] += N; }

  const LayerTotals &totals(const std::string &Name) const;
  uint64_t counted(const std::string &Name) const;
  size_t numSpans() const { return Spans.size(); }

  /// Writes one JSON object per span; returns false on I/O error.
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  std::map<std::string, LayerTotals> Totals;
  std::map<std::string, uint64_t> Counts;
  uint64_t Origin = nowNs();
};

/// Times \p Fn as one span named \p Name and returns its result.
template <typename F>
auto traced(Tracer &T, uint32_t Op, const char *Name, F &&Fn) {
  size_t S = T.begin(Op);
  if constexpr (std::is_void_v<decltype(Fn())>) {
    Fn();
    T.end(S, Name);
  } else {
    auto R = Fn();
    T.end(S, Name);
    return R;
  }
}

/// What a workload hands back for the report.
struct RunRecord {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failures, for the report.
  std::vector<std::string> FailureNotes;
  /// One set-up time per round (input generation, boot, warm-up).
  std::vector<double> SetupSeconds;
  /// Per-op best times (untraced runs).
  std::vector<uint64_t> BestNs;
  std::vector<uint64_t> BestDecideNs;
  /// Per op: dependence questions decided, of them exactly, and the
  /// Fourier-Motzkin work spent (outlier locator).
  std::vector<uint64_t> Questions;
  std::vector<uint64_t> ExactQuestions;
  std::vector<uint64_t> FmWork;
  /// How to name op I so it can be regenerated alone.
  std::vector<std::string> OpLocator;
  /// Ops per chunk for the throughput medians: consecutive ops of one
  /// chunk form one unit of the input list (a suite pass, a block of
  /// random programs or problems, a block of one client's requests).
  size_t ChunkOps = 1;
  /// Threads the workload ran (clients + server workers for serve).
  unsigned Threads = 1;
  /// Closed-loop clients in flight: each client's rate is the inverse
  /// of its latency, so the run's rate is this many times one chunk's.
  unsigned Concurrency = 1;
  /// Timed executions behind each per-op best (rounds x copies).
  unsigned ExecutionsPerOp = 1;
  /// The deterministic counter block and the input digest.
  std::map<std::string, uint64_t> Counters;
  uint64_t InputDigest = 0;
  /// Extra report lines (workload-specific latencies and notes).
  std::vector<std::string> Notes;
  /// Traced run only: the per-layer metrics, by name.
  std::map<std::string, double> Layer;
  /// Traced run only: programs replayed pair by pair, and how many of
  /// the replays did not reproduce analyze() (trace.replay_match_pct).
  uint64_t Replayed = 0;
  uint64_t ReplayMismatches = 0;

  void fail(const std::string &Note) {
    ++Failed;
    if (FailureNotes.size() < 8)
      FailureNotes.push_back(Note);
  }
  /// Records one replay's outcome. A mismatch says the replay no longer
  /// restates the analyzer, not that an answer is wrong: it is reported,
  /// never counted as a failed op.
  void replayed(const std::optional<std::string> &Mismatch,
                const std::string &Where) {
    ++Replayed;
    if (!Mismatch)
      return;
    if (ReplayMismatches++ < 8)
      Notes.push_back("replay mismatch: " + Where + ": " + *Mismatch);
  }
};

/// Nearest-rank quantile of \p V (copied and sorted), Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// The highest of p99 / p95 / p90 that has at least ten samples beyond
/// it among \p N samples (0 when even p90 has fewer).
double tailPercentile(size_t N);

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Host diagnostics of the traced run (never used to normalise): ns per
/// iteration of a dependent integer loop and of a hash-map insert/erase
/// loop with small allocations.
double hostAluNs();
double hostAllocNs();

/// Pins the calling thread to the allowed CPU that runs a short
/// allocation-heavy probe fastest (best of three interleaved tries per
/// CPU). On a shared host one virtual CPU can run persistently slower
/// than its siblings; single-threaded workloads call this before every
/// round so each round runs on the quietest CPU at the time. Returns
/// the CPU chosen, or -1 when affinity cannot be set.
int pinToQuietestCpu();

/// Fills the per-layer metrics every traced workload reports from the
/// tracer's totals and the replays recorded in \p Rec (layers a workload
/// does not reach report 0). Call it after the last replay.
void fillLayerMetrics(const Tracer &T, RunRecord &Rec);

/// Seed derivation shared by the workloads: distinct streams per
/// purpose, so adding one draw never shifts another's inputs.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

} // namespace perfbench

#endif // EDDA_PERFBENCH_MEASURE_H
