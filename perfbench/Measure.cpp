//===- perfbench/Measure.cpp - Timing, statistics, spans, reporting -------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <cmath>
#include <cstdio>
#include <sched.h>
#include <memory>
#include <string_view>
#include <sys/resource.h>
#include <unordered_map>

using namespace perfbench;

void Digest::add(const void *Data, size_t N) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
}

size_t Tracer::begin(uint32_t Op) {
  if (!Enabled)
    return 0;
  Span S;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = Op;
  Spans.push_back(S);
  Stack.push_back(static_cast<int32_t>(Spans.size() - 1));
  // Read the clock last so the bookkeeping above is not charged.
  Spans.back().Start = nowNs();
  return Spans.size() - 1;
}

uint64_t Tracer::end(size_t Idx, const char *Name) {
  if (!Enabled)
    return 0;
  uint64_t End = nowNs();
  Span &S = Spans[Idx];
  S.End = End;
  S.Name = Name;
  if (!Stack.empty() && Stack.back() == static_cast<int32_t>(Idx))
    Stack.pop_back();
  LayerTotals &L = Totals[Name];
  ++L.Calls;
  L.Ns += End - S.Start;
  return End - S.Start;
}

void Tracer::addTotal(const char *Name, uint64_t Ns) {
  if (!Enabled)
    return;
  LayerTotals &L = Totals[Name];
  ++L.Calls;
  L.Ns += Ns;
}

const LayerTotals &Tracer::totals(const std::string &Name) const {
  static const LayerTotals None;
  auto It = Totals.find(Name);
  return It == Totals.end() ? None : It->second;
}

uint64_t Tracer::counted(const std::string &Name) const {
  auto It = Counts.find(Name);
  return It == Counts.end() ? 0 : It->second;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::unique_ptr<FILE, int (*)(FILE *)> F(std::fopen(Path.c_str(), "w"),
                                           &std::fclose);
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"op\":%u}\n",
                 I, S.Name,
                 static_cast<unsigned long long>(S.Start - Origin),
                 static_cast<unsigned long long>(S.End - Origin), S.Parent,
                 S.Op);
  }
  return std::ferror(F.get()) == 0;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::tailPercentile(size_t N) {
  for (double P : {0.99, 0.95, 0.90})
    if ((1.0 - P) * static_cast<double>(N) >= 10.0)
      return P;
  return 0;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::hostAluNs() {
  constexpr uint64_t Iters = 20'000'000;
  volatile uint64_t Sink = 0;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  uint64_t T0 = nowNs();
  for (uint64_t I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  uint64_t T1 = nowNs();
  Sink = X;
  (void)Sink;
  return static_cast<double>(T1 - T0) / Iters;
}

namespace {

void hostAllocLoop(uint64_t Iters) {
  std::unordered_map<uint64_t, std::vector<int64_t>> Map;
  uint64_t X = 88172645463325252ull;
  for (uint64_t I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint64_t Key = X % 65536;
    auto It = Map.find(Key);
    if (It == Map.end())
      Map.emplace(Key, std::vector<int64_t>(1 + X % 8, 1));
    else
      Map.erase(It);
  }
}

} // namespace

double perfbench::hostAllocNs() {
  constexpr uint64_t Iters = 2'000'000;
  uint64_t T0 = nowNs();
  hostAllocLoop(Iters);
  return static_cast<double>(nowNs() - T0) / Iters;
}

namespace {

/// Short hash-map/allocation churn: the kind of work the analyzer does.
uint64_t probeNs() {
  uint64_t T0 = nowNs();
  hostAllocLoop(100'000);
  return nowNs() - T0;
}

} // namespace

int perfbench::pinToQuietestCpu() {
  // The set the process started with; later calls narrow it no further.
  static const cpu_set_t Allowed = [] {
    cpu_set_t S;
    CPU_ZERO(&S);
    if (sched_getaffinity(0, sizeof S, &S) != 0)
      CPU_ZERO(&S);
    return S;
  }();
  std::vector<int> Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  if (Cpus.size() < 2)
    return Cpus.empty() ? -1 : Cpus.front();
  auto Pin = [](int C) {
    cpu_set_t S;
    CPU_ZERO(&S);
    CPU_SET(C, &S);
    return sched_setaffinity(0, sizeof S, &S) == 0;
  };
  std::vector<uint64_t> Best(Cpus.size(), UINT64_MAX);
  for (int Try = 0; Try < 3; ++Try)
    for (size_t K = 0; K < Cpus.size(); ++K)
      if (Pin(Cpus[K]))
        Best[K] = std::min(Best[K], probeNs());
  size_t Fastest = static_cast<size_t>(
      std::min_element(Best.begin(), Best.end()) - Best.begin());
  return Pin(Cpus[Fastest]) ? Cpus[Fastest] : -1;
}

namespace {

double perCall(const LayerTotals &L) {
  return L.Calls ? static_cast<double>(L.Ns) / L.Calls : 0;
}

} // namespace

void perfbench::fillLayerMetrics(const Tracer &T, RunRecord &Rec) {
  auto &M = Rec.Layer;
  const LayerTotals &Parse = T.totals("parse");
  M["parser.ns_per_call"] = perCall(Parse);
  uint64_t Bytes = T.counted("parse.bytes");
  M["parser.ns_per_kb"] =
      Bytes ? static_cast<double>(Parse.Ns) * 1024.0 / Bytes : 0;
  M["opt.prepass_ns_per_call"] = perCall(T.totals("prepass"));
  M["refs.ns_per_program"] = perCall(T.totals("refs"));
  const LayerTotals &Build = T.totals("build");
  M["builder.calls"] = static_cast<double>(Build.Calls);
  M["builder.ns_per_call"] = perCall(Build);

  const LayerTotals &Hit = T.totals("memo.hit");
  const LayerTotals &Miss = T.totals("memo.miss");
  uint64_t Lookups = Hit.Calls + Miss.Calls;
  M["memo.lookups"] = static_cast<double>(Lookups);
  M["memo.hit_pct"] = Lookups ? 100.0 * Hit.Calls / Lookups : 0;
  M["memo.hit_ns"] = perCall(Hit);
  M["memo.miss_ns"] = perCall(Miss);
  M["memo.insert_ns"] = perCall(T.totals("memo.insert"));

  LayerTotals Cascade;
  for (const char *Stage :
       {"const", "gcd", "svpc", "acyclic", "residue", "fm", "other"}) {
    const LayerTotals &L = T.totals(std::string("cascade.") + Stage);
    Cascade.Calls += L.Calls;
    Cascade.Ns += L.Ns;
    if (std::string_view(Stage) == "other")
      continue;
    M[std::string("cascade.") + Stage + ".calls"] =
        static_cast<double>(L.Calls);
    M[std::string("cascade.") + Stage + ".ns_per_call"] = perCall(L);
  }
  M["cascade.calls"] = static_cast<double>(Cascade.Calls);
  M["cascade.ns_per_call"] = perCall(Cascade);
  const LayerTotals &Widened = T.totals("cascade.widened");
  M["cascade.widened.calls"] = static_cast<double>(Widened.Calls);
  M["cascade.widened.ns_per_call"] = perCall(Widened);

  const LayerTotals &Dir = T.totals("direction");
  M["direction.calls"] = static_cast<double>(Dir.Calls);
  M["direction.ns_per_call"] = perCall(Dir);
  M["direction.tests_per_call"] =
      Dir.Calls ? static_cast<double>(T.counted("direction.tests")) /
                      Dir.Calls
                : 0;
  uint64_t FmWork = T.counted("fm.work");
  M["fm.work"] = static_cast<double>(FmWork);
  M["fm.ns_per_work"] =
      FmWork ? static_cast<double>(T.totals("fm.calls").Ns) / FmWork : 0;

  M["graph.ns_per_call"] = perCall(T.totals("graph"));
  M["incremental.ns_per_update"] = perCall(T.totals("incremental.update"));
  uint64_t IncrPairs = T.counted("incremental.pairs");
  M["incremental.reuse_pct"] =
      IncrPairs ? 100.0 * T.counted("incremental.reused") / IncrPairs : 0;
  M["features.ns_per_call"] = perCall(T.totals("features"));
  M["render.ns_per_call"] = perCall(T.totals("render"));
  for (const char *Op : {"analyze", "edit", "features", "problem"}) {
    M[std::string("serve.") + Op + ".handle_ns"] =
        perCall(T.totals(std::string("serve.") + Op + ".handle"));
    M[std::string("serve.") + Op + ".wait_ns"] = 0;
  }
  M["serve.store_hit_pct"] = 0;
  M["host.alu_ns"] = hostAluNs();
  M["host.alloc_ns"] = hostAllocNs();
  M["trace.coverage_pct"] = 0;
  M["trace.overhead_pct"] = 0;
  M["trace.replay_match_pct"] =
      Rec.Replayed ? 100.0 * (Rec.Replayed - Rec.ReplayMismatches) /
                         Rec.Replayed
                   : 0;
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Stream * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return (Z ^ (Z >> 31)) | 1;
}
