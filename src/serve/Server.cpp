//===- serve/Server.cpp - Persistent analysis daemon core -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "analysis/Analyzer.h"
#include "analysis/Features.h"
#include "analysis/Incremental.h"
#include "deptest/Direction.h"
#include "deptest/ProblemIO.h"
#include "parser/Parser.h"
#include "serve/Render.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace edda;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *shortAnswerName(DepAnswer Answer) {
  switch (Answer) {
  case DepAnswer::Independent:
    return "independent";
  case DepAnswer::Dependent:
    return "dependent";
  case DepAnswer::Unknown:
    return "unknown";
  }
  return "?";
}

/// A branch-and-bound-heavy calibration problem: two coupled equations
/// under triangular bounds, the shape Direction.h documents as driving
/// nearly every constrained query into Fourier-Motzkin branch & bound.
DependenceProblem calibrationProblem() {
  DependenceProblem P;
  P.NumLoopsA = P.NumLoopsB = P.NumCommon = 2;
  const unsigned NumX = 4;
  XAffine E1(NumX), E2(NumX);
  E1.Coeffs = {1, 1, -1, -1};
  E1.Const = 1;
  E2.Coeffs = {1, -2, 0, 1};
  E2.Const = 0;
  P.Equations = {E1, E2};
  XAffine Zero(NumX), Top(NumX);
  Top.Const = 100;
  XAffine AfterX0(NumX), AfterX2(NumX);
  AfterX0.Coeffs[0] = 1;
  AfterX2.Coeffs[2] = 1;
  P.Lo = {Zero, AfterX0, Zero, AfterX2};
  P.Hi = {Top, Top, Top, Top};
  return P;
}

/// Converts a wall-clock timeout into a Fourier-Motzkin work budget by
/// measuring this machine's combine rate on the calibration problem.
/// The budget is the enforceable stand-in for the deadline: FM work is
/// counted deterministically, so the same problem always degrades (or
/// not) at the same point regardless of machine load.
uint64_t calibrateFmBudget(unsigned TimeoutMs) {
  DependenceProblem P = calibrationProblem();
  DirectionOptions DirOpts;
  DirOpts.MaxRefineFmWork = 20000;
  uint64_t Start = nowNs();
  DirectionResult R = computeDirectionVectors(P, DirOpts);
  uint64_t Elapsed = nowNs() - Start;
  uint64_t Work = R.TestStats.FmWork;
  if (Elapsed == 0 || Work == 0)
    return 1u << 16; // Timer or problem misbehaved; a safe middle.
  // combines per millisecond, then scaled to the deadline.
  long double PerMs = static_cast<long double>(Work) * 1e6L /
                      static_cast<long double>(Elapsed);
  long double Budget = PerMs * static_cast<long double>(TimeoutMs);
  if (Budget < 4096)
    return 4096;
  if (Budget > static_cast<long double>(UINT64_MAX) / 2)
    return UINT64_MAX / 2;
  return static_cast<uint64_t>(Budget);
}

} // namespace

/// Every ServeStats counter under its stats-op key: the one list that
/// operator+= sums and statsJson() renders.
constexpr std::pair<const char *, uint64_t ServeStats::*> ServeCounters[] = {
    {"requests", &ServeStats::Requests},
    {"analyze_requests", &ServeStats::AnalyzeRequests},
    {"features_requests", &ServeStats::FeaturesRequests},
    {"problem_requests", &ServeStats::ProblemRequests},
    {"edit_requests", &ServeStats::EditRequests},
    {"errors", &ServeStats::Errors},
    {"pairs_tested", &ServeStats::PairsTested},
    {"pairs_cached", &ServeStats::PairsCached},
    {"pairs_constant", &ServeStats::PairsConstant},
    {"pairs_unanalyzable", &ServeStats::PairsUnanalyzable},
    {"problems_tested", &ServeStats::ProblemsTested},
    {"problems_cached", &ServeStats::ProblemsCached},
    {"tests_run", &ServeStats::TestsRun},
    {"cache_hits_full", &ServeStats::MemoHitsFull},
    {"cache_hits_nobounds", &ServeStats::MemoHitsNoBounds},
    {"fm_work", &ServeStats::FmWork},
    {"widened", &ServeStats::WidenedQueries},
    {"degraded_requests", &ServeStats::DegradedRequests},
    {"wall_ns", &ServeStats::WallNs},
    {"checkpoints", &ServeStats::Checkpoints},
    {"evicted", &ServeStats::Evicted},
    {"warm_loaded_entries", &ServeStats::WarmLoadedEntries},
    {"warm_rejected_entries", &ServeStats::WarmRejectedEntries},
    {"warm_failed_loads", &ServeStats::WarmFailedLoads},
    {"pairs_reused", &ServeStats::PairsReused},
    {"pairs_invalidated", &ServeStats::PairsInvalidated},
};
static_assert(sizeof(ServeStats) ==
                  std::size(ServeCounters) * sizeof(uint64_t),
              "every ServeStats counter must be listed in ServeCounters");

ServeStats &ServeStats::operator+=(const ServeStats &RHS) {
  for (const auto &[Key, Field] : ServeCounters)
    this->*Field += RHS.*Field;
  return *this;
}

double ServeStats::hitRatePct() const {
  uint64_t Hits = PairsCached + ProblemsCached;
  uint64_t Total = Hits + PairsTested + ProblemsTested;
  return Total ? 100.0 * static_cast<double>(Hits) /
                     static_cast<double>(Total)
               : 0.0;
}

namespace {

/// Named JSON members in the order a response emits them.
using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

/// A delta of \p N on one counter.
ServeStats delta(uint64_t ServeStats::*Counter, uint64_t N = 1) {
  ServeStats D;
  D.*Counter = N;
  return D;
}

/// Parses a LoopLang payload; nullopt plus the diagnostics in \p Error
/// on failure.
std::optional<Program> parsePayload(const std::string &Source,
                                    std::string &Error) {
  ParseResult Parsed = parseProgram(Source);
  if (Parsed.succeeded())
    return std::move(*Parsed.Prog);
  Error = "parse error";
  for (const Diagnostic &D : Parsed.Diags) {
    Error += "; ";
    Error += D.str();
  }
  return std::nullopt;
}

/// True when the FM work budget cut an answer short: an inexact
/// Fourier-Motzkin Unknown, or a direction refinement that gave up.
bool budgetDegraded(DepAnswer Answer, bool Exact, TestKind DecidedBy,
                    const DirectionResult *Dirs) {
  return (Answer == DepAnswer::Unknown && !Exact &&
          DecidedBy == TestKind::FourierMotzkin) ||
         (Dirs && !Dirs->Exact);
}

/// The per-request stats analyze and features report for one analysis,
/// and its counter delta. "Tested" pairs ran the cascade, "cached" ones
/// were served from the store.
void tallyPairs(const AnalysisResult &Result, JsonFields &Stats,
                ServeStats &Delta) {
  bool Degraded = false;
  for (const DependencePair &Pair : Result.Pairs) {
    if (Pair.DecidedBy == TestKind::Unanalyzable)
      ++Delta.PairsUnanalyzable;
    else if (Pair.FromCache)
      ++Delta.PairsCached;
    else if (Pair.DecidedBy == TestKind::ArrayConstant)
      ++Delta.PairsConstant; // Decided structurally; never enters the store.
    else
      ++Delta.PairsTested;
    Degraded |= budgetDegraded(Pair.Answer, Pair.Exact, Pair.DecidedBy,
                               Pair.Directions.get());
  }
  Delta.TestsRun = Result.Stats.totalDecided();
  Delta.MemoHitsFull = Result.Stats.MemoHitsFull;
  Delta.MemoHitsNoBounds = Result.Stats.MemoHitsNoBounds;
  Delta.FmWork = Result.Stats.FmWork;
  Delta.WidenedQueries = Result.Stats.WidenedQueries;
  Delta.DegradedRequests = Degraded;
  Stats = {{"pairs", Result.PairsConsidered},
           {"pairs_cached", Delta.PairsCached},
           {"pairs_tested", Delta.PairsTested},
           {"unanalyzable", Result.UnanalyzablePairs},
           {"tests_run", Delta.TestsRun},
           {"cache_hits_full", Delta.MemoHitsFull},
           {"cache_hits_nobounds", Delta.MemoHitsNoBounds},
           {"fm_work", Delta.FmWork},
           {"widened", Delta.WidenedQueries},
           {"degraded", Degraded}};
}

} // namespace

struct ServeCore::Reply {
  Reply() = default;
  explicit Reply(JsonFields Body) : Body(std::move(Body)) {}
  static Reply failure(std::string Error) {
    Reply A;
    A.Error = std::move(Error);
    return A;
  }

  /// Non-empty makes the response an ok:false error.
  std::string Error;
  /// The rendered report (payload ops).
  std::string Text;
  /// Op-specific body members, after id/ok/text.
  JsonFields Body;
  /// Per-request stats, after wall_ns (payload ops).
  JsonFields Stats;
  /// Counter delta; handle() counts Requests, Errors and WallNs itself.
  ServeStats Delta;
};

/// One edit-loop program: the incremental analyzer state plus the lock
/// that serializes edits to it. The session owns its analyzer (and
/// that analyzer's private memo tables) rather than sharing the
/// server-wide store: fingerprint invalidation tracks this one
/// program's live pair keys, which must not evict entries other
/// requests still want.
struct ServeCore::EditSession {
  explicit EditSession(AnalyzerOptions AO) : Incr(std::move(AO)) {}

  std::mutex Mutex;
  IncrementalSession Incr;
  /// Logical touch time (ServeCore::SessionClock) for LRU eviction.
  uint64_t LastUsed = 0;
};

static MemoOptions servingMemoOptions(unsigned Threads) {
  MemoOptions M;
  M.TrackRecency = true;
  // A few shards per worker keeps the hot path on uncontended locks
  // (same resolution the parallel analyzer uses for its own cache).
  M.Shards = 4 * std::max(1u, Threads);
  return M;
}

ServeCore::ServeCore(ServeOptions O, std::string *Error)
    : Opts(std::move(O)),
      Cache(servingMemoOptions(Opts.NumThreads
                                   ? Opts.NumThreads
                                   : ThreadPool::hardwareThreads())) {
  if (Opts.NumThreads == 0)
    Opts.NumThreads = ThreadPool::hardwareThreads();
  if (Opts.BatchSize == 0)
    Opts.BatchSize = 1;

  DefaultBudget = Opts.RequestFmBudget;
  if (DefaultBudget == 0 && Opts.TimeoutMs != 0)
    DefaultBudget = calibrateFmBudget(Opts.TimeoutMs);

  if (!Opts.CachePath.empty()) {
    struct stat St;
    if (::stat(Opts.CachePath.c_str(), &St) == 0) {
      CacheLoadStats LoadStats;
      if (Cache.loadFromFile(Opts.CachePath, &LoadStats)) {
        Totals.WarmLoadedEntries = Cache.uniqueFull() +
                                   Cache.uniqueDirections() +
                                   Cache.uniqueNoBounds();
      } else {
        // Report what was lost instead of silently cold-starting: a
        // stale-format file says how many entries it held, any other
        // refused file counts as a failed load, and both stay visible
        // through the stats op afterwards.
        const bool Stale =
            LoadStats.FileVersion != 0 && LoadStats.RejectedEntries != 0;
        Totals.WarmRejectedEntries = LoadStats.RejectedEntries;
        Totals.WarmFailedLoads = !Stale;
        if (Error) {
          *Error = "warm-start file '" + Opts.CachePath + "' ";
          if (Stale)
            *Error += "declares stale format version " +
                      std::to_string(LoadStats.FileVersion) +
                      "; rejected " +
                      std::to_string(LoadStats.RejectedEntries) +
                      " entries and cold-starting";
          else
            *Error += "is unreadable or has a bad format; cold-starting";
        }
      }
    }
  }

  if (!Opts.StatsLogPath.empty()) {
    LogStream.open(Opts.StatsLogPath, std::ios::app);
    if (!LogStream && Error) {
      if (!Error->empty())
        *Error += "; ";
      *Error += "cannot open stats log '" + Opts.StatsLogPath + "'";
    }
  }

  Pool = std::make_unique<ThreadPool>(Opts.NumThreads);

  if (Opts.CheckpointIntervalSec != 0 && !Opts.CachePath.empty())
    CheckpointThread = std::thread([this] { checkpointLoop(); });
}

ServeCore::~ServeCore() {
  Pool->wait();
  if (CheckpointThread.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(CheckpointCvMutex);
      StopCheckpointThread = true;
    }
    CheckpointCv.notify_all();
    CheckpointThread.join();
  }
  if (!Opts.CachePath.empty())
    checkpoint();
}

void ServeCore::checkpointLoop() {
  std::unique_lock<std::mutex> Lock(CheckpointCvMutex);
  while (!StopCheckpointThread) {
    CheckpointCv.wait_for(
        Lock, std::chrono::seconds(Opts.CheckpointIntervalSec),
        [this] { return StopCheckpointThread; });
    if (StopCheckpointThread)
      return;
    Lock.unlock();
    checkpoint();
    Lock.lock();
  }
}

bool ServeCore::checkpoint() {
  if (Opts.CachePath.empty())
    return false;
  std::lock_guard<std::mutex> Lock(CheckpointMutex);
  if (Opts.MaxCacheEntries != 0)
    count(delta(&ServeStats::Evicted,
                     Cache.evictOldest(Opts.MaxCacheEntries)));
  std::string Tmp =
      Opts.CachePath + ".tmp." + std::to_string(::getpid());
  if (!Cache.saveToFile(Tmp)) {
    ::unlink(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Opts.CachePath.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  count(delta(&ServeStats::Checkpoints));
  return true;
}

bool ServeCore::analyzerOptions(const ServeRequest &R, uint64_t FmBudget,
                                AnalyzerOptions &AO, std::string &Error) {
  const std::string &Spec =
      R.PipelineSpec.empty() ? Opts.PipelineSpec : R.PipelineSpec;
  std::shared_ptr<const TestPipeline> Pipe; // Null = the paper's cascade.
  if (!Spec.empty() && Spec != "default") {
    std::string PipeError;
    Pipe = makePipeline(Spec, &PipeError);
    if (!Pipe) {
      Error = "bad pipeline: " + PipeError;
      return false;
    }
  }
  uint64_t Budget = FmBudget ? FmBudget : DefaultBudget;
  AO.RunPrepass = R.Prepass;
  // A request that overrides the server's budget, pipeline or widening
  // bypasses the shared store entirely: its answers may be degraded,
  // undecided by a stage it left out, or unwidened, and must never be
  // served to a default request (the server-wide settings are uniform
  // across requests, so stored results stay mutually consistent).
  auto IsDefault = [](const std::string &S) {
    return S.empty() || S == "default";
  };
  bool SamePipeline = Spec == Opts.PipelineSpec ||
                      (IsDefault(Spec) && IsDefault(Opts.PipelineSpec));
  AO.UseMemoization = FmBudget == 0 && R.Widen && SamePipeline;
  AO.NumThreads = 1;
  AO.Cascade.Pipeline = Pipe;
  AO.Cascade.Widen = R.Widen;
  AO.Direction.Cascade.Pipeline = Pipe;
  AO.Direction.Cascade.Widen = R.Widen;
  if (Budget) {
    AO.Direction.MaxRefineFmWork = Budget;
    AO.Cascade.Fm.MaxCombines = Budget;
    AO.Direction.Cascade.Fm.MaxCombines = Budget;
  }
  return true;
}

void ServeCore::logRequest(const JsonValue &Entry) {
  if (!LogStream.is_open())
    return;
  std::lock_guard<std::mutex> Lock(LogMutex);
  LogStream << Entry.str() << '\n';
  LogStream.flush();
}

void ServeCore::count(const ServeStats &Delta) {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  Totals += Delta;
}

ServeCore::Reply ServeCore::handleAnalyze(const ServeRequest &R) {
  std::string Error;
  std::optional<Program> Prog = parsePayload(R.Payload, Error);
  AnalyzerOptions AO;
  if (!Prog || !analyzerOptions(R, R.FmBudget, AO, Error))
    return Reply::failure(Error);
  AO.ComputeDirections = R.Directions;
  AO.Trace = R.Explain;
  AnalysisResult Result = DependenceAnalyzer(AO, Cache).analyze(*Prog);

  Reply A;
  A.Delta.AnalyzeRequests = 1;
  tallyPairs(Result, A.Stats, A.Delta);
  ReportOptions Report;
  Report.Directions = R.Directions;
  Report.Explain = R.Explain;
  Report.CacheMarkers = R.CacheMarkers;
  A.Text = renderAnalysisReport(*Prog, Result, Report);

  JsonValue Pairs = JsonValue::array();
  for (const DependencePair &Pair : Result.Pairs) {
    JsonValue PJ = JsonValue::object();
    PJ.set("a", Pair.RefA);
    PJ.set("b", Pair.RefB);
    PJ.set("answer", shortAnswerName(Pair.Answer));
    PJ.set("decided_by", testKindName(Pair.DecidedBy));
    PJ.set("exact", Pair.Exact);
    PJ.set("from_cache", Pair.FromCache);
    if (Pair.Directions) {
      JsonValue Dirs = JsonValue::array();
      for (const DirVector &V : Pair.Directions->Vectors)
        Dirs.push(dirVectorStr(V));
      PJ.set("directions", std::move(Dirs));
      JsonValue Dists = JsonValue::array();
      for (const std::optional<int64_t> &D : Pair.Directions->Distances)
        Dists.push(D ? JsonValue(*D) : JsonValue());
      PJ.set("distances", std::move(Dists));
    }
    Pairs.push(std::move(PJ));
  }
  A.Body = {{"pairs", std::move(Pairs)}};
  return A;
}

ServeCore::Reply ServeCore::handleFeatures(const ServeRequest &R) {
  std::string Error;
  std::optional<Program> Prog = parsePayload(R.Payload, Error);
  AnalyzerOptions AO;
  if (!Prog || !analyzerOptions(R, R.FmBudget, AO, Error))
    return Reply::failure(Error);
  // The direction summaries and distance histograms are the point of
  // the op, so directions are always computed.
  AO.ComputeDirections = true;
  AnalysisResult Result = DependenceAnalyzer(AO, Cache).analyze(*Prog);

  Reply A;
  A.Delta.FeaturesRequests = 1;
  tallyPairs(Result, A.Stats, A.Delta);
  JsonValue Features = extractFeatures(*Prog, Result);
  A.Text = Features.str();
  A.Body = {{"features", std::move(Features)}};
  return A;
}

ServeCore::Reply ServeCore::handleProblem(const ServeRequest &R) {
  ProblemParseResult Parsed = parseProblemText(R.Payload);
  if (!Parsed.succeeded())
    return Reply::failure("problem parse error: " + Parsed.Error);
  std::string Error;
  AnalyzerOptions AO;
  if (!analyzerOptions(R, R.FmBudget, AO, Error))
    return Reply::failure(Error);
  const DependenceProblem &P = *Parsed.Problem;
  const CascadeOptions &CO = AO.Cascade;
  const bool UseMemo = AO.UseMemoization; // Same bypass rule as analyze.

  DepStats Stats;
  std::optional<CascadeResult> Hit;
  if (UseMemo)
    Hit = Cache.lookupFull(P);
  const bool FromCache = Hit.has_value();
  CascadeResult Result = FromCache ? *Hit : testDependence(P, CO, &Stats);
  if (UseMemo && !FromCache)
    Cache.insertFull(P, Result);

  std::optional<PipelineTrace> Trace;
  if (R.Explain) {
    // Observational re-run, exactly as edda-cli --explain does: no
    // stats, no memoization, so the trace cannot perturb the answer.
    const TestPipeline &Pipeline =
        CO.Pipeline ? *CO.Pipeline : TestPipeline::defaultPipeline();
    Trace.emplace();
    Pipeline.run(P, {}, CO, /*Stats=*/nullptr, &*Trace);
  }

  std::optional<DirectionResult> Dirs;
  bool DirsFromCache = false;
  if (R.Directions && Result.Answer != DepAnswer::Independent) {
    if (UseMemo)
      Dirs = Cache.lookupDirections(P);
    DirsFromCache = Dirs.has_value();
    if (!Dirs) {
      Dirs = computeDirectionVectors(P, AO.Direction);
      Stats += Dirs->TestStats;
      if (UseMemo)
        Cache.insertDirections(P, *Dirs);
    }
  }

  bool Cached = FromCache && (!Dirs || DirsFromCache);
  bool Degraded =
      budgetDegraded(Result.Answer, Result.Exact, Result.DecidedBy,
                     Dirs ? &*Dirs : nullptr);
  Reply A;
  A.Text = renderProblemReport(P, Result, Dirs ? &*Dirs : nullptr,
                               Trace ? &*Trace : nullptr);
  A.Body = {{"answer", shortAnswerName(Result.Answer)},
            {"decided_by", testKindName(Result.DecidedBy)},
            {"exact", Result.Exact}};
  if (Dirs) {
    JsonValue DV = JsonValue::array();
    for (const DirVector &V : Dirs->Vectors)
      DV.push(dirVectorStr(V));
    A.Body.emplace_back("directions", std::move(DV));
  }
  A.Stats = {{"from_cache", Cached},
             {"tests_run", Stats.totalDecided()},
             {"fm_work", Stats.FmWork},
             {"widened", Stats.WidenedQueries},
             {"degraded", Degraded}};
  A.Delta.ProblemRequests = 1;
  (Cached ? A.Delta.ProblemsCached : A.Delta.ProblemsTested) = 1;
  A.Delta.TestsRun = Stats.totalDecided();
  A.Delta.FmWork = Stats.FmWork;
  A.Delta.WidenedQueries = Stats.WidenedQueries;
  A.Delta.DegradedRequests = Degraded;
  return A;
}

ServeCore::Reply ServeCore::handleEdit(const ServeRequest &R,
                                       uint64_t ConnId) {
  // A session's analyzer options are fixed by its first request:
  // reanalysis is bit-identical to from-scratch only under unchanged
  // options, so later flags must not re-steer a live session. The
  // server default budget applies uniformly, exactly as it does to
  // every analyze request.
  std::string Error;
  std::optional<Program> Prog = parsePayload(R.Payload, Error);
  AnalyzerOptions AO;
  if (!Prog || !analyzerOptions(R, /*FmBudget=*/0, AO, Error))
    return Reply::failure(Error);
  AO.UseMemoization = true; // The session's cache is its own.

  const std::string Key = R.Session.empty()
                              ? "conn:" + std::to_string(ConnId)
                              : "user:" + R.Session;

  std::shared_ptr<EditSession> Session;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    auto It = Sessions.find(Key);
    if (It == Sessions.end())
      It = Sessions
               .emplace(Key, std::make_shared<EditSession>(std::move(AO)))
               .first;
    Session = It->second;
    Session->LastUsed = ++SessionClock;

    // Bound abandoned sessions. A request adds at most one session and
    // has just made its own the most recent, so the least recent is
    // always another. Erasing only drops the registry's reference; a
    // request already holding the shared_ptr finishes against its own
    // copy.
    constexpr size_t MaxSessions = 64;
    if (Sessions.size() > MaxSessions)
      Sessions.erase(std::min_element(
          Sessions.begin(), Sessions.end(), [](const auto &L, const auto &R) {
            return L.second->LastUsed < R.second->LastUsed;
          }));
  }

  Reply A;
  ReanalyzeStats RS;
  std::string GraphText;
  {
    // Edits to one session serialize here; other sessions (and all
    // analyze/problem traffic) keep running on their own state.
    std::lock_guard<std::mutex> Lock(Session->Mutex);
    RS = Session->Incr.update(std::move(*Prog));

    ReportOptions Report;
    Report.Directions = R.Directions;
    // Explain is ignored: spliced pairs have no fresh pipeline trace,
    // and a half-traced report would be misleading.
    Report.CacheMarkers = R.CacheMarkers;
    A.Text = renderAnalysisReport(Session->Incr.program(),
                                  Session->Incr.result(), Report);
    GraphText = Session->Incr.graph().str(Session->Incr.program());
  }
  A.Body = {{"graph", std::move(GraphText)}, {"session", Key}};
  A.Stats = {{"pairs", RS.PairsTotal},
             {"pairs_reused", RS.PairsReused},
             {"pairs_invalidated", RS.PairsInvalidated}};
  A.Delta.EditRequests = 1;
  A.Delta.PairsReused = RS.PairsReused;
  A.Delta.PairsInvalidated = RS.PairsInvalidated;
  return A;
}

JsonValue ServeCore::statsJson() const {
  ServeStats S = stats();
  JsonValue O = JsonValue::object();
  for (const auto &[Key, Field] : ServeCounters)
    O.set(Key, S.*Field);
  O.set("hit_rate_pct", S.hitRatePct());
  O.set("cache_queries_dir", Cache.dirQueries());
  O.set("cache_hits_dir", Cache.dirHits());
  O.set("unique_full", Cache.uniqueFull());
  O.set("unique_directions", Cache.uniqueDirections());
  O.set("unique_nobounds", Cache.uniqueNoBounds());
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    O.set("edit_sessions", static_cast<uint64_t>(Sessions.size()));
  }
  O.set("threads", Opts.NumThreads);
  O.set("default_fm_budget", DefaultBudget);
  return O;
}

ServeStats ServeCore::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Totals;
}

ServeCore::Reply ServeCore::answer(const ServeRequest &R,
                                   uint64_t ConnId) {
  switch (R.Operation) {
  case ServeRequest::Op::Analyze:
    return handleAnalyze(R);
  case ServeRequest::Op::Features:
    return handleFeatures(R);
  case ServeRequest::Op::Problem:
    return handleProblem(R);
  case ServeRequest::Op::Edit:
    return handleEdit(R, ConnId);
  case ServeRequest::Op::Stats:
    return Reply(JsonFields{{"server", statsJson()}});
  case ServeRequest::Op::Ping:
    return Reply(JsonFields{{"op", "ping"}});
  case ServeRequest::Op::Checkpoint: {
    Reply A;
    if (!checkpoint())
      A.Error = Opts.CachePath.empty() ? "no --cache path configured"
                                       : "checkpoint write failed";
    A.Body = {{"entries", Cache.uniqueFull() + Cache.uniqueDirections() +
                              Cache.uniqueNoBounds()}};
    return A;
  }
  case ServeRequest::Op::Shutdown:
    ShutdownFlag.store(true, std::memory_order_release);
    return Reply(JsonFields{{"op", "shutdown"}});
  }
  return Reply::failure("unhandled op");
}

ServeResponse ServeCore::handle(const ServeRequest &R, uint64_t ConnId) {
  // Counted on entry, so a stats request's snapshot includes itself.
  count(delta(&ServeStats::Requests));
  uint64_t Start = nowNs();
  Reply A = answer(R, ConnId);
  uint64_t WallNs = nowNs() - Start;

  ServeResponse Out;
  Out.Id = R.Id;
  Out.Ok = A.Error.empty();
  Out.Error = std::move(A.Error);
  Out.Text = std::move(A.Text);
  JsonValue O = JsonValue::object();
  O.set("id", R.Id);
  O.set("ok", Out.Ok);
  if (!Out.Ok)
    O.set("error", Out.Error);
  const bool Served = Out.Ok && R.hasPayload();
  if (Served)
    O.set("text", Out.Text);
  for (auto &[Name, Value] : A.Body)
    O.set(std::move(Name), std::move(Value));
  if (Served) {
    JsonValue Stats = JsonValue::object();
    Stats.set("wall_ns", WallNs);
    for (auto &[Name, Value] : A.Stats)
      Stats.set(std::move(Name), std::move(Value));
    O.set("stats", Stats);
    // The stats-log line: the request's stats under its op and id,
    // plus the session an edit applied to.
    Stats.set("op", serveOpName(R.Operation));
    Stats.set("id", R.Id);
    if (const JsonValue *Session = O.find("session"))
      Stats.set("session", *Session);
    logRequest(Stats);
    A.Delta.WallNs = WallNs;
  }
  A.Delta.Errors = !Out.Ok;
  count(A.Delta);
  Out.Body = std::move(O);
  return Out;
}

std::string ServeCore::handleLine(const std::string &Line,
                                  uint64_t ConnId) {
  std::string Error;
  int64_t Id = 0;
  std::optional<ServeRequest> R = parseServeRequest(Line, &Error, &Id);
  if (R)
    return handle(*R, ConnId).Body.str();
  // A malformed line never reaches handle(), so it is counted here.
  count(delta(&ServeStats::Requests));
  count(delta(&ServeStats::Errors));
  JsonValue O = JsonValue::object();
  O.set("id", Id);
  O.set("ok", false);
  O.set("error", Error);
  return O.str();
}

void ServeCore::submit(std::string Line,
                       std::function<void(std::string)> Done,
                       uint64_t ConnId) {
  Pool->submit([this, Line = std::move(Line), Done = std::move(Done),
                ConnId] { Done(handleLine(Line, ConnId)); });
}

void ServeCore::drain() { Pool->wait(); }

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

namespace {

/// Shared between a transport reader and the response callbacks it has
/// in flight; enforces the 2*BatchSize backpressure window.
struct FlightControl {
  std::mutex Mutex;
  std::condition_variable Cv;
  uint64_t InFlight = 0;

  void acquire(uint64_t Limit) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return InFlight < Limit; });
    ++InFlight;
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --InFlight;
    }
    Cv.notify_all();
  }
  void waitEmpty() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return InFlight == 0; });
  }
};

} // namespace

int edda::runStdioServer(ServeCore &Core) {
  auto Flight = std::make_shared<FlightControl>();
  auto OutMutex = std::make_shared<std::mutex>();
  const uint64_t Limit = 2 * Core.options().BatchSize;

  std::string Line;
  while (!Core.shutdownRequested() && std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    Flight->acquire(Limit);
    Core.submit(Line, [Flight, OutMutex](std::string Resp) {
      {
        std::lock_guard<std::mutex> Lock(*OutMutex);
        Resp += '\n';
        std::fwrite(Resp.data(), 1, Resp.size(), stdout);
        std::fflush(stdout);
      }
      Flight->release();
    });
  }
  Flight->waitEmpty();
  Core.drain();
  return 0;
}

namespace {

void serveConnection(ServeCore &Core, int Fd, uint64_t ConnId) {
  auto Flight = std::make_shared<FlightControl>();
  auto WriteMutex = std::make_shared<std::mutex>();
  const uint64_t Limit = 2 * Core.options().BatchSize;

  // Reads until EOF (or shutdown(SHUT_RD) from the accept loop).
  LineReader Reader(Fd);
  while (std::optional<std::string> Line = Reader.next()) {
    if (Line->empty())
      continue;
    Flight->acquire(Limit);
    Core.submit(std::move(*Line),
                [Flight, WriteMutex, Fd](std::string Resp) {
                  {
                    std::lock_guard<std::mutex> Lock(*WriteMutex);
                    // A hung-up client only loses its own replies.
                    (void)sendLine(Fd, std::move(Resp));
                  }
                  Flight->release();
                },
                ConnId);
  }
  Flight->waitEmpty();
  ::close(Fd);
}

} // namespace

int edda::runUnixServer(ServeCore &Core, const std::string &SocketPath,
                        const std::atomic<bool> &Stop,
                        std::string *Error) {
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + SocketPath;
    ::close(ListenFd);
    return 1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  ::unlink(SocketPath.c_str()); // Stale socket from a crashed server.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    if (Error)
      *Error = std::string("bind/listen on '") + SocketPath +
               "': " + std::strerror(errno);
    ::close(ListenFd);
    return 1;
  }

  std::mutex ConnMutex;
  std::set<int> OpenFds;
  std::vector<std::thread> Connections;
  // Connection ids scope anonymous edit sessions; 0 is reserved for
  // the stdio transport's single implicit connection.
  uint64_t NextConnId = 1;

  while (!Stop.load(std::memory_order_acquire) &&
         !Core.shutdownRequested()) {
    pollfd Pfd{ListenFd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, 200);
    if (Ready <= 0)
      continue; // Timeout or EINTR: re-check the stop conditions.
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      OpenFds.insert(Fd);
    }
    uint64_t ConnId = NextConnId++;
    Connections.emplace_back([&Core, &ConnMutex, &OpenFds, Fd, ConnId] {
      serveConnection(Core, Fd, ConnId);
      std::lock_guard<std::mutex> Lock(ConnMutex);
      OpenFds.erase(Fd);
    });
  }
  ::close(ListenFd);

  // Half-close lingering connections so their readers see EOF, then
  // let them drain their in-flight responses.
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : OpenFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (std::thread &T : Connections)
    T.join();
  Core.drain();
  ::unlink(SocketPath.c_str());
  return 0;
}
