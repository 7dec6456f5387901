//===- serve/Server.h - Persistent analysis daemon core --------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edda-serve daemon core (docs/SERVING.md): a long-lived analysis
/// service that accepts LoopLang programs or raw dependence problems as
/// newline-delimited JSON, dispatches them onto the shared ThreadPool,
/// and answers from one concurrent sharded DependenceCache that
/// persists across requests — the serving generalization of the
/// paper's section 5 observation that real workloads ask the same
/// dependence questions over and over.
///
/// Consistency: each request runs a single-threaded DependenceAnalyzer
/// that shares the server's cache. Entries are first-insert-wins and
/// bit-identical to recomputation, so answers do not depend on request
/// interleaving; only the " (cached)" markers (and witnesses, which
/// the store drops) vary with cache temperature.
///
/// Lifecycle: an optional warm-start file is loaded at construction,
/// checkpointed periodically (evict-to-bound, then write-to-temp and
/// rename, so a crash mid-checkpoint never corrupts the store) and
/// saved again on graceful shutdown. Per-request timeouts degrade to
/// conservative answers via the Fourier-Motzkin work budgets — the
/// server never kills a worker thread.
///
/// Edit loop: the `edit` op holds one program per connection (or per
/// named session) in an IncrementalSession and re-analyzes each edited
/// version by fingerprint diff, splicing unchanged pairs from the
/// previous result. Responses come from the spliced dependence graph
/// and report pairs-reused versus pairs-invalidated per request.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SERVE_SERVER_H
#define EDDA_SERVE_SERVER_H

#include "deptest/Memo.h"
#include "deptest/TestPipeline.h"
#include "serve/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace edda {

struct AnalyzerOptions;

/// Daemon configuration (tools/edda-serve.cpp maps flags onto this).
struct ServeOptions {
  /// Worker threads for request dispatch; 0 = one per hardware core.
  unsigned NumThreads = 0;
  /// Requests dispatched before the transport applies backpressure:
  /// a connection may have up to 2*BatchSize responses in flight.
  unsigned BatchSize = 8;
  /// Warm-start / checkpoint file ("" = in-memory only). Loaded at
  /// boot when present (a missing file is a cold start, not an
  /// error); written by checkpoint().
  std::string CachePath;
  /// Seconds between periodic checkpoints (0 = only on shutdown).
  unsigned CheckpointIntervalSec = 0;
  /// Cache size bound enforced at checkpoint time via LRU-ish
  /// eviction (0 = unbounded).
  uint64_t MaxCacheEntries = 1u << 20;
  /// Server-default Fourier-Motzkin work budget applied to every
  /// request (0 = the library defaults, which match edda-cli).
  uint64_t RequestFmBudget = 0;
  /// Per-request soft deadline; converted to a work budget at boot by
  /// timing a canned branch-and-bound-heavy problem (0 = none). The
  /// budget, not the wall clock, is what stops a request: answers
  /// degrade to conservative '*'-vectors / assumed-dependent instead
  /// of a worker being killed mid-request.
  unsigned TimeoutMs = 0;
  /// Default dependence-test pipeline spec ("" = the paper's cascade).
  std::string PipelineSpec;
  /// Append one JSON line of per-request stats per request ("" = off).
  std::string StatsLogPath;
};

/// Server-lifetime counters (a stats-op snapshot; all monotone). The
/// server keeps one instance and adds each request's delta to it.
struct ServeStats {
  uint64_t Requests = 0;
  uint64_t AnalyzeRequests = 0;
  uint64_t FeaturesRequests = 0;
  uint64_t ProblemRequests = 0;
  uint64_t EditRequests = 0;
  uint64_t Errors = 0;
  /// Reference-pair accounting across analyze and features requests
  /// (both run a full analysis against the shared store). "Tested" ran
  /// the cascade, "cached" was served from the store; constant and
  /// unanalyzable pairs are never memoized, so the serving hit rate
  /// is PairsCached / (PairsCached + PairsTested), with problem-op
  /// decisions folded in.
  uint64_t PairsTested = 0;
  uint64_t PairsCached = 0;
  uint64_t PairsConstant = 0;
  uint64_t PairsUnanalyzable = 0;
  uint64_t ProblemsTested = 0;
  uint64_t ProblemsCached = 0;
  uint64_t TestsRun = 0;
  uint64_t MemoHitsFull = 0;
  uint64_t MemoHitsNoBounds = 0;
  uint64_t FmWork = 0;
  uint64_t WidenedQueries = 0;
  uint64_t DegradedRequests = 0;
  uint64_t WallNs = 0;
  uint64_t Checkpoints = 0;
  uint64_t Evicted = 0;
  uint64_t WarmLoadedEntries = 0;
  /// Warm-start entries dropped at boot because the file declared a
  /// stale cache format version (surfaced instead of silently
  /// cold-starting).
  uint64_t WarmRejectedEntries = 0;
  /// 1 when the warm-start file existed but was refused for any reason
  /// other than a stale format version: unreadable, cut short, or
  /// holding an out-of-range entry. Such a file adds no entry.
  uint64_t WarmFailedLoads = 0;
  /// Incremental accounting across edit requests: pairs whose previous
  /// outcome was spliced in because their content fingerprints were
  /// unchanged, versus pairs rebuilt and re-tested. The reuse ratio —
  /// not wall time — is the serving-side incremental claim.
  uint64_t PairsReused = 0;
  uint64_t PairsInvalidated = 0;

  ServeStats &operator+=(const ServeStats &RHS);

  /// Serving cache hit rate in percent (see PairsTested).
  double hitRatePct() const;
};

/// The daemon core, transport-agnostic: transports feed it request
/// lines and write back the response lines it produces. Thread-safe.
class ServeCore {
public:
  /// Loads the warm-start file (when configured and present), runs the
  /// timeout calibration, and starts the worker pool plus the periodic
  /// checkpoint thread. \p Error receives boot diagnostics (a corrupt
  /// warm-start file is reported there and treated as a cold start).
  explicit ServeCore(ServeOptions Opts, std::string *Error = nullptr);

  /// Drains in-flight work and, when a cache path is configured,
  /// writes a final checkpoint.
  ~ServeCore();

  ServeCore(const ServeCore &) = delete;
  ServeCore &operator=(const ServeCore &) = delete;

  /// Decodes and serves one request line, returning the response line
  /// (no trailing newline). Runs on the caller's thread; never throws
  /// and never returns an empty string — malformed input yields an
  /// ok:false response. \p ConnId scopes anonymous edit sessions to
  /// the issuing transport connection (0 = the stdio transport).
  std::string handleLine(const std::string &Line, uint64_t ConnId = 0);

  /// Serves one decoded request (the typed core of handleLine; the
  /// unit tests call this directly).
  ServeResponse handle(const ServeRequest &R, uint64_t ConnId = 0);

  /// Enqueues a request line onto the worker pool; \p Done is invoked
  /// on a worker thread with the response line.
  void submit(std::string Line, std::function<void(std::string)> Done,
              uint64_t ConnId = 0);

  /// Blocks until every submitted request has been answered.
  void drain();

  /// Evicts down to the configured bound and atomically rewrites the
  /// warm-start file (write temp, rename over). No-op without a cache
  /// path. Safe while requests are in flight.
  bool checkpoint();

  /// Set once a shutdown request has been acknowledged; transports
  /// stop accepting input and drain.
  bool shutdownRequested() const {
    return ShutdownFlag.load(std::memory_order_acquire);
  }

  ServeStats stats() const;
  DependenceCache &cache() { return Cache; }
  ThreadPool &pool() { return *Pool; }
  const ServeOptions &options() const { return Opts; }
  /// The effective server-default FM budget (flag or calibrated).
  uint64_t defaultFmBudget() const { return DefaultBudget; }

private:
  /// One request's answer as a handler computes it: the op-specific
  /// body and stats members plus the counter delta. handle() is the
  /// request envelope: it owns the clock, frames the response, counts
  /// errors, applies the delta and writes the stats-log line.
  struct Reply;
  Reply answer(const ServeRequest &R, uint64_t ConnId);
  Reply handleAnalyze(const ServeRequest &R);
  /// Serves one features request: a full analysis with directions
  /// forced on, answered as the per-nest feature summary
  /// (analysis/Features.h) instead of a rendered report.
  Reply handleFeatures(const ServeRequest &R);
  Reply handleProblem(const ServeRequest &R);
  /// Serves one edit request against the per-connection (or named)
  /// IncrementalSession, splicing unchanged pairs from the previous
  /// analysis and answering from the spliced graph.
  Reply handleEdit(const ServeRequest &R, uint64_t ConnId);
  JsonValue statsJson() const;

  /// Fills \p AO with a request's single-threaded analyzer options:
  /// its pipeline (false + \p Error on a bad spec), prepass and widen
  /// flags, and FM budget. A non-zero \p FmBudget overrides the server
  /// default; any override of the server's settings turns memoization
  /// off.
  bool analyzerOptions(const ServeRequest &R, uint64_t FmBudget,
                       AnalyzerOptions &AO, std::string &Error);

  void count(const ServeStats &Delta);
  void logRequest(const JsonValue &Entry);
  void checkpointLoop();

  ServeOptions Opts;
  uint64_t DefaultBudget = 0;
  DependenceCache Cache;
  std::unique_ptr<ThreadPool> Pool;

  /// Edit-session registry, keyed "conn:<id>" for anonymous
  /// connection-scoped programs and "user:<name>" for named ones.
  /// Sessions hold their own analyzer (and memo state) because
  /// fingerprint invalidation must track one program's lifetime, not
  /// the shared store; a small LRU bound caps abandoned sessions.
  /// Requests touching one session serialize on its own mutex, so
  /// edits to different sessions still run concurrently.
  struct EditSession;
  mutable std::mutex SessionsMutex;
  std::map<std::string, std::shared_ptr<EditSession>> Sessions;
  uint64_t SessionClock = 0;

  std::mutex LogMutex;
  std::ofstream LogStream;

  /// Serializes checkpoints (periodic thread vs checkpoint op).
  std::mutex CheckpointMutex;
  std::thread CheckpointThread;
  std::mutex CheckpointCvMutex;
  std::condition_variable CheckpointCv;
  bool StopCheckpointThread = false;

  std::atomic<bool> ShutdownFlag{false};

  mutable std::mutex StatsMutex;
  ServeStats Totals;
};

/// Serves newline-delimited requests from stdin to stdout until EOF or
/// a shutdown request; responses may interleave out of request order.
/// Returns the process exit code.
int runStdioServer(ServeCore &Core);

/// Listens on a Unix-domain socket, serving each connection's request
/// lines through the core with per-connection backpressure (at most
/// 2*BatchSize responses in flight per connection). Returns when
/// \p Stop becomes true (signal) or a shutdown request is served.
/// Removes the socket file on exit.
int runUnixServer(ServeCore &Core, const std::string &SocketPath,
                  const std::atomic<bool> &Stop, std::string *Error);

} // namespace edda

#endif // EDDA_SERVE_SERVER_H
