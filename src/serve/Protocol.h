//===- serve/Protocol.h - edda-serve wire protocol -------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol spoken by edda-serve (one
/// request object per line in, one response object per line out; see
/// docs/SERVING.md for the schema). Both sides are in this file so the
/// server, the client library and the tests cannot drift apart.
///
/// Responses carry the request's `id` and may arrive out of order —
/// the server dispatches onto a thread pool and answers as work
/// finishes. Clients match on `id`.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SERVE_PROTOCOL_H
#define EDDA_SERVE_PROTOCOL_H

#include "serve/Json.h"

#include <cstdint>
#include <optional>
#include <string>

namespace edda {

/// One request line. Operations:
///   analyze     decide every reference pair of a LoopLang program
///   features    analyze a LoopLang program (directions forced on) and
///               answer with the per-nest feature summary JSON
///               (analysis/Features.h schema) instead of a report
///   problem     decide one raw DependenceProblem (ProblemIO format)
///   edit        replace a session's program with an edited version and
///               re-analyze incrementally (fingerprint diff + graph
///               splice); the payload is the full edited program, not a
///               patch — the fingerprints find what changed
///   stats       server-lifetime counters (no payload)
///   ping        liveness probe (no payload)
///   checkpoint  force a warm-start checkpoint now (no payload)
///   shutdown    acknowledge, then drain and exit
struct ServeRequest {
  /// Shutdown stays last: the op-name lookup walks the ops up to it.
  enum class Op {
    Analyze,
    Features,
    Problem,
    Edit,
    Stats,
    Ping,
    Checkpoint,
    Shutdown
  };

  int64_t Id = 0;
  Op Operation = Op::Ping;
  /// LoopLang source (analyze) or ProblemIO text (problem).
  std::string Payload;
  bool Directions = false;
  bool Explain = false;
  bool Widen = true;
  bool Prepass = true;
  /// Suppress the " (cached)" markers in the rendered text. The
  /// serving smoke diffs served reports against a fresh edda-cli run,
  /// where hit patterns legitimately differ.
  bool CacheMarkers = true;
  /// Dependence-test pipeline spec; empty selects the server default.
  std::string PipelineSpec;
  /// Per-request Fourier-Motzkin work budget override (0 = server
  /// default). Budgeted requests degrade to conservative answers when
  /// the budget runs out and bypass the shared memo store, so a
  /// degraded answer is never served to an unbudgeted request. Not
  /// accepted on edit requests: a one-off budget could splice degraded
  /// answers into every later re-analysis of the session.
  uint64_t FmBudget = 0;
  /// Edit requests only: names the server-side program the edit
  /// applies to. Empty scopes the session to the connection (each
  /// transport connection gets its own anonymous program); non-empty
  /// names are shared across connections, so separate clients can
  /// take turns editing one program.
  std::string Session;

  /// analyze, features, problem and edit carry a payload; each answers
  /// with a report, per-request stats and a stats-log line.
  bool hasPayload() const {
    return Operation == Op::Analyze || Operation == Op::Features ||
           Operation == Op::Problem || Operation == Op::Edit;
  }

  JsonValue toJson() const;
};

/// Decodes one request line. Returns nullopt and sets \p Error on
/// malformed input; \p IdOut receives the id when one was present (so
/// error responses can still echo it).
std::optional<ServeRequest> parseServeRequest(const std::string &Line,
                                              std::string *Error,
                                              int64_t *IdOut = nullptr);

/// One decoded response line. `Body` is the full response object, so
/// structured consumers (the throughput bench, the smoke's stats
/// collector) can reach the per-request stats without re-parsing.
struct ServeResponse {
  int64_t Id = 0;
  bool Ok = false;
  std::string Error;
  /// The rendered report (analyze/problem), byte-identical to what
  /// edda-cli prints for the same input and options.
  std::string Text;
  JsonValue Body;
};

/// Decodes one response line (nullopt + \p Error on malformed input).
std::optional<ServeResponse> parseServeResponse(const std::string &Line,
                                                std::string *Error);

const char *serveOpName(ServeRequest::Op Operation);

/// Writes \p Line and its newline to socket \p Fd, retrying short
/// writes; false (with errno set) on a transport error.
bool sendLine(int Fd, std::string Line);

/// Splits one socket's byte stream into protocol lines.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}

  /// The next line, without its newline; nullopt on EOF or a read
  /// error (the error is described in \p Error when given).
  std::optional<std::string> next(std::string *Error = nullptr);

private:
  int Fd;
  std::string Buf;
};

} // namespace edda

#endif // EDDA_SERVE_PROTOCOL_H
