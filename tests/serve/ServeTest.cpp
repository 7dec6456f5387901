//===- tests/serve/ServeTest.cpp - edda-serve core tests ------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the serving layer (docs/SERVING.md): the NDJSON
/// protocol round-trips, ServeCore answers match a direct analyzer
/// run byte-for-byte (modulo cache markers), the shared store turns
/// repeat requests into hits, warm-start checkpoints reload, and
/// per-request budget overrides bypass the store.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "analysis/Analyzer.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Features.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

using namespace edda;

namespace {

/// A nest with a carried dependence, a wavefront pair, and a
/// duplicated statement so one analyze request already exercises the
/// intra-run memo path.
const char *demoSource() {
  return "program served\n"
         "  array a[100]\n"
         "  array w[40][40]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "  for i = 2 to 20 do\n"
         "    for j = 1 to 19 do\n"
         "      w[i][j] = w[i - 1][j + 1] + 1\n"
         "    end\n"
         "  end\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "end\n";
}

/// The coupled-subscript problem the Fourier-Motzkin stage decides
/// (tests/inputs/coupled.dep).
const char *coupledProblem() {
  return "problem\n"
         "  loops 2 2 common 2 symbolic 0\n"
         "  eq 1 1 -1 -1 = -5\n"
         "  lo 0 : 1\n"
         "  hi 0 : 10\n"
         "  lo 1 : 1\n"
         "  hi 1 : 10\n"
         "  lo 2 : 1\n"
         "  hi 2 : 10\n"
         "  lo 3 : 1\n"
         "  hi 3 : 10\n"
         "end\n";
}

/// The serve-smoke normalization: cache-hit markers depend on store
/// temperature, the answers must not.
std::string stripCached(std::string Text) {
  const std::string Marker = " (cached)";
  for (size_t Pos; (Pos = Text.find(Marker)) != std::string::npos;)
    Text.erase(Pos, Marker.size());
  return Text;
}

ServeRequest analyzeRequest(int64_t Id, bool Directions = true) {
  ServeRequest R;
  R.Id = Id;
  R.Operation = ServeRequest::Op::Analyze;
  R.Payload = demoSource();
  R.Directions = Directions;
  return R;
}

/// demoSource() after one subscript edit in the first nest; the other
/// two nests are untouched, so an incremental re-analysis reuses
/// their pairs.
const char *demoSourceEdited() {
  return "program served\n"
         "  array a[100]\n"
         "  array w[40][40]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 2] = a[i] + 3\n"
         "  end\n"
         "  for i = 2 to 20 do\n"
         "    for j = 1 to 19 do\n"
         "      w[i][j] = w[i - 1][j + 1] + 1\n"
         "    end\n"
         "  end\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "end\n";
}

ServeRequest editRequest(int64_t Id, const char *Source,
                         const std::string &Session = "") {
  ServeRequest R;
  R.Id = Id;
  R.Operation = ServeRequest::Op::Edit;
  R.Payload = Source;
  R.Directions = true;
  R.CacheMarkers = false;
  R.Session = Session;
  return R;
}

} // namespace

TEST(ServeProtocol, RequestRoundTrip) {
  ServeRequest R;
  R.Id = 42;
  R.Operation = ServeRequest::Op::Analyze;
  R.Payload = "program p\nend\n";
  R.Directions = true;
  R.Explain = true;
  R.Widen = false;
  R.Prepass = false;
  R.CacheMarkers = false;
  R.PipelineSpec = "gcd,fm";
  R.FmBudget = 123;

  std::string Error;
  std::optional<ServeRequest> Back =
      parseServeRequest(R.toJson().str(), &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Id, 42);
  EXPECT_EQ(Back->Operation, ServeRequest::Op::Analyze);
  EXPECT_EQ(Back->Payload, R.Payload);
  EXPECT_TRUE(Back->Directions);
  EXPECT_TRUE(Back->Explain);
  EXPECT_FALSE(Back->Widen);
  EXPECT_FALSE(Back->Prepass);
  EXPECT_FALSE(Back->CacheMarkers);
  EXPECT_EQ(Back->PipelineSpec, "gcd,fm");
  EXPECT_EQ(Back->FmBudget, 123u);
}

TEST(ServeProtocol, EveryOpRoundTrips) {
  using Op = ServeRequest::Op;
  for (Op Operation : {Op::Analyze, Op::Problem, Op::Edit, Op::Stats,
                       Op::Ping, Op::Checkpoint, Op::Shutdown}) {
    ServeRequest R;
    R.Id = 7;
    R.Operation = Operation;
    std::string Error;
    std::optional<ServeRequest> Back =
        parseServeRequest(R.toJson().str(), &Error);
    ASSERT_TRUE(Back.has_value())
        << serveOpName(Operation) << ": " << Error;
    EXPECT_EQ(Back->Operation, Operation);
  }
}

TEST(ServeProtocol, MalformedLinesRejectedWithIdEcho) {
  std::string Error;
  int64_t Id = -1;
  EXPECT_FALSE(parseServeRequest("not json", &Error, &Id).has_value());
  EXPECT_FALSE(Error.empty());

  // A decodable id in an otherwise-bad request still comes back, so
  // the server can address its error response.
  Error.clear();
  EXPECT_FALSE(
      parseServeRequest("{\"id\":9,\"op\":\"bogus\"}", &Error, &Id)
          .has_value());
  EXPECT_EQ(Id, 9);
  EXPECT_FALSE(Error.empty());
}

TEST(Serve, PingAndShutdownOps) {
  ServeCore Core(ServeOptions{});
  ServeRequest Ping;
  Ping.Id = 1;
  Ping.Operation = ServeRequest::Op::Ping;
  ServeResponse R = Core.handle(Ping);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Id, 1);

  EXPECT_FALSE(Core.shutdownRequested());
  ServeRequest Down;
  Down.Id = 2;
  Down.Operation = ServeRequest::Op::Shutdown;
  EXPECT_TRUE(Core.handle(Down).Ok);
  EXPECT_TRUE(Core.shutdownRequested());
}

TEST(Serve, AnalyzeMatchesDirectAnalyzerRender) {
  ServeCore Core(ServeOptions{});
  ServeResponse Served = Core.handle(analyzeRequest(1));
  ASSERT_TRUE(Served.Ok) << Served.Error;

  // The reference: what edda-cli computes for the same input — a
  // fresh single-threaded analyzer through the shared renderer.
  ParseResult Parsed = parseProgram(demoSource());
  ASSERT_TRUE(Parsed.succeeded());
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  DependenceAnalyzer Direct(AO);
  AnalysisResult Result = Direct.analyze(*Parsed.Prog);
  ReportOptions Report;
  Report.Directions = true;
  std::string Want = renderAnalysisReport(*Parsed.Prog, Result, Report);

  EXPECT_EQ(stripCached(Served.Text), stripCached(Want));
}

TEST(Serve, RepeatRequestServedFromSharedStore) {
  ServeCore Core(ServeOptions{});
  ServeResponse Cold = Core.handle(analyzeRequest(1));
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ServeStats AfterCold = Core.stats();
  EXPECT_GT(AfterCold.PairsTested, 0u);

  ServeResponse Warm = Core.handle(analyzeRequest(2));
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  ServeStats AfterWarm = Core.stats();
  // Every memoizable pair of the repeat request hits the store, and
  // the answers are bit-identical modulo the hit markers.
  EXPECT_EQ(AfterWarm.PairsTested, AfterCold.PairsTested);
  EXPECT_GT(AfterWarm.PairsCached, AfterCold.PairsCached);
  EXPECT_EQ(stripCached(Warm.Text), stripCached(Cold.Text));
  // The repeat round at least doubles the cached share.
  EXPECT_GE(AfterWarm.hitRatePct(), 50.0);
}

TEST(Serve, CacheMarkersSuppressedOnRequest) {
  ServeCore Core(ServeOptions{});
  ASSERT_TRUE(Core.handle(analyzeRequest(1)).Ok);
  ServeRequest R = analyzeRequest(2);
  R.CacheMarkers = false;
  ServeResponse Warm = Core.handle(R);
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Text.find(" (cached)"), std::string::npos);
}

TEST(Serve, ProblemOpDecidesAndMemoizes) {
  ServeCore Core(ServeOptions{});
  ServeRequest R;
  R.Id = 1;
  R.Operation = ServeRequest::Op::Problem;
  R.Payload = coupledProblem();
  R.Directions = true;
  ServeResponse Cold = Core.handle(R);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_NE(Cold.Text.find("answer: dependent"), std::string::npos)
      << Cold.Text;
  EXPECT_EQ(Core.stats().ProblemsTested, 1u);

  R.Id = 2;
  ServeResponse Warm = Core.handle(R);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Core.stats().ProblemsCached, 1u);
  // The store drops witnesses, so compare answer lines, not bytes.
  EXPECT_NE(Warm.Text.find("answer: dependent"), std::string::npos)
      << Warm.Text;
}

TEST(Serve, HandleLineReportsErrorsInBand) {
  ServeCore Core(ServeOptions{});
  std::string Error;

  std::optional<ServeResponse> R =
      parseServeResponse(Core.handleLine("not json"), &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_FALSE(R->Ok);
  EXPECT_FALSE(R->Error.empty());

  // A parse error in the payload is an ok:false response that still
  // echoes the request id.
  R = parseServeResponse(
      Core.handleLine(
          "{\"id\":5,\"op\":\"analyze\",\"program\":\"for for\"}"),
      &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->Id, 5);
  EXPECT_FALSE(R->Ok);
  EXPECT_NE(R->Error.find("parse error"), std::string::npos);
  EXPECT_EQ(Core.stats().Errors, 2u);
}

TEST(Serve, StatsOpSnapshotsCounters) {
  ServeCore Core(ServeOptions{});
  ASSERT_TRUE(Core.handle(analyzeRequest(1)).Ok);
  ServeRequest R;
  R.Id = 2;
  R.Operation = ServeRequest::Op::Stats;
  ServeResponse S = Core.handle(R);
  ASSERT_TRUE(S.Ok) << S.Error;
  const JsonValue &Stats = S.Body.get("server");
  ASSERT_TRUE(Stats.isObject()) << S.Body.str();
  EXPECT_EQ(Stats.getInt("analyze_requests"), 1);
  EXPECT_TRUE(Stats.get("hit_rate_pct").isNumber());
}

TEST(Serve, CheckpointThenWarmReload) {
  std::string Path = ::testing::TempDir() + "/edda_serve_warm.txt";
  std::remove(Path.c_str());
  std::string ColdText;
  {
    ServeOptions Opts;
    Opts.CachePath = Path;
    std::string Error;
    ServeCore Core(Opts, &Error);
    ASSERT_TRUE(Error.empty()) << Error;
    EXPECT_EQ(Core.stats().WarmLoadedEntries, 0u);
    EXPECT_EQ(Core.stats().WarmFailedLoads, 0u); // A missing file.
    ServeResponse Cold = Core.handle(analyzeRequest(1));
    ASSERT_TRUE(Cold.Ok) << Cold.Error;
    ColdText = stripCached(Cold.Text);
    ASSERT_TRUE(Core.checkpoint());
    EXPECT_GE(Core.stats().Checkpoints, 1u);
  }

  ServeOptions Opts;
  Opts.CachePath = Path;
  std::string Error;
  ServeCore Warm(Opts, &Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_GT(Warm.stats().WarmLoadedEntries, 0u);
  EXPECT_EQ(Warm.stats().WarmFailedLoads, 0u);
  ServeResponse R = Warm.handle(analyzeRequest(1));
  ASSERT_TRUE(R.Ok) << R.Error;
  // The whole repeat round is answered from the reloaded store, and
  // the report matches the cold run byte-for-byte modulo markers.
  EXPECT_EQ(Warm.stats().PairsTested, 0u);
  EXPECT_GT(Warm.stats().PairsCached, 0u);
  EXPECT_EQ(stripCached(R.Text), ColdText);
  std::remove(Path.c_str());
}

TEST(Serve, BudgetedRequestBypassesSharedStore) {
  ServeCore Core(ServeOptions{});
  ServeRequest R = analyzeRequest(1);
  R.FmBudget = 1; // Degrades FM decisions; must not enter the store.
  ASSERT_TRUE(Core.handle(R).Ok);
  EXPECT_EQ(Core.cache().uniqueFull(), 0u);

  // The unbudgeted retry computes and memoizes the real answers.
  ASSERT_TRUE(Core.handle(analyzeRequest(2)).Ok);
  EXPECT_GT(Core.cache().uniqueFull(), 0u);
}

TEST(Serve, PipelineOverrideBypassesSharedStore) {
  // Stages a request's pipeline leaves out cannot decide, so its
  // answers must never be served to a default request.
  std::string Fresh =
      stripCached(ServeCore(ServeOptions{}).handle(analyzeRequest(1)).Text);
  ServeCore Core(ServeOptions{});
  ServeRequest R = analyzeRequest(1);
  R.PipelineSpec = "gcd";
  ASSERT_TRUE(Core.handle(R).Ok);
  EXPECT_EQ(Core.cache().uniqueFull(), 0u);
  EXPECT_EQ(stripCached(Core.handle(analyzeRequest(2)).Text), Fresh);

  // "default" names the server's own pipeline and shares the store.
  ServeRequest P;
  P.Operation = ServeRequest::Op::Problem;
  P.Payload = coupledProblem();
  ASSERT_TRUE(Core.handle(P).Ok);
  P.PipelineSpec = "default";
  ASSERT_TRUE(Core.handle(P).Ok);
  EXPECT_EQ(Core.stats().ProblemsCached, 1u);
}

TEST(Serve, NoWidenRequestBypassesSharedStore) {
  // 3i - 7i' + 1 = 0 over near-full int64 bounds
  // (tests/inputs/corpus/widen_svpc_huge_bounds.dep): only the 128-bit
  // tier decides it, so a --no-widen answer is not the server's.
  ServeRequest R;
  R.Id = 1;
  R.Operation = ServeRequest::Op::Problem;
  R.Payload = "problem\n"
              "  loops 1 1 common 1 symbolic 0\n"
              "  eq 3 -7 = 1\n"
              "  lo 0 : -9223372036854775806\n"
              "  hi 0 : 9223372036854775805\n"
              "  lo 1 : -9223372036854775806\n"
              "  hi 1 : 9223372036854775805\n"
              "end\n";
  R.Widen = false;
  ServeCore Core(ServeOptions{});
  ServeResponse Narrow = Core.handle(R);
  ASSERT_TRUE(Narrow.Ok) << Narrow.Error;
  EXPECT_EQ(Narrow.Body.getString("answer"), "unknown");

  R.Widen = true;
  ServeResponse Wide = Core.handle(R);
  ASSERT_TRUE(Wide.Ok) << Wide.Error;
  EXPECT_EQ(Wide.Body.getString("answer"), "dependent");
  EXPECT_EQ(Wide.Body.getString("decided_by"), "SVPC");
  EXPECT_EQ(Core.stats().ProblemsCached, 0u);
}

TEST(Serve, SubmitDispatchesConcurrently) {
  ServeOptions Opts;
  Opts.NumThreads = 4;
  ServeCore Core(Opts);

  std::mutex Mutex;
  std::vector<std::string> Responses;
  const unsigned N = 32;
  for (unsigned I = 0; I < N; ++I) {
    ServeRequest R = analyzeRequest(static_cast<int64_t>(I + 1));
    Core.submit(R.toJson().str(), [&](std::string Resp) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Responses.push_back(std::move(Resp));
    });
  }
  Core.drain();

  ASSERT_EQ(Responses.size(), N);
  std::string WantText;
  for (const std::string &Line : Responses) {
    std::string Error;
    std::optional<ServeResponse> R = parseServeResponse(Line, &Error);
    ASSERT_TRUE(R.has_value()) << Error;
    EXPECT_TRUE(R->Ok) << R->Error;
    EXPECT_GE(R->Id, 1);
    EXPECT_LE(R->Id, static_cast<int64_t>(N));
    // First-insert-wins store: every interleaving renders the same
    // report (only the hit markers differ).
    std::string Text = stripCached(R->Text);
    if (WantText.empty())
      WantText = Text;
    else
      EXPECT_EQ(Text, WantText);
  }
  EXPECT_EQ(Core.stats().Requests, N);
}

TEST(ServeProtocol, EditRequestCarriesSessionAndProgram) {
  ServeRequest R;
  R.Id = 3;
  R.Operation = ServeRequest::Op::Edit;
  R.Payload = "program p\nend\n";
  R.Session = "alice";
  R.Directions = true;

  std::string Error;
  std::optional<ServeRequest> Back =
      parseServeRequest(R.toJson().str(), &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Operation, ServeRequest::Op::Edit);
  EXPECT_EQ(Back->Payload, R.Payload);
  EXPECT_EQ(Back->Session, "alice");
  EXPECT_TRUE(Back->Directions);
}

TEST(ServeProtocol, FmBudgetRejectedOnEditRequests) {
  // A one-off budget would splice degraded answers into the session's
  // later re-analyses, so the protocol layer rejects the combination.
  ServeRequest R;
  R.Id = 4;
  R.Operation = ServeRequest::Op::Edit;
  R.Payload = "program p\nend\n";
  R.FmBudget = 9;
  std::string Error;
  EXPECT_FALSE(parseServeRequest(R.toJson().str(), &Error).has_value());
  EXPECT_NE(Error.find("fm_budget"), std::string::npos) << Error;
}

TEST(Serve, EditOpIncrementalMatchesAnalyze) {
  ServeCore Core(ServeOptions{});

  // The opening edit has no previous version: every pair is fresh.
  ServeResponse First = Core.handle(editRequest(1, demoSource()));
  ASSERT_TRUE(First.Ok) << First.Error;
  const JsonValue &S1 = First.Body.get("stats");
  ASSERT_TRUE(S1.isObject()) << First.Body.str();
  EXPECT_GT(S1.getInt("pairs"), 0);
  EXPECT_EQ(S1.getInt("pairs_reused"), 0);
  EXPECT_EQ(S1.getInt("pairs_invalidated"), S1.getInt("pairs"));
  EXPECT_EQ(First.Body.getString("session"), "conn:0");

  // One subscript edit: the untouched nests splice through.
  ServeResponse Second = Core.handle(editRequest(2, demoSourceEdited()));
  ASSERT_TRUE(Second.Ok) << Second.Error;
  const JsonValue &S2 = Second.Body.get("stats");
  EXPECT_GT(S2.getInt("pairs_reused"), 0);
  EXPECT_LT(S2.getInt("pairs_invalidated"), S2.getInt("pairs"));

  // The spliced report and graph are bit-identical to a from-scratch
  // run on the edited program.
  ParseResult Parsed = parseProgram(demoSourceEdited());
  ASSERT_TRUE(Parsed.succeeded());
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  DependenceAnalyzer Direct(AO);
  AnalysisResult Result = Direct.analyze(*Parsed.Prog);
  ReportOptions Report;
  Report.Directions = true;
  std::string Want = renderAnalysisReport(*Parsed.Prog, Result, Report);
  EXPECT_EQ(stripCached(Second.Text), stripCached(Want));
  DependenceGraph WantGraph = DependenceGraph::buildFromResult(Result);
  EXPECT_EQ(Second.Body.getString("graph"), WantGraph.str(*Parsed.Prog));
}

TEST(Serve, EditSessionsIsolatedByConnAndName) {
  ServeCore Core(ServeOptions{});

  // Anonymous sessions are connection-scoped: the same program on a
  // different connection starts cold.
  ServeResponse A = Core.handle(editRequest(1, demoSource()), /*ConnId=*/1);
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_EQ(A.Body.getString("session"), "conn:1");
  ServeResponse B = Core.handle(editRequest(2, demoSource()), /*ConnId=*/2);
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(B.Body.getString("session"), "conn:2");
  EXPECT_EQ(B.Body.get("stats").getInt("pairs_reused"), 0);

  // Re-sending the unchanged program on the original connection
  // reuses every pair.
  ServeResponse C = Core.handle(editRequest(3, demoSource()), 1);
  ASSERT_TRUE(C.Ok) << C.Error;
  const JsonValue &SC = C.Body.get("stats");
  EXPECT_EQ(SC.getInt("pairs_reused"), SC.getInt("pairs"));
  EXPECT_EQ(SC.getInt("pairs_invalidated"), 0);

  // A named session is shared across connections.
  ServeResponse N1 =
      Core.handle(editRequest(4, demoSource(), "shared"), 1);
  ASSERT_TRUE(N1.Ok) << N1.Error;
  EXPECT_EQ(N1.Body.getString("session"), "user:shared");
  ServeResponse N2 =
      Core.handle(editRequest(5, demoSource(), "shared"), 2);
  ASSERT_TRUE(N2.Ok) << N2.Error;
  const JsonValue &SN = N2.Body.get("stats");
  EXPECT_EQ(SN.getInt("pairs_reused"), SN.getInt("pairs"));
}

TEST(Serve, StatsOpReportsEditCounters) {
  ServeCore Core(ServeOptions{});
  ASSERT_TRUE(Core.handle(editRequest(1, demoSource())).Ok);
  ASSERT_TRUE(Core.handle(editRequest(2, demoSourceEdited())).Ok);

  ServeRequest R;
  R.Id = 3;
  R.Operation = ServeRequest::Op::Stats;
  ServeResponse S = Core.handle(R);
  ASSERT_TRUE(S.Ok) << S.Error;
  const JsonValue &Stats = S.Body.get("server");
  ASSERT_TRUE(Stats.isObject()) << S.Body.str();
  EXPECT_EQ(Stats.getInt("edit_requests"), 2);
  EXPECT_GT(Stats.getInt("pairs_reused"), 0);
  EXPECT_GT(Stats.getInt("pairs_invalidated"), 0);
  EXPECT_EQ(Stats.getInt("edit_sessions"), 1);
  EXPECT_EQ(Stats.getInt("warm_rejected_entries"), 0);
  ServeStats Snapshot = Core.stats();
  EXPECT_EQ(Snapshot.EditRequests, 2u);
  EXPECT_GT(Snapshot.PairsReused, 0u);
}

TEST(Serve, WarmStartRejectsStaleFormatVersion) {
  // A v5 cache file (the pre-fingerprint format) must be rejected
  // loudly: the boot diagnostic names the stale version and the
  // rejected-entry count is surfaced instead of a silent cold start.
  std::string Path = ::testing::TempDir() + "/edda_serve_v5.txt";
  {
    std::ofstream Out(Path);
    Out << "edda-depcache 5\n2\n3 1 2 3\n1 5 1 0\n3 4 5 6\n0 7 1 0\n"
           "1\n2 9 9\n1 5 1 0 0 1 1\n1 0\nd 1\n3\n";
  }
  ServeOptions Opts;
  Opts.CachePath = Path;
  std::string Error;
  ServeCore Core(Opts, &Error);
  EXPECT_NE(Error.find("stale format version 5"), std::string::npos)
      << Error;
  EXPECT_EQ(Core.stats().WarmLoadedEntries, 0u);
  EXPECT_EQ(Core.stats().WarmRejectedEntries, 6u);
  EXPECT_EQ(Core.stats().WarmFailedLoads, 0u);
  // The server still comes up and serves cold.
  EXPECT_TRUE(Core.handle(analyzeRequest(1)).Ok);
  std::remove(Path.c_str());
}

namespace {

/// Rewrites the cache file at \p Path so that every direction entry
/// says it was decided by test kind 42, past the last one; returns how
/// many entries it rewrote.
size_t giveDirectionsHostileDecidedBy(const std::string &Path) {
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    for (std::string L; std::getline(In, L);)
      Lines.push_back(L);
  }
  // Header, then the full section: a count and two lines per entry.
  size_t At = 1;
  At += 1 + 2 * std::stoul(Lines[At]);
  const size_t NumDirs = std::stoul(Lines[At++]);
  for (size_t E = 0; E < NumDirs; ++E) {
    ++At; // The key.
    std::istringstream Header(Lines[At]);
    std::string Root, DecidedBy, Exact, Widened, RootWidened, Tag;
    size_t NumVectors = 0, NumDistances = 0;
    Header >> Root >> DecidedBy >> Exact >> Widened >> RootWidened >> Tag >>
        NumVectors >> NumDistances;
    Lines[At] = Root + " 42 " + Exact + " " + Widened + " " + RootWidened +
                " " + Tag + " " + std::to_string(NumVectors) + " " +
                std::to_string(NumDistances);
    At += 1 + NumVectors + NumDistances;
  }
  std::ofstream Out(Path);
  for (const std::string &L : Lines)
    Out << L << "\n";
  return NumDirs;
}

ServeRequest featuresRequest(int64_t Id) {
  ServeRequest R;
  R.Id = Id;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = demoSource();
  return R;
}

} // namespace

TEST(Serve, WarmStartRejectsHostileCheckpoint) {
  // A current-format checkpoint whose direction entries name a test
  // kind out of range is refused whole: the daemon cold-starts with a
  // diagnostic, and a features request (which counts decisions per
  // kind) answers as it did before the checkpoint.
  std::string Path = ::testing::TempDir() + "/edda_serve_hostile.txt";
  std::remove(Path.c_str());
  std::string ColdText;
  {
    ServeOptions Opts;
    Opts.CachePath = Path;
    ServeCore Core(Opts);
    ServeResponse Cold = Core.handle(featuresRequest(1));
    ASSERT_TRUE(Cold.Ok) << Cold.Error;
    ColdText = Cold.Text;
    ASSERT_TRUE(Core.checkpoint());
  }
  ASSERT_GT(giveDirectionsHostileDecidedBy(Path), 0u);

  ServeOptions Opts;
  Opts.CachePath = Path;
  std::string Error;
  ServeCore Warm(Opts, &Error);
  EXPECT_NE(Error.find("bad format; cold-starting"), std::string::npos)
      << Error;
  EXPECT_EQ(Warm.stats().WarmLoadedEntries, 0u);
  EXPECT_EQ(Warm.stats().WarmRejectedEntries, 0u);
  EXPECT_EQ(Warm.stats().WarmFailedLoads, 1u);
  EXPECT_EQ(Warm.cache().uniqueFull(), 0u);
  EXPECT_EQ(Warm.cache().uniqueDirections(), 0u);
  EXPECT_EQ(Warm.cache().uniqueNoBounds(), 0u);
  ServeResponse R = Warm.handle(featuresRequest(2));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Text, ColdText);
  std::remove(Path.c_str());
}

TEST(Serve, BadPipelineSpecIsAnError) {
  ServeCore Core(ServeOptions{});
  ServeRequest R = analyzeRequest(1);
  R.PipelineSpec = "definitely-not-a-test";
  ServeResponse Resp = Core.handle(R);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("pipeline"), std::string::npos);
  // In-process callers of handle() see the error counted too.
  EXPECT_EQ(Core.stats().Errors, 1u);
}

TEST(ServeProtocol, FeaturesRequestRoundTrips) {
  ServeRequest R;
  R.Id = 9;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = demoSource();
  std::string Error;
  int64_t Id = 0;
  std::optional<ServeRequest> Back =
      parseServeRequest(R.toJson().str(), &Error, &Id);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Operation, ServeRequest::Op::Features);
  EXPECT_EQ(Back->Payload, demoSource());
}

TEST(Serve, FeaturesOpMatchesDirectExtractor) {
  ServeCore Core(ServeOptions{});
  ServeRequest R;
  R.Id = 1;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = demoSource();
  ServeResponse Served = Core.handle(R);
  ASSERT_TRUE(Served.Ok) << Served.Error;

  // The reference: a fresh directions analysis through the extractor.
  // The served Text must be the byte-identical NDJSON object, and the
  // structured body must carry it under "features".
  ParseResult Parsed = parseProgram(demoSource());
  ASSERT_TRUE(Parsed.succeeded());
  AnalyzerOptions AO;
  AO.ComputeDirections = true;
  DependenceAnalyzer Direct(AO);
  AnalysisResult Result = Direct.analyze(*Parsed.Prog);
  std::string Want = extractFeatures(*Parsed.Prog, Result).str();

  EXPECT_EQ(Served.Text, Want);
  EXPECT_EQ(Served.Text.find('\n'), std::string::npos);
  const JsonValue *Body = Served.Body.find("features");
  ASSERT_NE(Body, nullptr);
  EXPECT_EQ(Body->str(), Want);
  EXPECT_EQ(Body->getString("schema"), "edda-features-v1");

  // The op is counted in the stats snapshot.
  ServeStats Stats = Core.stats();
  EXPECT_EQ(Stats.FeaturesRequests, 1u);
}

TEST(Serve, FeaturesOpReportsParseErrorsInBand) {
  ServeCore Core(ServeOptions{});
  ServeRequest R;
  R.Id = 2;
  R.Operation = ServeRequest::Op::Features;
  R.Payload = "program broken\n  for i = 1 to do\nend\n";
  ServeResponse Served = Core.handle(R);
  EXPECT_FALSE(Served.Ok);
  EXPECT_FALSE(Served.Error.empty());
  EXPECT_EQ(Served.Id, 2);
}

namespace {

/// Two small nests; the edited version changes only the first, so an
/// edit re-analysis reuses the second nest's pair.
const char *goldenSource() {
  return "program golden\n"
         "  array a[100]\n"
         "  array b[100]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 1] = a[i] + 3\n"
         "  end\n"
         "  for i = 2 to 10 do\n"
         "    b[i] = 1\n"
         "  end\n"
         "end\n";
}

const char *goldenSourceEdited() {
  return "program golden\n"
         "  array a[100]\n"
         "  array b[100]\n"
         "  for i = 1 to 10 do\n"
         "    a[i + 2] = a[i] + 3\n"
         "  end\n"
         "  for i = 2 to 10 do\n"
         "    b[i] = 1\n"
         "  end\n"
         "end\n";
}

/// A 2-deep triangular nest with coupled subscripts: Fourier-Motzkin
/// decides its flow pair, so a one-combine budget degrades it.
const char *coupledSource() {
  return "program coupled\n"
         "  array a[400][700]\n"
         "  for i = 1 to 100 do\n"
         "    for j = i to 100 do\n"
         "      a[i + j + 1][i - 2 * j + 300] = a[i + j][j + 300]\n"
         "    end\n"
         "  end\n"
         "end\n";
}

ServeRequest request(int64_t Id, ServeRequest::Op Operation,
                     const char *Payload = "") {
  ServeRequest R;
  R.Id = Id;
  R.Operation = Operation;
  R.Payload = Payload;
  return R;
}

/// A response body or stats-log line with its wall times zeroed: the
/// per-request `wall_ns` and the per-stage `--explain` timings.
std::string withoutWallNs(JsonValue V) {
  if (const JsonValue *S = V.find("stats")) {
    JsonValue Stats = *S;
    Stats.set("wall_ns", 0);
    V.set("stats", std::move(Stats));
  } else if (V.find("wall_ns")) {
    V.set("wall_ns", 0);
  }
  static const std::regex StageNs("[0-9]+ ns");
  return std::regex_replace(V.str(), StageNs, "0 ns");
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

} // namespace

TEST(Serve, GoldenEnvelope) {
  using Op = ServeRequest::Op;
  std::string LogPath = ::testing::TempDir() + "/edda_serve_golden.jsonl";
  std::remove(LogPath.c_str());
  ServeOptions Opts;
  Opts.NumThreads = 1;
  Opts.StatsLogPath = LogPath;
  std::vector<std::string> Got;
  {
    ServeCore Core(Opts);
    auto Serve = [&](const ServeRequest &R) {
      Got.push_back(withoutWallNs(Core.handle(R).Body));
    };
    Serve(request(1, Op::Analyze, goldenSource()));
    ServeRequest Explained = request(2, Op::Analyze, goldenSource());
    Explained.Directions = true;
    Explained.Explain = true;
    Serve(Explained);
    ServeRequest Budgeted = request(3, Op::Analyze, coupledSource());
    Budgeted.FmBudget = 1;
    Serve(Budgeted);
    Serve(request(4, Op::Features, goldenSource()));
    ServeRequest Problem = request(5, Op::Problem, coupledProblem());
    Problem.Directions = true;
    Serve(Problem); // Cold.
    Problem.Id = 6;
    Serve(Problem); // Warm.
    Serve(editRequest(7, goldenSource()));
    Serve(editRequest(8, goldenSourceEdited()));
    Serve(request(9, Op::Ping));
    Serve(request(10, Op::Checkpoint));
    Serve(request(11, Op::Shutdown));
    Serve(request(12, Op::Analyze, "for for"));
    ServeRequest BadPipe = request(13, Op::Analyze, goldenSource());
    BadPipe.PipelineSpec = "definitely-not-a-test";
    Serve(BadPipe);
  }
  for (const std::string &Line : readLines(LogPath)) {
    std::optional<JsonValue> Entry = parseJson(Line);
    ASSERT_TRUE(Entry.has_value()) << Line;
    Got.push_back(withoutWallNs(*Entry));
  }
  std::remove(LogPath.c_str());

  // One line per request (ids 1-13), then one stats-log line per
  // successful payload request. A byte that moves here is a protocol
  // change.
  std::vector<std::string> Want = readLines(EDDA_SERVE_GOLDEN);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]) << "golden line " << I + 1;
}

TEST(Serve, StatsOpServerKeysAndValues) {
  using Op = ServeRequest::Op;
  ServeOptions Opts;
  Opts.NumThreads = 2;
  ServeCore Core(Opts);
  ASSERT_TRUE(Core.handle(request(1, Op::Analyze, goldenSource())).Ok);
  ASSERT_TRUE(Core.handle(request(2, Op::Features, goldenSource())).Ok);
  ASSERT_TRUE(Core.handle(request(3, Op::Problem, coupledProblem())).Ok);
  ASSERT_TRUE(Core.handle(editRequest(4, goldenSource())).Ok);
  ASSERT_TRUE(Core.handle(editRequest(5, goldenSourceEdited())).Ok);
  ServeResponse S = Core.handle(request(6, Op::Stats));
  ASSERT_TRUE(S.Ok) << S.Error;
  JsonValue Server = S.Body.get("server");
  ASSERT_TRUE(Server.isObject()) << S.Body.str();
  EXPECT_GT(Server.getInt("wall_ns"), 0);
  Server.set("wall_ns", 0);

  // The object is flat and numeric, so its members are the
  // comma-separated pieces of the serialization; compared sorted, so
  // the key order is free but the key set and values are not.
  std::string Flat = Server.str();
  std::vector<std::string> Members;
  for (size_t Begin = 1, End; Begin < Flat.size(); Begin = End + 1) {
    End = Flat.find(',', Begin);
    if (End == std::string::npos)
      End = Flat.size() - 1;
    Members.push_back(Flat.substr(Begin, End - Begin));
  }
  std::sort(Members.begin(), Members.end());
  std::vector<std::string> Want = {
      "\"analyze_requests\":1",     "\"cache_hits_dir\":0",
      "\"cache_hits_full\":0",      "\"cache_hits_nobounds\":1",
      "\"cache_queries_dir\":3",    "\"checkpoints\":0",
      "\"default_fm_budget\":0",    "\"degraded_requests\":0",
      "\"edit_requests\":2",        "\"edit_sessions\":1",
      "\"errors\":0",               "\"evicted\":0",
      "\"features_requests\":1",    "\"fm_work\":0",
      "\"hit_rate_pct\":0",         "\"pairs_cached\":0",
      "\"pairs_constant\":0",       "\"pairs_invalidated\":5",
      "\"pairs_reused\":1",         "\"pairs_tested\":6",
      "\"pairs_unanalyzable\":0",   "\"problem_requests\":1",
      "\"problems_cached\":0",      "\"problems_tested\":1",
      "\"requests\":6",             "\"tests_run\":7",
      "\"threads\":2",              "\"unique_directions\":3",
      "\"unique_full\":4",          "\"unique_nobounds\":2",
      "\"wall_ns\":0",              "\"warm_failed_loads\":0",
      "\"warm_loaded_entries\":0",  "\"warm_rejected_entries\":0",
      "\"widened\":0"};
  EXPECT_EQ(Members, Want) << Flat;
}

TEST(Serve, BudgetDegradedFeaturesFlaggedAndCounted) {
  using Op = ServeRequest::Op;
  ServeCore Core(ServeOptions{});
  ServeRequest Analyze = request(1, Op::Analyze, coupledSource());
  Analyze.FmBudget = 1;
  ServeResponse A = Core.handle(Analyze);
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_TRUE(A.Body.get("stats").getBool("degraded")) << A.Body.str();
  EXPECT_EQ(Core.stats().DegradedRequests, 1u);

  // The same budget-exhausted analysis behind the features op carries
  // the analyze op's stats keys and counts as a degraded request.
  ServeRequest Features = request(2, Op::Features, coupledSource());
  Features.FmBudget = 1;
  ServeResponse F = Core.handle(Features);
  ASSERT_TRUE(F.Ok) << F.Error;
  const JsonValue &Stats = F.Body.get("stats");
  for (const char *Key : {"tests_run", "cache_hits_full",
                          "cache_hits_nobounds", "widened", "degraded"})
    EXPECT_NE(Stats.find(Key), nullptr) << Key << " in " << Stats.str();
  EXPECT_TRUE(Stats.getBool("degraded")) << Stats.str();
  EXPECT_EQ(Core.stats().DegradedRequests, 2u);
}
