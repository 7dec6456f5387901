//===- perfbench/ServeSession.cpp - The serve-session workload ------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process ServeCore on the Unix-socket transport, driven by
/// closed-loop ServeClients: compilers and IDEs wait for each reply
/// before sending the next request. Each client runs a fixed script:
/// mostly edit sequences on its own connection's session and analyze
/// requests over a program pool both clients share (so the shared memo
/// store hits), with features and problem requests as a minority.
/// Server workers plus client threads never exceed the host's cores.
///
/// The traffic shape is an assumption, not a measurement: no recorded
/// serve session exists to take it from. The constants below (the
/// 5:3:1:1 edit/analyze/features/problem mix, ProgramScale, edits per
/// sequence, the pool size) turn "mostly edits and analyzes, a minority
/// of features and problems" into one fixed script. They stay fixed
/// until a recorded trace can replace them.
///
/// Every response is held against a fresh, direct computation of the
/// same request (" (cached)" markers stripped): a fresh analyzer's
/// rendered report, the features of a fresh analysis, the cascade's
/// problem report. The traced run replays the script through
/// ServeCore::handleLine and the layer calls directly.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Analyzer.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Features.h"
#include "analysis/Incremental.h"
#include "deptest/Cascade.h"
#include "deptest/ProblemIO.h"
#include "fuzz/ProblemGen.h"
#include "parser/Parser.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "serve/Server.h"
#include "support/ThreadPool.h"
#include "workload/Generator.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace edda;
using namespace perfbench;

namespace {

/// Requests per second of run on the reference host, all rounds and
/// clients together.
constexpr double RequestsPerSecond = 550.0;
constexpr size_t ChunkOps = 25;
/// Edits per edit sequence before the client starts over on a new base
/// program, and the generator scale of the suite programs it edits.
constexpr unsigned EditsPerSequence = 8;
constexpr double ProgramScale = 0.08;
constexpr unsigned SharedPoolSize = 8;

using Op = ServeRequest::Op;

struct Request {
  Op Kind = Op::Ping;
  std::string Payload;
  bool Directions = false;
  std::string Locator;
};

/// Request mix per ten requests, assumed (see the file comment): five
/// edits, three analyzes, one features, one problem.
Op kindAt(size_t I) {
  switch (I % 10) {
  case 5:
  case 6:
  case 7:
    return Op::Analyze;
  case 8:
    return Op::Features;
  case 9:
    return Op::Problem;
  default:
    return Op::Edit;
  }
}

Program parseOrEmpty(const std::string &Source) {
  ParseResult PR = parseProgram(Source);
  return PR.succeeded() ? std::move(*PR.Prog) : Program();
}

/// One client's fixed script. Everything derives from (Seed, Client).
std::vector<Request> clientScript(uint64_t Seed, unsigned Client,
                                  size_t Count,
                                  const std::vector<std::string> &Pool,
                                  const std::vector<std::string> &Kernels) {
  std::vector<Request> Script;
  const uint64_t CSeed = mixSeed(Seed, 100 + Client);
  SplitRng Rng(CSeed);
  SplitRng ProblemRng(mixSeed(CSeed, 1));
  const auto &Profiles = perfectClubProfiles();
  Program Current;
  unsigned EditsLeft = 0;
  size_t Sequence = 0, Analyzes = 0, Features = 0;
  for (size_t I = 0; I < Count; ++I) {
    Request R;
    R.Kind = kindAt(I);
    std::string Where = "client " + std::to_string(Client) + " request " +
                        std::to_string(I) + " (seed " +
                        std::to_string(CSeed) + "): ";
    switch (R.Kind) {
    case Op::Edit:
      R.Directions = true;
      if (EditsLeft == 0) {
        GeneratorOptions G;
        G.Seed = mixSeed(CSeed, 1000 + Sequence);
        G.Scale = ProgramScale;
        // Profiles and pool entries rotate instead of being drawn, so
        // every seed gets the same request mix and only contents vary.
        const ProgramProfile &P =
            Profiles[(Sequence + 5 * Client) % Profiles.size()];
        R.Payload = generateProgramSource(P, G);
        R.Locator = Where + "edit base " + P.Name;
        Current = parseOrEmpty(R.Payload);
        EditsLeft = EditsPerSequence;
        ++Sequence;
      } else {
        std::string What = applyRandomEdit(Current, Rng);
        R.Payload = Current.print();
        Current = parseOrEmpty(R.Payload);
        R.Locator = Where + "edit " + What;
        --EditsLeft;
      }
      break;
    case Op::Analyze: {
      size_t K = (Analyzes++ + 3 * Client) % Pool.size();
      R.Payload = Pool[K];
      R.Locator = Where + "analyze pool program " + std::to_string(K);
      break;
    }
    case Op::Features: {
      size_t K = (Features++ + 5 * Client) % Kernels.size();
      R.Payload = Kernels[K];
      R.Locator = Where + "features kernel " + std::to_string(K);
      break;
    }
    default:
      R.Payload = printProblemText(fuzz::randomFuzzProblem(ProblemRng));
      R.Locator = Where + "problem";
      break;
    }
    Script.push_back(std::move(R));
  }
  return Script;
}

ServeRequest toServeRequest(const Request &R, int64_t Id = 0) {
  ServeRequest S;
  S.Id = Id;
  S.Operation = R.Kind;
  S.Payload = R.Payload;
  S.Directions = R.Directions;
  return S;
}

std::string stripCached(std::string Text) {
  static const std::string Marker = " (cached)";
  for (size_t P; (P = Text.find(Marker)) != std::string::npos;)
    Text.erase(P, Marker.size());
  return Text;
}

/// The answer-determined part of a features summary. Its test-count
/// fields (queries, memo hits, decided_by, fm_work, cached, widened)
/// depend on what the shared store already held, so a served summary
/// legitimately differs there from a fresh analysis.
std::string featureAnswers(const std::string &Text) {
  std::optional<JsonValue> J = parseJson(Text, nullptr);
  if (!J || !J->isObject())
    return "unparseable features: " + Text;
  JsonValue Out = JsonValue::object();
  const JsonValue &Prog = J->get("program");
  Out.set("pairs", Prog.get("pairs"));
  Out.set("unanalyzable", Prog.get("unanalyzable"));
  JsonValue Nests = JsonValue::array();
  for (const JsonValue &N : J->get("nests").elements()) {
    JsonValue M = JsonValue::object();
    for (const char *Key : {"var", "depth", "pairs", "dependent",
                            "independent", "directions", "distances"})
      M.set(Key, N.get(Key));
    Nests.push(std::move(M));
  }
  Out.set("nests", std::move(Nests));
  return Out.str();
}

uint64_t hashText(const std::string &S) {
  Digest D;
  D.add(S);
  return D.H;
}

/// The reference answer to one request, computed directly and fresh.
struct Reference {
  uint64_t TextHash = 0;
  uint64_t Questions = 0;
  uint64_t Exact = 0;
  bool Valid = false;
};

Reference referenceFor(const Request &R) {
  Reference Ref;
  if (R.Kind == Op::Problem) {
    ProblemParseResult PP = parseProblemText(R.Payload);
    if (!PP.succeeded())
      return Ref;
    CascadeResult CR = testDependence(*PP.Problem);
    Ref.TextHash =
        hashText(renderProblemReport(*PP.Problem, CR, nullptr, nullptr));
    Ref.Questions = 1;
    Ref.Exact = CR.Exact;
    Ref.Valid = true;
    return Ref;
  }
  ParseResult PR = parseProgram(R.Payload);
  if (!PR.succeeded())
    return Ref;
  Program Prog = std::move(*PR.Prog);
  AnalyzerOptions AO;
  AO.ComputeDirections = R.Directions || R.Kind == Op::Features;
  DependenceAnalyzer A(AO);
  AnalysisResult Res = A.analyze(Prog);
  if (R.Kind == Op::Features) {
    Ref.TextHash = hashText(featureAnswers(extractFeatures(Prog, Res).str()));
  } else {
    ReportOptions RO;
    RO.Directions = R.Directions;
    RO.CacheMarkers = false;
    Ref.TextHash = hashText(renderAnalysisReport(Prog, Res, RO));
  }
  Ref.Questions = Res.PairsConsidered;
  for (const DependencePair &P : Res.Pairs)
    Ref.Exact += P.Exact;
  Ref.Valid = true;
  return Ref;
}

/// Span name of ServeCore::handleLine for one request kind.
const char *handleSpan(Op K) {
  switch (K) {
  case Op::Analyze:
    return "serve.analyze.handle";
  case Op::Edit:
    return "serve.edit.handle";
  case Op::Features:
    return "serve.features.handle";
  default:
    return "serve.problem.handle";
  }
}

const char *opName(Op K) {
  switch (K) {
  case Op::Analyze:
    return "analyze";
  case Op::Edit:
    return "edit";
  case Op::Features:
    return "features";
  default:
    return "problem";
  }
}

/// A booted server on the Unix-socket transport plus connected clients.
/// Destruction stops the transport and joins its thread.
class LiveServer {
public:
  LiveServer(unsigned Workers, unsigned Clients, std::string *Error) {
    std::filesystem::create_directories(".bench_build");
    Socket = ".bench_build/serve-" + std::to_string(::getpid()) + ".sock";
    ServeOptions SO;
    SO.NumThreads = Workers;
    Core = std::make_unique<ServeCore>(SO, Error);
    Transport = std::thread([this] {
      std::string Err;
      runUnixServer(*Core, Socket, Stop, &Err);
    });
    for (unsigned C = 0; C < Clients; ++C) {
      std::unique_ptr<ServeClient> Client;
      // The transport binds asynchronously; retry briefly.
      for (int Try = 0; Try < 200 && !Client; ++Try) {
        Client = ServeClient::connectUnix(Socket, Error);
        if (!Client)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!Client)
        return;
      ServeRequest Ping;
      Ping.Operation = Op::Ping;
      if (!Client->call(Ping, Error))
        return;
      Conns.push_back(std::move(Client));
    }
  }
  ~LiveServer() {
    Conns.clear();
    Stop.store(true);
    Transport.join();
  }
  LiveServer(const LiveServer &) = delete;
  LiveServer &operator=(const LiveServer &) = delete;

  bool ok(unsigned Clients) const { return Conns.size() == Clients; }
  ServeClient &client(unsigned C) { return *Conns[C]; }
  ServeCore &core() { return *Core; }

private:
  std::string Socket;
  std::atomic<bool> Stop{false};
  std::unique_ptr<ServeCore> Core;
  std::vector<std::unique_ptr<ServeClient>> Conns;
  std::thread Transport;
};

struct Outcome {
  uint64_t Ns = 0;
  uint64_t TextHash = 0;
  std::string Error;
};

/// Runs every client's script once over the socket, closed loop.
std::vector<std::vector<Outcome>>
runScripts(LiveServer &S, const std::vector<std::vector<Request>> &Scripts,
           const std::vector<bool> *Skip, size_t PerClient) {
  std::vector<std::vector<Outcome>> Out(Scripts.size());
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Scripts.size(); ++C)
    Threads.emplace_back([&, C] {
      Out[C].resize(Scripts[C].size());
      ServeClient &Client = S.client(C);
      for (size_t I = 0; I < Scripts[C].size(); ++I) {
        // An edit must run even when its timing is no longer needed:
        // later edits of the session build on it.
        const Request &R = Scripts[C][I];
        if (Skip && (*Skip)[C * PerClient + I] && R.Kind != Op::Edit)
          continue;
        ServeRequest Req = toServeRequest(R);
        std::string Err;
        uint64_t T0 = nowNs();
        std::optional<ServeResponse> Resp = Client.call(Req, &Err);
        uint64_t T1 = nowNs();
        Outcome &O = Out[C][I];
        O.Ns = T1 - T0;
        if (!Resp)
          O.Error = "transport: " + Err;
        else if (!Resp->Ok)
          O.Error = "error response: " + Resp->Error;
        else if (R.Kind == Op::Features)
          O.TextHash = hashText(featureAnswers(Resp->Text));
        else
          O.TextHash = hashText(stripCached(Resp->Text));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

} // namespace

RunRecord perfbench::runServeSession(const Config &C) {
  RunRecord Rec;
  const unsigned Cores = std::max(2u, ThreadPool::hardwareThreads());
  const unsigned Clients = std::min(2u, Cores / 2);
  const unsigned Workers = Clients;
  Rec.Threads = Clients + Workers;
  Rec.Concurrency = Clients;
  Rec.ChunkOps = ChunkOps;
  size_t PerClient = scaledCount(C.Seconds, RequestsPerSecond) / Clients;
  PerClient = std::max(ChunkOps, PerClient / ChunkOps * ChunkOps);
  const size_t N = PerClient * Clients;

  std::vector<std::vector<Request>> Scripts;
  auto Generate = [&] {
    std::vector<std::string> Pool, Kernels;
    for (unsigned K = 0; K < SharedPoolSize; ++K) {
      GeneratorOptions G;
      G.Seed = mixSeed(C.Seed, 50 + K);
      G.Scale = ProgramScale;
      const auto &Profiles = perfectClubProfiles();
      Pool.push_back(
          generateProgramSource(Profiles[K % Profiles.size()], G));
    }
    for (auto &[Name, Source] : generateKernelSuite())
      Kernels.push_back(Source);
    Scripts.clear();
    for (unsigned Cl = 0; Cl < Clients; ++Cl)
      Scripts.push_back(clientScript(C.Seed, Cl, PerClient, Pool, Kernels));
  };

  Rec.Attempted = N;
  Rec.Questions.assign(N, 0);
  Rec.ExactQuestions.assign(N, 0);
  Rec.FmWork.assign(N, 0);
  std::vector<Reference> Refs(N);
  std::vector<bool> Failed(N, false);
  bool CorruptPending = C.CorruptAnswer;
  auto Fail = [&](size_t I, const std::string &Why) {
    if (Failed[I])
      return;
    Failed[I] = true;
    Rec.fail(Rec.OpLocator[I] + ": " + Why);
  };
  auto Gate = [&](const std::vector<std::vector<Outcome>> &Out) {
    for (unsigned Cl = 0; Cl < Clients; ++Cl)
      for (size_t I = 0; I < PerClient; ++I) {
        size_t Id = Cl * PerClient + I;
        const Outcome &O = Out[Cl][I];
        if (O.Ns == 0)
          continue; // Not re-run this round.
        if (!O.Error.empty())
          Fail(Id, O.Error);
        else if (!Refs[Id].Valid)
          Fail(Id, "the reference computation cannot parse the request");
        else if (O.TextHash != Refs[Id].TextHash)
          Fail(Id, "response differs from a fresh direct computation");
      }
  };

  // Set-up: script generation, reference answers (first time only,
  // untimed), server boot, client connection and a ping each.
  std::unique_ptr<LiveServer> Server;
  auto Setup = [&]() -> bool {
    Server.reset();
    uint64_t T0 = nowNs();
    Generate();
    uint64_t T1 = nowNs();
    if (Rec.OpLocator.empty()) {
      Digest InputD;
      for (unsigned Cl = 0; Cl < Clients; ++Cl)
        for (size_t I = 0; I < PerClient; ++I) {
          const Request &R = Scripts[Cl][I];
          size_t Id = Cl * PerClient + I;
          InputD.add(R.Payload);
          Rec.OpLocator.push_back(R.Locator);
          Refs[Id] = referenceFor(R);
          Rec.Questions[Id] = Refs[Id].Questions;
          Rec.ExactQuestions[Id] = Refs[Id].Exact;
          ++Rec.Counters[std::string("requests.") + opName(R.Kind)];
          Rec.Counters["questions"] += Refs[Id].Questions;
        }
      Rec.InputDigest = InputD.H;
      if (CorruptPending) {
        Refs[0].TextHash ^= 1;
        CorruptPending = false;
      }
    }
    uint64_t T2 = nowNs();
    std::string Err;
    Server = std::make_unique<LiveServer>(Workers, Clients, &Err);
    if (!Server->ok(Clients)) {
      std::fprintf(stderr, "serve-session: cannot start: %s\n", Err.c_str());
      return false;
    }
    Rec.SetupSeconds.push_back(static_cast<double>((T1 - T0) +
                                                   (nowNs() - T2)) *
                               1e-9);
    return true;
  };

  // Edit sessions are per connection, so their reuse counts are
  // deterministic; which client first fills the shared store is not, so
  // its hit counts are a note, not a counter.
  auto AddServeCounters = [&](ServeCore &Core) {
    ServeStats S = Core.stats();
    Rec.Counters["serve.pairs_reused"] = S.PairsReused;
    Rec.Counters["serve.pairs_invalidated"] = S.PairsInvalidated;
    Rec.Counters["serve.errors"] = S.Errors;
    Rec.Notes.push_back("store: " + std::to_string(S.PairsCached) +
                        " pairs cached, " + std::to_string(S.PairsTested) +
                        " tested (first round)");
  };

  if (!C.Trace) {
    BestOf Best(N);
    std::vector<bool> Skip(N, false);
    for (unsigned Round = 0; Round < NumRounds; ++Round) {
      for (unsigned K = 0; K < SetupsPerRound; ++K)
        if (!Setup()) {
          Rec.fail("serve-session: server did not start");
          return Rec;
        }
      for (size_t I = 0; I < N; ++I)
        Skip[I] = !Best.shouldRun(I, Round) || Failed[I];
      std::vector<std::vector<Outcome>> Out =
          runScripts(*Server, Scripts, &Skip, PerClient);
      for (unsigned Cl = 0; Cl < Clients; ++Cl)
        for (size_t I = 0; I < PerClient; ++I)
          if (!Skip[Cl * PerClient + I] && Out[Cl][I].Ns)
            Best.record(Cl * PerClient + I, Out[Cl][I].Ns, Out[Cl][I].Ns);
      Gate(Out);
      // Requests are interleaved across clients, so only the first
      // round's store and reuse counters are deterministic.
      if (Round == 0)
        AddServeCounters(Server->core());
    }
    Server.reset();
    Rec.ExecutionsPerOp = NumRounds;
    Rec.BestNs = std::move(Best.Best);
    Rec.BestDecideNs = std::move(Best.BestDecide);
    std::vector<double> Edit;
    for (unsigned Cl = 0; Cl < Clients; ++Cl)
      for (size_t I = 0; I < PerClient; ++I)
        if (Scripts[Cl][I].Kind == Op::Edit &&
            Rec.BestNs[Cl * PerClient + I] != UINT64_MAX)
          Edit.push_back(Rec.BestNs[Cl * PerClient + I] * 1e-6);
    double P = std::max(0.90, tailPercentile(Edit.size()));
    char Buf[160];
    std::snprintf(Buf, sizeof Buf,
                  "edit_p50_ms %.4f ms, edit_p%g_ms %.4f ms (%zu edits, "
                  "best of %u rounds each)",
                  median(Edit), P * 100, quantile(Edit, P), Edit.size(),
                  NumRounds);
    Rec.Notes.push_back(Buf);
    return Rec;
  }

  // Traced run. (1) One socket round, as untraced, for the client
  // round trips and the store hit rate.
  if (!Setup()) {
    Rec.fail("serve-session: server did not start");
    return Rec;
  }
  std::vector<std::vector<Outcome>> Out =
      runScripts(*Server, Scripts, nullptr, PerClient);
  Gate(Out);
  AddServeCounters(Server->core());
  double StoreHitPct = Server->core().stats().hitRatePct();
  Server.reset();

  // (2) The same requests through handleLine, in the clients'
  // interleaved order, on two fresh cores: one timed without spans and
  // one with, alternating which goes first so drift falls on both alike.
  Tracer T;
  Tracer Off(/*Enabled=*/false);
  uint64_t PlainNs = 0, TracedNs = 0;
  {
    ServeOptions SO;
    SO.NumThreads = Workers;
    ServeCore PlainCore(SO), TracedCore(SO);
    for (size_t I = 0; I < PerClient; ++I)
      for (unsigned Cl = 0; Cl < Clients; ++Cl) {
        const Request &R = Scripts[Cl][I];
        const size_t Id = Cl * PerClient + I;
        std::string Line =
            toServeRequest(R, static_cast<int64_t>(Id + 1)).toJson().str();
        for (int K = 0; K < 2; ++K) {
          const bool Traced = (K == 0) == (Id % 2 == 1);
          Tracer &Tr = Traced ? T : Off;
          uint64_t T0 = nowNs();
          size_t S = Tr.begin(static_cast<uint32_t>(Id));
          (Traced ? TracedCore : PlainCore).handleLine(Line, Cl + 1);
          Tr.end(S, handleSpan(R.Kind));
          (Traced ? TracedNs : PlainNs) += nowNs() - T0;
        }
      }
  }

  // (3) The layer calls behind each request, directly.
  std::vector<std::unique_ptr<IncrementalSession>> Sessions;
  for (unsigned Cl = 0; Cl < Clients; ++Cl) {
    AnalyzerOptions AO;
    AO.NumThreads = 1;
    Sessions.push_back(std::make_unique<IncrementalSession>(AO));
  }
  for (size_t I = 0; I < PerClient; ++I)
    for (unsigned Cl = 0; Cl < Clients; ++Cl) {
      const Request &R = Scripts[Cl][I];
      const uint32_t Id = static_cast<uint32_t>(Cl * PerClient + I);
      if (R.Kind == Op::Problem) {
        std::optional<DependenceProblem> P =
            parseProblemText(R.Payload).Problem;
        if (!P)
          continue;
        DepStats S;
        tracedCascade(T, Id, *P, {}, S);
        continue;
      }
      T.count("parse.bytes", R.Payload.size());
      ParseResult PR =
          traced(T, Id, "parse", [&] { return parseProgram(R.Payload); });
      if (!PR.succeeded())
        continue;
      if (R.Kind == Op::Edit) {
        IncrementalSession &Session = *Sessions[Cl];
        ReanalyzeStats RS = traced(T, Id, "incremental.update", [&] {
          return Session.update(std::move(*PR.Prog));
        });
        T.count("incremental.pairs", RS.PairsTotal);
        T.count("incremental.reused", RS.PairsReused);
        ReportOptions RO;
        RO.Directions = true;
        traced(T, Id, "render", [&] {
          return renderAnalysisReport(Session.program(), Session.result(),
                                      RO);
        });
        continue;
      }
      Program Prog = std::move(*PR.Prog);
      AnalyzerOptions AO;
      AO.ComputeDirections = R.Kind == Op::Features;
      DependenceAnalyzer A(AO);
      AnalysisResult Res = A.analyze(Prog);
      // The analysis layers behind the request, through the same replay
      // as suite-compile: directions on for features requests.
      Program Replayed = parseOrEmpty(R.Payload);
      DependenceCache Cache(A.cache().options());
      Rec.replayed(replayProgram(T, Id, Replayed, Res, A, Cache),
                   Rec.OpLocator[Id]);
      if (R.Kind == Op::Features)
        traced(T, Id, "graph",
               [&] { return DependenceGraph::buildFromResult(Res); });
      if (R.Kind == Op::Features)
        traced(T, Id, "features", [&] { return extractFeatures(Prog, Res); });
      else
        traced(T, Id, "render", [&] {
          return renderAnalysisReport(Prog, Res, ReportOptions());
        });
    }

  fillLayerMetrics(T, Rec);
  uint64_t RoundTrip = 0, Handled = 0;
  for (Op K : {Op::Analyze, Op::Edit, Op::Features, Op::Problem}) {
    std::vector<double> Rt;
    for (unsigned Cl = 0; Cl < Clients; ++Cl)
      for (size_t I = 0; I < PerClient; ++I)
        if (Scripts[Cl][I].Kind == K) {
          Rt.push_back(static_cast<double>(Out[Cl][I].Ns));
          RoundTrip += Out[Cl][I].Ns;
        }
    std::string Base = std::string("serve.") + opName(K);
    const LayerTotals &H = T.totals(handleSpan(K));
    Handled += H.Ns;
    double MeanRt = Rt.empty() ? 0 : [&] {
      double Sum = 0;
      for (double V : Rt)
        Sum += V;
      return Sum / Rt.size();
    }();
    Rec.Layer[Base + ".wait_ns"] =
        H.Calls ? MeanRt - static_cast<double>(H.Ns) / H.Calls : 0;
  }
  Rec.Layer["serve.store_hit_pct"] = StoreHitPct;
  Rec.Layer["trace.coverage_pct"] =
      RoundTrip ? 100.0 * Handled / RoundTrip : 0;
  Rec.Layer["trace.overhead_pct"] =
      PlainNs ? 100.0 * (static_cast<double>(TracedNs) - PlainNs) / PlainNs
              : 0;
  if (!C.SpansPath.empty() && !T.writeJsonLines(C.SpansPath))
    std::fprintf(stderr, "cannot write spans to %s\n", C.SpansPath.c_str());
  Rec.Notes.push_back("spans: " + std::to_string(T.numSpans()) +
                      " written to " + C.SpansPath);
  return Rec;
}
