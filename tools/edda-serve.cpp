//===- tools/edda-serve.cpp - Persistent analysis daemon ------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edda-serve daemon: a long-lived dependence-analysis service
/// answering newline-delimited JSON requests (docs/SERVING.md) from a
/// warm memoization store shared across requests.
///
/// Server mode (default: stdin/stdout transport):
///
///   edda-serve [--socket PATH] [--threads N] [--batch N]
///              [--cache FILE] [--checkpoint-interval SEC]
///              [--max-cache-entries N] [--timeout-ms MS]
///              [--request-budget N] [--pipeline SPEC]
///              [--stats-log FILE]
///
/// Client mode (for scripts and the serving smoke; one request per
/// input file, rendered report on stdout):
///
///   edda-serve --client PATH [--problem] [--features] [--directions]
///              [--explain] [--no-prepass] [--no-widen]
///              [--no-cache-markers] [--pipeline SPEC] [--fm-budget N]
///              [FILE...] [--edit] [--session NAME]
///              [--ping] [--stats] [--checkpoint] [--shutdown]
///
/// --features sends each FILE as a `features` request and prints one
/// NDJSON per-nest feature summary (analysis/Features.h) per file.
///
/// --edit sends each FILE as an incremental `edit` request against one
/// server-side program (connection-scoped, or named via --session):
/// the first file seeds the session, each later file re-analyzes by
/// fingerprint diff. Output per file mirrors
/// `edda-cli --directions --graph` (report, then the spliced
/// dependence graph); the per-edit reuse counters go to stderr.
///
/// SIGTERM/SIGINT drain in-flight requests and write a final
/// checkpoint before exiting (the handlers are installed without
/// SA_RESTART precisely so the blocking accept/read loops observe the
/// signal).
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace edda;

namespace {

std::atomic<bool> GStop{false};

void onSignal(int) { GStop.store(true, std::memory_order_release); }

void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // No SA_RESTART: let blocked reads see EINTR.
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

struct ToolOptions {
  ServeOptions Serve;
  std::string SocketPath;
  // Client mode.
  std::string ClientPath;
  bool Problem = false;
  bool Features = false;
  bool Directions = false;
  bool Explain = false;
  bool Prepass = true;
  bool Widen = true;
  bool CacheMarkers = true;
  bool Edit = false;
  bool Ping = false;
  bool Stats = false;
  bool Checkpoint = false;
  bool Shutdown = false;
  uint64_t FmBudget = 0;
  std::string PipelineSpec;
  std::string SessionName;
  std::vector<std::string> Files;
};

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH] [--threads N] [--batch N]\n"
      "          [--cache FILE] [--checkpoint-interval SEC]\n"
      "          [--max-cache-entries N] [--timeout-ms MS]\n"
      "          [--request-budget N] [--pipeline SPEC]\n"
      "          [--stats-log FILE]\n"
      "       %s --client PATH [--problem] [--features] [--directions]\n"
      "          [--explain]\n"
      "          [--no-prepass] [--no-widen] [--no-cache-markers]\n"
      "          [--pipeline SPEC] [--fm-budget N] [FILE...]\n"
      "          [--edit] [--session NAME]\n"
      "          [--ping] [--stats] [--checkpoint] [--shutdown]\n",
      Prog, Prog);
  return 2;
}

bool parseUnsigned(const char *Arg, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long N = std::strtoull(Arg, &End, 10);
  if (End == Arg || *End != '\0')
    return false;
  Out = N;
  return true;
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s requires a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    uint64_t N = 0;
    if (Arg == "--socket") {
      const char *V = Next("--socket");
      if (!V)
        return false;
      Opts.SocketPath = V;
    } else if (Arg == "--client") {
      const char *V = Next("--client");
      if (!V)
        return false;
      Opts.ClientPath = V;
    } else if (Arg == "--threads") {
      const char *V = Next("--threads");
      if (!V || !parseUnsigned(V, N) || N > 1024)
        return false;
      Opts.Serve.NumThreads = static_cast<unsigned>(N);
    } else if (Arg == "--batch") {
      const char *V = Next("--batch");
      if (!V || !parseUnsigned(V, N) || N == 0 || N > 4096)
        return false;
      Opts.Serve.BatchSize = static_cast<unsigned>(N);
    } else if (Arg == "--cache") {
      const char *V = Next("--cache");
      if (!V)
        return false;
      Opts.Serve.CachePath = V;
    } else if (Arg == "--checkpoint-interval") {
      const char *V = Next("--checkpoint-interval");
      if (!V || !parseUnsigned(V, N))
        return false;
      Opts.Serve.CheckpointIntervalSec = static_cast<unsigned>(N);
    } else if (Arg == "--max-cache-entries") {
      const char *V = Next("--max-cache-entries");
      if (!V || !parseUnsigned(V, N))
        return false;
      Opts.Serve.MaxCacheEntries = N;
    } else if (Arg == "--timeout-ms") {
      const char *V = Next("--timeout-ms");
      if (!V || !parseUnsigned(V, N))
        return false;
      Opts.Serve.TimeoutMs = static_cast<unsigned>(N);
    } else if (Arg == "--request-budget") {
      const char *V = Next("--request-budget");
      if (!V || !parseUnsigned(V, N))
        return false;
      Opts.Serve.RequestFmBudget = N;
    } else if (Arg == "--fm-budget") {
      const char *V = Next("--fm-budget");
      if (!V || !parseUnsigned(V, N))
        return false;
      Opts.FmBudget = N;
    } else if (Arg == "--pipeline") {
      const char *V = Next("--pipeline");
      if (!V)
        return false;
      Opts.Serve.PipelineSpec = V;
      Opts.PipelineSpec = V;
    } else if (Arg == "--stats-log") {
      const char *V = Next("--stats-log");
      if (!V)
        return false;
      Opts.Serve.StatsLogPath = V;
    } else if (Arg == "--no-widen") {
      Opts.Widen = false;
    } else if (Arg == "--session") {
      const char *V = Next("--session");
      if (!V)
        return false;
      Opts.SessionName = V;
    } else if (Arg == "--edit")
      Opts.Edit = true;
    else if (Arg == "--problem")
      Opts.Problem = true;
    else if (Arg == "--features")
      Opts.Features = true;
    else if (Arg == "--directions")
      Opts.Directions = true;
    else if (Arg == "--explain")
      Opts.Explain = true;
    else if (Arg == "--no-prepass")
      Opts.Prepass = false;
    else if (Arg == "--no-cache-markers")
      Opts.CacheMarkers = false;
    else if (Arg == "--ping")
      Opts.Ping = true;
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (Arg == "--checkpoint")
      Opts.Checkpoint = true;
    else if (Arg == "--shutdown")
      Opts.Shutdown = true;
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else
      Opts.Files.push_back(Arg);
  }
  return true;
}

int runClient(const ToolOptions &Opts) {
  std::string Error;
  std::unique_ptr<ServeClient> Client =
      ServeClient::connectUnix(Opts.ClientPath, &Error);
  if (!Client) {
    std::fprintf(stderr, "edda-serve: %s\n", Error.c_str());
    return 1;
  }

  int Rc = 0;
  auto Issue = [&](ServeRequest R) {
    Error.clear();
    std::optional<ServeResponse> Resp = Client->call(std::move(R), &Error);
    if (!Resp) {
      std::fprintf(stderr, "edda-serve: %s\n", Error.c_str());
      Rc = 1;
      return std::optional<ServeResponse>();
    }
    if (!Resp->Ok) {
      std::fprintf(stderr, "edda-serve: server error: %s\n",
                   Resp->Error.c_str());
      Rc = 1;
    }
    return Resp;
  };

  for (const std::string &Path : Opts.Files) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "edda-serve: cannot open '%s'\n",
                   Path.c_str());
      Rc = 1;
      continue;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();

    ServeRequest R;
    R.Operation = Opts.Edit       ? ServeRequest::Op::Edit
                  : Opts.Problem  ? ServeRequest::Op::Problem
                  : Opts.Features ? ServeRequest::Op::Features
                                  : ServeRequest::Op::Analyze;
    R.Payload = Buffer.str();
    R.Directions = Opts.Directions;
    R.Explain = Opts.Explain;
    R.Widen = Opts.Widen;
    R.Prepass = Opts.Prepass;
    R.CacheMarkers = Opts.CacheMarkers;
    R.PipelineSpec = Opts.PipelineSpec;
    R.FmBudget = Opts.FmBudget;
    R.Session = Opts.SessionName;
    std::optional<ServeResponse> Resp = Issue(std::move(R));
    if (!Resp || !Resp->Ok)
      continue;
    std::fputs(Resp->Text.c_str(), stdout);
    if (Opts.Features)
      std::fputc('\n', stdout); // Text is one NDJSON feature object.
    if (Opts.Edit) {
      // Mirror `edda-cli --directions --graph`: report, then the
      // spliced graph (the serving smoke diffs the two byte for byte).
      std::printf("\ndependence graph:\n%s",
                  Resp->Body.getString("graph").c_str());
      if (const JsonValue *Stats = Resp->Body.find("stats"))
        std::fprintf(stderr,
                     "edda-serve: edit '%s': %lld pairs, %lld reused, "
                     "%lld invalidated\n",
                     Path.c_str(),
                     static_cast<long long>(Stats->getInt("pairs")),
                     static_cast<long long>(
                         Stats->getInt("pairs_reused")),
                     static_cast<long long>(
                         Stats->getInt("pairs_invalidated")));
    }
  }

  if (Opts.Ping) {
    ServeRequest R;
    R.Operation = ServeRequest::Op::Ping;
    if (std::optional<ServeResponse> Resp = Issue(std::move(R));
        Resp && Resp->Ok)
      std::printf("pong\n");
  }
  if (Opts.Checkpoint) {
    ServeRequest R;
    R.Operation = ServeRequest::Op::Checkpoint;
    if (std::optional<ServeResponse> Resp = Issue(std::move(R));
        Resp && Resp->Ok)
      std::printf("checkpointed (%lld entries)\n",
                  static_cast<long long>(Resp->Body.getInt("entries")));
  }
  if (Opts.Stats) {
    ServeRequest R;
    R.Operation = ServeRequest::Op::Stats;
    if (std::optional<ServeResponse> Resp = Issue(std::move(R));
        Resp && Resp->Ok)
      std::printf("%s\n", Resp->Body.get("server").str().c_str());
  }
  if (Opts.Shutdown) {
    ServeRequest R;
    R.Operation = ServeRequest::Op::Shutdown;
    if (std::optional<ServeResponse> Resp = Issue(std::move(R));
        Resp && Resp->Ok)
      std::printf("shutting down\n");
  }
  return Rc;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  if (!Opts.ClientPath.empty())
    return runClient(Opts);

  if (!Opts.Files.empty()) {
    std::fprintf(stderr,
                 "edda-serve: positional files need --client mode\n");
    return usage(Argv[0]);
  }
  if (!Opts.Widen) {
    // The server always widens; a request opts out with "widen": false.
    std::fprintf(stderr, "edda-serve: --no-widen needs --client mode\n");
    return usage(Argv[0]);
  }

  installSignalHandlers();

  std::string BootError;
  ServeCore Core(Opts.Serve, &BootError);
  if (!BootError.empty())
    std::fprintf(stderr, "edda-serve: warning: %s\n", BootError.c_str());
  std::fprintf(stderr,
               "edda-serve: ready on %s (%u threads, %llu warm "
               "entries%s)\n",
               Opts.SocketPath.empty() ? "stdio"
                                       : Opts.SocketPath.c_str(),
               Core.options().NumThreads,
               static_cast<unsigned long long>(
                   Core.stats().WarmLoadedEntries),
               Core.defaultFmBudget()
                   ? (", budget " +
                      std::to_string(Core.defaultFmBudget()))
                         .c_str()
                   : "");

  if (Opts.SocketPath.empty())
    return runStdioServer(Core);

  std::string Error;
  int Rc = runUnixServer(Core, Opts.SocketPath, GStop, &Error);
  if (!Error.empty())
    std::fprintf(stderr, "edda-serve: %s\n", Error.c_str());
  return Rc;
}
