//===- serve/Client.h - edda-serve client library --------------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small client for the edda-serve Unix-domain-socket transport,
/// used by the edda-serve --client mode and the serving tests. One
/// ServeClient wraps one connection and is not thread-safe —
/// concurrent load generators open one client per thread, which is
/// also how independent compiler processes would share a daemon.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_SERVE_CLIENT_H
#define EDDA_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

namespace edda {

class ServeClient {
public:
  /// Connects to a serving socket; null + \p Error on failure.
  static std::unique_ptr<ServeClient>
  connectUnix(const std::string &SocketPath, std::string *Error);

  ~ServeClient();

  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;

  /// Sends \p R (assigning a fresh id when R.Id == 0) and blocks until
  /// its response arrives. Responses for other ids received meanwhile
  /// are buffered for their own call().
  std::optional<ServeResponse> call(ServeRequest R, std::string *Error);

private:
  explicit ServeClient(int Fd) : Fd(Fd), Reader(Fd) {}

  /// Writes one request line (assigning a fresh id when R.Id == 0).
  bool send(ServeRequest &R, std::string *Error);

  /// Reads one NDJSON line from the socket (nullopt on EOF/error).
  std::optional<std::string> readLine(std::string *Error);

  int Fd = -1;
  int64_t NextId = 1;
  LineReader Reader;
  std::map<int64_t, ServeResponse> Pending;
};

} // namespace edda

#endif // EDDA_SERVE_CLIENT_H
