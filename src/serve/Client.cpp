//===- serve/Client.cpp - edda-serve client library -----------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace edda;

std::unique_ptr<ServeClient>
ServeClient::connectUnix(const std::string &SocketPath,
                         std::string *Error) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + SocketPath;
    ::close(Fd);
    return nullptr;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                sizeof(Addr)) < 0) {
    if (Error)
      *Error = std::string("connect to '") + SocketPath +
               "': " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  return std::unique_ptr<ServeClient>(new ServeClient(Fd));
}

ServeClient::~ServeClient() {
  if (Fd >= 0)
    ::close(Fd);
}

bool ServeClient::send(ServeRequest &R, std::string *Error) {
  if (R.Id == 0)
    R.Id = NextId++;
  if (sendLine(Fd, R.toJson().str()))
    return true;
  if (Error)
    *Error = std::string("send: ") + std::strerror(errno);
  return false;
}

std::optional<std::string> ServeClient::readLine(std::string *Error) {
  std::optional<std::string> Line = Reader.next(Error);
  if (!Line && Error && Error->empty())
    *Error = "connection closed by server";
  return Line;
}

std::optional<ServeResponse> ServeClient::call(ServeRequest R,
                                               std::string *Error) {
  if (!send(R, Error))
    return std::nullopt;
  // Buffer other ids until ours arrives (responses may come in any
  // order — the server answers as pool workers finish).
  auto It = Pending.find(R.Id);
  while (It == Pending.end()) {
    std::optional<std::string> Line = readLine(Error);
    if (!Line)
      return std::nullopt;
    std::optional<ServeResponse> Resp =
        parseServeResponse(*Line, Error);
    if (!Resp)
      return std::nullopt;
    if (Resp->Id == R.Id)
      return Resp;
    Pending.emplace(Resp->Id, std::move(*Resp));
    It = Pending.find(R.Id);
  }
  ServeResponse Out = std::move(It->second);
  Pending.erase(It);
  return Out;
}
