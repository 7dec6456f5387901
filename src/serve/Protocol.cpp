//===- serve/Protocol.cpp - edda-serve wire protocol ----------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace edda;

const char *edda::serveOpName(ServeRequest::Op Operation) {
  switch (Operation) {
  case ServeRequest::Op::Analyze:
    return "analyze";
  case ServeRequest::Op::Features:
    return "features";
  case ServeRequest::Op::Problem:
    return "problem";
  case ServeRequest::Op::Edit:
    return "edit";
  case ServeRequest::Op::Stats:
    return "stats";
  case ServeRequest::Op::Ping:
    return "ping";
  case ServeRequest::Op::Checkpoint:
    return "checkpoint";
  case ServeRequest::Op::Shutdown:
    return "shutdown";
  }
  return "?";
}

static std::optional<ServeRequest::Op> opFromName(const std::string &S) {
  for (int I = 0; I <= static_cast<int>(ServeRequest::Op::Shutdown); ++I)
    if (S == serveOpName(static_cast<ServeRequest::Op>(I)))
      return static_cast<ServeRequest::Op>(I);
  return std::nullopt;
}

JsonValue ServeRequest::toJson() const {
  JsonValue O = JsonValue::object();
  O.set("id", Id);
  O.set("op", serveOpName(Operation));
  if (hasPayload()) {
    O.set(Operation == Op::Problem ? "problem" : "program", Payload);
    if (Operation == Op::Edit && !Session.empty())
      O.set("session", Session);
    if (Directions)
      O.set("directions", true);
    if (Explain)
      O.set("explain", true);
    if (!Widen)
      O.set("widen", false);
    if (!Prepass)
      O.set("prepass", false);
    if (!CacheMarkers)
      O.set("cache_markers", false);
    if (!PipelineSpec.empty())
      O.set("pipeline", PipelineSpec);
    if (FmBudget)
      O.set("fm_budget", FmBudget);
  }
  return O;
}

std::optional<ServeRequest>
edda::parseServeRequest(const std::string &Line, std::string *Error,
                        int64_t *IdOut) {
  auto Fail = [Error](std::string Message) -> std::optional<ServeRequest> {
    if (Error)
      *Error = std::move(Message);
    return std::nullopt;
  };
  std::optional<JsonValue> V = parseJson(Line, Error);
  if (!V)
    return std::nullopt;
  if (!V->isObject())
    return Fail("request must be a JSON object");

  ServeRequest R;
  R.Id = V->getInt("id", 0);
  if (IdOut)
    *IdOut = R.Id;

  std::string OpName = V->getString("op");
  std::optional<ServeRequest::Op> Operation = opFromName(OpName);
  if (!Operation)
    return Fail(OpName.empty() ? "missing 'op' field"
                               : "unknown op '" + OpName + "'");
  R.Operation = *Operation;

  if (R.hasPayload()) {
    const char *Field =
        R.Operation == ServeRequest::Op::Problem ? "problem" : "program";
    const JsonValue *Payload = V->find(Field);
    if (!Payload || !Payload->isString())
      return Fail(std::string("missing '") + Field + "' string field");
    R.Payload = Payload->stringValue();
    R.Directions = V->getBool("directions", false);
    R.Explain = V->getBool("explain", false);
    R.Widen = V->getBool("widen", true);
    R.Prepass = V->getBool("prepass", true);
    R.CacheMarkers = V->getBool("cache_markers", true);
    R.PipelineSpec = V->getString("pipeline");
    R.Session = V->getString("session");
    int64_t Budget = V->getInt("fm_budget", 0);
    if (Budget < 0)
      return Fail("'fm_budget' must be non-negative");
    if (Budget != 0 && R.Operation == ServeRequest::Op::Edit)
      return Fail("'fm_budget' is not accepted on edit requests: a "
                  "one-off budget would splice degraded answers into "
                  "the session's later re-analyses");
    R.FmBudget = static_cast<uint64_t>(Budget);
  }
  return R;
}

bool edda::sendLine(int Fd, std::string Line) {
  Line += '\n';
  const char *Data = Line.data();
  size_t Len = Line.size();
  while (Len) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

std::optional<std::string> LineReader::next(std::string *Error) {
  for (;;) {
    size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos) {
      std::string Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      return Line;
    }
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Error)
        *Error = std::string("read: ") + std::strerror(errno);
      return std::nullopt;
    }
    if (N == 0)
      return std::nullopt;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

std::optional<ServeResponse>
edda::parseServeResponse(const std::string &Line, std::string *Error) {
  std::optional<JsonValue> V = parseJson(Line, Error);
  if (!V)
    return std::nullopt;
  if (!V->isObject()) {
    if (Error)
      *Error = "response must be a JSON object";
    return std::nullopt;
  }
  ServeResponse R;
  R.Id = V->getInt("id", 0);
  R.Ok = V->getBool("ok", false);
  R.Error = V->getString("error");
  R.Text = V->getString("text");
  R.Body = std::move(*V);
  return R;
}
