//===- serve/Render.cpp - Shared analysis report rendering ----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "serve/Render.h"

#include "analysis/Refs.h"

#include <cstdarg>
#include <cstdio>

using namespace edda;

const char *edda::depAnswerName(DepAnswer Answer) {
  switch (Answer) {
  case DepAnswer::Independent:
    return "INDEPENDENT";
  case DepAnswer::Dependent:
    return "dependent";
  case DepAnswer::Unknown:
    return "unknown (assumed dependent)";
  }
  return "?";
}

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N < static_cast<int>(sizeof(Buf))) {
    Out.append(Buf, N);
    return;
  }
  std::string Big(N + 1, '\0');
  va_start(Args, Fmt);
  std::vsnprintf(Big.data(), Big.size(), Fmt, Args);
  va_end(Args);
  Big.resize(N);
  Out += Big;
}

void renderDirections(std::string &Out, const DirectionResult &Dirs,
                      unsigned Indent) {
  appendf(Out, "%*sdirections:", Indent, "");
  for (const DirVector &V : Dirs.Vectors)
    appendf(Out, " %s", dirVectorStr(V).c_str());
  appendf(Out, "%s\n", Dirs.Widened ? "  (widened to 128-bit)" : "");
  for (unsigned K = 0; K < Dirs.Distances.size(); ++K)
    if (Dirs.Distances[K])
      appendf(Out, "%*sdistance[%u] = %lld\n", Indent, "", K,
              static_cast<long long>(*Dirs.Distances[K]));
}

} // namespace

std::string edda::renderAnalysisReport(const Program &Prog,
                                       const AnalysisResult &Result,
                                       const ReportOptions &Opts) {
  std::string Out;
  appendf(Out, "%s: %llu reference pairs, %llu unanalyzable\n",
          Prog.name().c_str(),
          static_cast<unsigned long long>(Result.PairsConsidered),
          static_cast<unsigned long long>(Result.UnanalyzablePairs));
  for (size_t I = 0; I < Result.Pairs.size(); ++I) {
    const DependencePair &Pair = Result.Pairs[I];
    const ArrayReference &A = Result.Refs[Pair.RefA];
    const ArrayReference &B = Result.Refs[Pair.RefB];
    appendf(Out, "  %s vs %s: %s [%s]%s\n", refStr(Prog, A).c_str(),
            refStr(Prog, B).c_str(), depAnswerName(Pair.Answer),
            testKindName(Pair.DecidedBy),
            Opts.CacheMarkers && Pair.FromCache ? " (cached)" : "");
    if (Opts.Directions && Pair.Directions &&
        !Pair.Directions->Vectors.empty())
      renderDirections(Out, *Pair.Directions, 4);
    if (Opts.Explain && I < Result.Traces.size() && Result.Traces[I])
      Out += Result.Traces[I]->str(4);
  }
  return Out;
}

std::string edda::renderProblemReport(const DependenceProblem &P,
                                      const CascadeResult &R,
                                      const DirectionResult *Dirs,
                                      const PipelineTrace *Trace) {
  std::string Out = P.str();
  if (Trace)
    Out += Trace->str(2);
  appendf(Out, "answer: %s  [decided by %s]%s\n",
          R.Answer == DepAnswer::Independent   ? "INDEPENDENT"
          : R.Answer == DepAnswer::Dependent   ? "dependent"
                                               : "unknown",
          testKindName(R.DecidedBy),
          R.Widened ? " (widened to 128-bit)" : "");
  if (R.Witness) {
    Out += "witness x = (";
    for (unsigned J = 0; J < R.Witness->size(); ++J)
      appendf(Out, "%s%lld", J ? ", " : "",
              static_cast<long long>((*R.Witness)[J]));
    Out += ")\n";
  }
  if (Dirs)
    renderDirections(Out, *Dirs, 0);
  return Out;
}
