//===- tools/edda-fuzz.cpp - Differential fuzzer driver -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded differential fuzzing of the dependence analysis stack:
///
///   edda-fuzz [options]
///
///   --seed N          base seed (default 1); a run is a pure function
///                     of the seed
///   --count N         iterations to run (default 5000 when no time
///                     budget is given)
///   --time-budget S   wall-clock budget in seconds
///   --check LIST      comma-separated axes to run, named as in the
///                     fuzzAxes() table (default all)
///   --out DIR         write minimized reproducers into DIR
///   --threads N       thread count for the parallel-analyzer axis
///                     (default 4)
///   --no-widen        run every cascade 64-bit-only (the historical
///                     behavior); the widen axis becomes vacuous
///
/// Exit status 0 when every check passed, 1 on any mismatch. Failures
/// are delta-debugged into minimal .dep/.loop reproducers suitable for
/// tests/inputs/corpus/ (see docs/TESTING.md).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

using namespace edda;
using namespace edda::fuzz;

namespace {

/// The axis names --check accepts (or, with \p Bugs, the planted bugs
/// --inject-bug accepts), from the axis table, joined by \p Sep.
std::string tableNames(bool Bugs, const char *Sep) {
  std::string Out;
  auto Add = [&](const char *Name) {
    Out += (Out.empty() ? "" : Sep) + std::string(Name);
  };
  for (const FuzzAxisSpec &A : fuzzAxes()) {
    if (Bugs)
      for (const PlantedBug &B : A.Bugs)
        Add(B.Name);
    else if (!A.AlwaysOn)
      Add(A.Name);
  }
  return Out;
}

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--count N] [--time-budget SECONDS]\n"
               "          [--check %s]\n"
               "          [--out DIR] [--threads N] [--no-widen]\n",
               Prog, tableNames(false, ",").c_str());
  return 2;
}

/// The value of flag Argv[I], advancing I past it; exits with status 2
/// when it is missing.
const char *flagValue(int &I, int Argc, char **Argv) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "edda-fuzz: %s needs a value\n", Argv[I]);
    std::exit(2);
  }
  return Argv[++I];
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--seed") {
      Opts.Seed = std::strtoull(flagValue(I, Argc, Argv), nullptr, 10);
    } else if (Arg == "--count") {
      Opts.Count = std::strtoull(flagValue(I, Argc, Argv), nullptr, 10);
    } else if (Arg == "--time-budget") {
      Opts.TimeBudgetSeconds = std::strtod(flagValue(I, Argc, Argv), nullptr);
    } else if (Arg == "--check") {
      std::istringstream In(flagValue(I, Argc, Argv));
      for (std::string Tok; std::getline(In, Tok, ',');) {
        const FuzzAxisSpec *A = findFuzzAxis(Tok);
        if (!A || A->AlwaysOn) {
          std::fprintf(stderr, "edda-fuzz: unknown axis '%s' (valid: %s)\n",
                       Tok.c_str(), tableNames(false, ", ").c_str());
          return 2;
        }
        Opts.Axes.insert(Tok);
      }
      if (Opts.Axes.empty()) // An empty list would select every axis.
        return usage(Argv[0]);
    } else if (Arg == "--out") {
      Opts.OutDir = flagValue(I, Argc, Argv);
    } else if (Arg == "--threads") {
      Opts.Threads = std::max(
          1u, static_cast<unsigned>(
                  std::strtoul(flagValue(I, Argc, Argv), nullptr, 10)));
    } else if (Arg == "--no-widen") {
      Opts.Widen = false;
    } else if (Arg.rfind("--inject-bug=", 0) == 0) {
      // Hidden test hook: plant a known defect in the computation under
      // test, proving the fuzzer catches and shrinks it (used by the
      // test suite and CI; not listed in --help output).
      Opts.Bug = Arg.substr(std::strlen("--inject-bug="));
      if (!findPlantedBug(Opts.Bug)) {
        std::fprintf(stderr,
                     "edda-fuzz: unknown --inject-bug variant '%s' "
                     "(valid: %s)\n",
                     Opts.Bug.c_str(), tableNames(true, ", ").c_str());
        return 2;
      }
    } else {
      return usage(Argv[0]);
    }
  }

  FuzzSummary S = runFuzz(Opts, &std::cerr);

  std::printf("edda-fuzz: seed %llu: %llu iterations (%llu problems, "
              "%llu programs), oracle conclusive on %llu, dirs "
              "conclusive on %llu, %zu failure(s)\n",
              static_cast<unsigned long long>(Opts.Seed),
              static_cast<unsigned long long>(S.Iterations),
              static_cast<unsigned long long>(S.Problems),
              static_cast<unsigned long long>(S.Programs),
              static_cast<unsigned long long>(S.OracleConclusive),
              static_cast<unsigned long long>(S.DirsConclusive),
              S.Failures.size());
  for (const FuzzFailure &F : S.Failures)
    std::printf("  [%s] iteration %llu: %s%s%s\n", F.Axis.c_str(),
                static_cast<unsigned long long>(F.Iteration),
                F.Detail.c_str(), F.Path.empty() ? "" : " -> ",
                F.Path.c_str());
  return S.ok() ? 0 : 1;
}
