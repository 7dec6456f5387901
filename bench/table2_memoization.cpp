//===- bench/table2_memoization.cpp - Paper Table 2 -----------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 2: the percentage of unique dependence questions
/// per program, for the without-bounds (GCD) and with-bounds tables,
/// under the simple scheme (problem keyed verbatim) and the improved
/// scheme (unused loop variables removed first). The shape to
/// reproduce: only a few percent of questions are unique, and the
/// improved scheme is strictly better. Also compares the collision
/// behaviour of the paper's literal hash function against a modern
/// mixing hash over the same key sets.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "deptest/Cascade.h"
#include "deptest/Memo.h"
#include "opt/Pipeline.h"
#include "parser/Parser.h"
#include "support/Hashing.h"

#include <cstdio>
#include <cstdlib>
#include <set>

using namespace edda;
using namespace edda::bench;

int main() {
  GeneratorOptions GOpts;
  MemoOptions SimpleOpts;
  SimpleOpts.ImprovedKey = false;
  DependenceCache SimpleKeys{SimpleOpts};
  MemoOptions ImprovedOpts;
  ImprovedOpts.ImprovedKey = true;
  DependenceCache ImprovedKeys{ImprovedOpts};

  std::printf("Table 2: percentage of unique cases (simple vs improved "
              "memoization scheme)\n\n");
  std::printf("%-4s | %28s | %38s\n", "", "Without bounds (GCD table)",
              "With bounds (full table)");
  std::printf("%-4s | %8s %9s %9s | %8s %9s %9s %9s\n", "Prog", "Total",
              "Simple%", "Improv%", "Total", "Simple%", "Improv%",
              "paper S/I");
  rule(106);

  std::set<std::vector<int64_t>> AllKeys;
  uint64_t GrandTotal = 0, GrandSimple = 0, GrandImproved = 0;
  uint64_t GrandNbTotal = 0, GrandNbSimple = 0, GrandNbImproved = 0;

  // Table 2's published with-bounds percentages, for the rightmost
  // column (simple/improved).
  const char *PaperSI[] = {"6.4/4.4",  "16.2/14.1", "47.9/31.5",
                           "23.4/22.1", "6.4/4.3",  "7.9/6.9",
                           "19.4/13.9", "9.5/8.8",  "4.9/3.0",
                           "1.6/1.1",  "2.9/2.4",  "34.8/23.9",
                           "14.2/11.6"};

  unsigned ProfileIdx = 0;
  for (const ProgramProfile &Profile : perfectClubProfiles()) {
    std::string Source = generateProgramSource(Profile, GOpts);
    ParseResult Parsed = parseProgram(Source);
    if (!Parsed.succeeded())
      return 1;
    Program Prog = std::move(*Parsed.Prog);
    runPrepass(Prog);

    std::vector<ArrayReference> Refs = collectReferences(Prog);
    std::set<std::vector<int64_t>> NbSimple, NbImproved, FullSimple,
        FullImproved;
    uint64_t NbTotal = 0, FullTotal = 0;

    for (unsigned I = 0; I < Refs.size(); ++I) {
      for (unsigned J = I; J < Refs.size(); ++J) {
        if (!Refs[I].IsWrite && !Refs[J].IsWrite)
          continue;
        if (Refs[I].ArrayId != Refs[J].ArrayId)
          continue;
        std::optional<BuiltProblem> Built =
            buildProblem(Prog, Refs[I], Refs[J]);
        if (!Built)
          continue;
        CascadeResult R = testDependence(Built->Problem);
        if (R.DecidedBy == TestKind::ArrayConstant ||
            R.DecidedBy == TestKind::Unanalyzable)
          continue;
        // The keys the analyzer's tables see: one MemoKey per scheme,
        // whose prefix is the no-bounds key.
        MemoKey Simple = SimpleKeys.makeKey(Built->Problem);
        MemoKey Improved = ImprovedKeys.makeKey(Built->Problem);
        auto NoBounds = [](const MemoKey &K) {
          std::span<const int64_t> W = K.noBounds().Words;
          return std::vector<int64_t>(W.begin(), W.end());
        };
        // The GCD (no-bounds) table sees every tested case.
        ++NbTotal;
        NbSimple.insert(NoBounds(Simple));
        NbImproved.insert(NoBounds(Improved));
        if (R.DecidedBy == TestKind::GcdTest)
          continue; // decided without bounds
        ++FullTotal;
        AllKeys.insert(Simple.Words);
        FullSimple.insert(std::move(Simple.Words));
        FullImproved.insert(std::move(Improved.Words));
      }
    }

    auto Pct = [](size_t Num, uint64_t Den) {
      return Den == 0 ? 0.0 : 100.0 * Num / Den;
    };
    std::printf("%-4s | %8llu %8.1f%% %8.1f%% | %8llu %8.1f%% %8.1f%% "
                "%9s\n",
                Profile.Name.c_str(),
                static_cast<unsigned long long>(NbTotal),
                Pct(NbSimple.size(), NbTotal),
                Pct(NbImproved.size(), NbTotal),
                static_cast<unsigned long long>(FullTotal),
                Pct(FullSimple.size(), FullTotal),
                Pct(FullImproved.size(), FullTotal),
                PaperSI[ProfileIdx]);
    GrandTotal += FullTotal;
    GrandSimple += FullSimple.size();
    GrandImproved += FullImproved.size();
    GrandNbTotal += NbTotal;
    GrandNbSimple += NbSimple.size();
    GrandNbImproved += NbImproved.size();
    ++ProfileIdx;
  }
  rule(106);
  std::printf("%-4s | %8llu %8.1f%% %8.1f%% | %8llu %8.1f%% %8.1f%% "
              "%9s\n\n",
              "TOT", static_cast<unsigned long long>(GrandNbTotal),
              100.0 * GrandNbSimple / GrandNbTotal,
              100.0 * GrandNbImproved / GrandNbTotal,
              static_cast<unsigned long long>(GrandTotal),
              100.0 * GrandSimple / GrandTotal,
              100.0 * GrandImproved / GrandTotal, "7.3/5.8");

  // Hash comparison over the unique with-bounds keys (simple scheme):
  // distinct hash values vs distinct keys.
  std::set<uint64_t> PaperHashes, MixHashes;
  for (const std::vector<int64_t> &Key : AllKeys) {
    PaperHashes.insert(paperHash(Key));
    MixHashes.insert(hashVector(Key));
  }
  std::printf("Hash study over %zu unique keys:\n", AllKeys.size());
  std::printf("  paper hash  h(x)=size+sum 2^i*x_i : %zu distinct "
              "values (%zu collisions)\n",
              PaperHashes.size(), AllKeys.size() - PaperHashes.size());
  std::printf("  mixing hash (splitmix)            : %zu distinct "
              "values (%zu collisions)\n",
              MixHashes.size(), AllKeys.size() - MixHashes.size());
  return 0;
}
