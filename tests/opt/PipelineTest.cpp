//===- tests/opt/PipelineTest.cpp - Prepass pipeline tests ----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"

#include "analysis/Analyzer.h"
#include "analysis/Builder.h"
#include "analysis/Interp.h"
#include "analysis/Refs.h"
#include "parser/Parser.h"
#include "testutil/Helpers.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <iterator>
#include <thread>

using namespace edda;
using namespace edda::testutil;

namespace {

Program prepassed(const std::string &Source) {
  Program P = mustParse(Source, /*Prepass=*/false);
  Program Before(P);
  runPrepass(P);
  InterpResult R1 = interpret(Before);
  InterpResult R2 = interpret(P);
  EXPECT_TRUE(R1.Ok);
  EXPECT_TRUE(R2.Ok);
  EXPECT_EQ(R1.Memory, R2.Memory) << "prepass changed semantics";
  return P;
}

/// FNV-1a, 64-bit: a fixed, portable digest for golden output values.
uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// True when every reference's subscripts are affine in enclosing loop
/// variables and symbolics (i.e. buildProblem succeeds for every pair
/// with itself).
bool allAnalyzable(const Program &P) {
  std::vector<ArrayReference> Refs = collectReferences(P);
  for (const ArrayReference &Ref : Refs)
    if (!buildProblem(P, Ref, Ref))
      return false;
  return true;
}

} // namespace

TEST(Pipeline, PaperSection8EndToEnd) {
  // The paper's full motivating chain: strided loop + induction scalar +
  // param, all collapsing to affine subscripts.
  Program P = prepassed(R"(program s
  array a[500]
  param n = 100
  iz = 0
  for i = 1 to 10 do
    iz = iz + 2
    a[iz + n] = a[iz + 2 * n + 1] + 3
  end
end
)");
  EXPECT_TRUE(allAnalyzable(P));
}

TEST(Pipeline, StridedInduction) {
  // Induction inside a strided loop: normalization first, then
  // induction over the normalized variable.
  Program P = prepassed(R"(program s
  array a[500]
  k = 0
  for i = 1 to 19 step 2 do
    k = k + 1
    a[k] = i
  end
end
)");
  EXPECT_TRUE(allAnalyzable(P));
}

TEST(Pipeline, SymbolicProgramAnalyzable) {
  Program P = prepassed(R"(program s
  array a[500]
  read n
  for i = 1 to 10 do
    a[i + n] = a[i + 2 * n + 1] + 3
  end
end
)");
  EXPECT_TRUE(allAnalyzable(P));
}

TEST(Pipeline, NonAffineStaysUnanalyzable) {
  Program P = prepassed(R"(program s
  array a[500]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i * j] = 1
    end
  end
end
)");
  EXPECT_FALSE(allAnalyzable(P));
}

TEST(Pipeline, IndirectionStaysUnanalyzable) {
  Program P = prepassed(R"(program s
  array a[500]
  array idx[500]
  for i = 1 to 10 do
    a[idx[i]] = 1
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  bool FoundUnanalyzable = false;
  for (const ArrayReference &Ref : Refs)
    if (Ref.ArrayId == *P.lookupArray("a") && !buildProblem(P, Ref, Ref))
      FoundUnanalyzable = true;
  EXPECT_TRUE(FoundUnanalyzable);
}

namespace {

/// The tallest expression tree in \p Body.
unsigned tallestTree(const std::vector<StmtPtr> &Body) {
  unsigned Tallest = 0;
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &As = asAssign(*S);
      Tallest = std::max(Tallest, As.rhs()->height());
      if (As.isArrayLhs())
        for (const Expr *Sub : As.lhsSubscripts())
          Tallest = std::max(Tallest, Sub->height());
      continue;
    }
    const LoopStmt &L = asLoop(*S);
    Tallest = std::max({Tallest, L.lo()->height(), L.hi()->height(),
                        tallestTree(L.body())});
  }
  return Tallest;
}

} // namespace

TEST(Pipeline, AssignmentChainsStayBounded) {
  // x = i, then a chain of links, then a[x] = 0. Forward substitution
  // once composed the whole chain into x's binding: 16,000 links of
  // x = x * i took edda-cli 11 s (a tree 16,000 levels tall), and 60
  // links of x = x * x, each doubling the tree, never finished.
  const std::pair<const char *, unsigned> Chains[] = {
      {"x = x * i", 16000}, {"x = x * x", 60}, {"x = x + i", 2000}};
  for (const auto &[Link, Links] : Chains) {
    std::string Source = "program chain\n  array a[10]\n"
                         "  for i = 1 to 2 do\n    x = i\n";
    for (unsigned I = 0; I < Links; ++I)
      Source += std::string("    ") + Link + "\n";
    Source += "    a[x] = 0\n  end\nend\n";
    Program P = mustParse(Source, /*Prepass=*/false);
    runPrepass(P);
    EXPECT_LE(tallestTree(P.body()), 2 * MaxExprHeight) << Link;
    // analyze() runs the same prepass on an unoptimized copy.
    Program Parsed = mustParse(Source, /*Prepass=*/false);
    DependenceAnalyzer Analyzer;
    EXPECT_FALSE(Analyzer.analyze(Parsed).Pairs.empty()) << Link;
  }
}

TEST(Pipeline, GeneratedSuiteIsFullyAnalyzable) {
  // Every synthetic PERFECT Club case must come out of the prepass in
  // analyzable form.
  GeneratorOptions Opts;
  Opts.Scale = 0.02;
  Opts.IncludeSymbolic = true;
  for (const auto &[Name, Source] : generatePerfectClubSuite(Opts)) {
    Program P = mustParse(Source, /*Prepass=*/false);
    runPrepass(P);
    EXPECT_TRUE(allAnalyzable(P)) << Name;
  }
}

TEST(Pipeline, IdempotentOnSimplePrograms) {
  Program P = prepassed(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 1] = a[i]
  end
end
)");
  std::string Once = P.print();
  runPrepass(P);
  EXPECT_EQ(P.print(), Once);
}

// The passes after foldConstants return at once on a program that
// assigns no scalar, but each decides that after its own index, so the
// recomputation normalization inserts for a strided loop is still
// substituted away. The expected texts are the prepass output from
// before the passes could return early.
TEST(Pipeline, StridedLoopWithoutScalarsStillSubstituted) {
  Program P = prepassed(R"(program s
  array a[100]
  read n
  for i = 1 to 19 step 2 do
    a[i] = a[i + 1] + n
  end
  for j = 1 to 10 do
    a[j + 40] = a[j]
  end
end
)");
  EXPECT_EQ(P.print(), R"(program s
  array a[100]
  read n
  for i__n = 0 to 9 do
    i = ((2 * i__n) + 1)
    a[((2 * i__n) + 1)] = (a[((2 * i__n) + 2)] + n)
  end
  for j = 1 to 10 do
    a[(j + 40)] = a[j]
  end
end
)");
  EXPECT_TRUE(allAnalyzable(P));
}

TEST(Pipeline, ParamIsTheOnlyScalar) {
  // A param is an assignment, so the passes run and fold it away.
  Program P = prepassed(R"(program s
  array a[200]
  param n = 50
  for i = 1 to 10 do
    a[i + n] = a[i] + n
  end
end
)");
  EXPECT_EQ(P.print(), R"(program s
  array a[200]
  n = 50
  for i = 1 to 10 do
    a[(i + 50)] = (a[i] + 50)
  end
end
)");
}

TEST(Pipeline, SuitePrepassOutputGolden) {
  // Digests of Program::print() after runPrepass for every suite
  // program at the default generator options. They pin the prepass's
  // output bytes: sharing unchanged subtrees and skipping already-folded
  // nodes are pure speedups and must not change a single byte.
  const std::pair<const char *, uint64_t> Golden[] = {
      {"AP", 0x3734585c84acaf79ull}, {"CS", 0x0b2b89bb02d46e8bull},
      {"LG", 0xdb1217b5d3f37044ull}, {"LW", 0x2c2710716d50d8bdull},
      {"MT", 0x4e5e2b49ce3d60b6ull}, {"NA", 0x39dc1b10a7f2e4b8ull},
      {"OC", 0x337c2c65068fa858ull}, {"SD", 0x783e5e5d71b9031aull},
      {"SM", 0x83f2310136f58420ull}, {"SR", 0x283bc925e9966790ull},
      {"TF", 0xdf6146e3bd294795ull}, {"TI", 0xe37dead6f7be2621ull},
      {"WS", 0x4d60f7f3b9c7dacfull},
  };
  std::vector<std::pair<std::string, std::string>> Suite =
      generatePerfectClubSuite(GeneratorOptions());
  ASSERT_EQ(Suite.size(), std::size(Golden));
  for (size_t I = 0; I < Suite.size(); ++I) {
    const auto &[Name, Source] = Suite[I];
    EXPECT_EQ(Name, Golden[I].first);
    Program P = mustParse(Source, /*Prepass=*/false);
    runPrepass(P);
    EXPECT_EQ(fnv1a(P.print()), Golden[I].second)
        << Name << " prepass output changed";
  }
}

namespace {

/// The printed program after analyze() (which runs the prepass), then
/// every reference and every pair's outcome.
std::string analyzedDigest(Program &P) {
  DependenceAnalyzer Analyzer;
  AnalysisResult R = Analyzer.analyze(P);
  std::string Out = P.print();
  for (const ArrayReference &Ref : R.Refs)
    Out += refStr(P, Ref) + " " + std::to_string(Ref.Fingerprint) + "\n";
  for (const DependencePair &Pair : R.Pairs)
    Out += std::to_string(Pair.RefA) + "," + std::to_string(Pair.RefB) +
           " " + std::to_string(static_cast<int>(Pair.Answer)) + " " +
           std::to_string(static_cast<int>(Pair.DecidedBy)) +
           (Pair.Exact ? " exact\n" : "\n");
  return Out;
}

} // namespace

// Two copies of one parsed program share its nodes and make new ones
// each in its own arena, so prepassing and analyzing them on two threads
// at once gives what a serial run gives (and, under TSan, races on
// nothing).
TEST(Pipeline, CopiesPrepassAndAnalyzeOnTwoThreads) {
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    Program Parsed = mustParse(Source, /*Prepass=*/false);
    Program Serial(Parsed);
    std::string Want = analyzedDigest(Serial);

    Program First(Parsed), Second(Parsed);
    std::string Got1, Got2;
    std::thread T1([&] { Got1 = analyzedDigest(First); });
    std::thread T2([&] { Got2 = analyzedDigest(Second); });
    T1.join();
    T2.join();
    EXPECT_EQ(Got1, Want) << Name;
    EXPECT_EQ(Got2, Want) << Name;
    // The source program is untouched by its copies' prepasses.
    EXPECT_EQ(Parsed.print(), mustParse(Source, false).print()) << Name;
  }
}
