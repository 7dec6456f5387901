//===- tests/parser/ParserFuzzTest.cpp - Parser robustness ----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Robustness: the parser must never crash, loop or accept garbage —
/// every malformed input produces diagnostics. Inputs are random token
/// soups, truncated valid programs, and byte noise.
///
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "analysis/Analyzer.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

using namespace edda;

namespace {

const char *Tokens[] = {"program", "end",  "for",  "to",    "step",
                        "do",      "array", "read", "param", "+",
                        "-",       "*",     "(",    ")",     "[",
                        "]",       "=",     "i",    "j",     "a",
                        "n",       "0",     "1",    "42",    "#x\n",
                        "\n",      "$",     "9999999999999999999999"};

std::string randomSoup(SplitRng &Rng, unsigned Len) {
  std::string Out;
  for (unsigned I = 0; I < Len; ++I) {
    Out += Tokens[Rng.below(sizeof(Tokens) / sizeof(Tokens[0]))];
    Out += " ";
  }
  return Out;
}

} // namespace

TEST(ParserFuzz, TokenSoupNeverCrashes) {
  SplitRng Rng(4242);
  unsigned Accepted = 0;
  for (unsigned Iter = 0; Iter < 2000; ++Iter) {
    std::string Source = randomSoup(Rng, 1 + Rng.below(60));
    ParseResult R = parseProgram(Source);
    if (R.succeeded())
      ++Accepted;
    else
      EXPECT_FALSE(R.Diags.empty()) << Source;
  }
  // Random soups occasionally form valid programs ("program i end"),
  // but the vast majority must be rejected.
  EXPECT_LT(Accepted, 200u);
}

TEST(ParserFuzz, TruncatedValidProgramsAlwaysDiagnose) {
  const std::string Valid = R"(program demo
  array a[100]
  read n
  for i = 1 to n do
    for j = 1 to i do
      a[i + 2 * j] = a[i] + 3
    end
  end
end
)";
  for (size_t Len = 0; Len + 1 < Valid.size(); Len += 3) {
    ParseResult R = parseProgram(Valid.substr(0, Len));
    if (!R.succeeded())
      EXPECT_FALSE(R.Diags.empty()) << "prefix length " << Len;
  }
  EXPECT_TRUE(parseProgram(Valid).succeeded());
}

TEST(ParserFuzz, ByteNoiseNeverCrashes) {
  SplitRng Rng(99);
  for (unsigned Iter = 0; Iter < 500; ++Iter) {
    std::string Source;
    unsigned Len = 1 + static_cast<unsigned>(Rng.below(200));
    for (unsigned I = 0; I < Len; ++I)
      Source += static_cast<char>(Rng.below(127) + 1); // avoid NUL
    ParseResult R = parseProgram(Source);
    if (!R.succeeded())
      EXPECT_FALSE(R.Diags.empty());
  }
}

namespace {

/// parse -> print must reach a fixed point in one step: the printed
/// form reparses, and printing the reparse reproduces it byte for byte.
void expectPrintParseIdempotent(const std::string &Source,
                                const std::string &Label) {
  ParseResult First = parseProgram(Source);
  ASSERT_TRUE(First.succeeded())
      << Label << ": "
      << (First.Diags.empty() ? "source did not parse"
                              : First.Diags[0].str())
      << "\n"
      << Source;
  std::string Printed = First.Prog->print();
  ParseResult Second = parseProgram(Printed);
  ASSERT_TRUE(Second.succeeded())
      << Label << ": printed form does not reparse\n"
      << Printed;
  EXPECT_EQ(Second.Prog->print(), Printed)
      << Label << ": print/parse is not a fixed point";
}

} // namespace

TEST(ParserFuzz, PerfectClubProgramsPrintParseIdempotent) {
  GeneratorOptions Opts;
  Opts.Scale = 0.05; // Small case counts; shapes are what matter here.
  Opts.MaxWrapDepth = 2;
  Opts.IncludeSymbolic = true;
  for (const auto &[Name, Source] : generatePerfectClubSuite(Opts))
    expectPrintParseIdempotent(Source, Name);
}

TEST(ParserFuzz, RandomProgramsPrintParseIdempotent) {
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    SplitRng Rng(Seed);
    expectPrintParseIdempotent(generateRandomProgram(Rng),
                               "seed " + std::to_string(Seed));
  }
}

TEST(ParserFuzz, DeepNestingHandled) {
  // 200 nested loops: recursion depth must be fine and the program
  // valid.
  std::string Source = "program deep\n  array a[10]\n";
  for (int I = 0; I < 200; ++I)
    Source += "for v" + std::to_string(I) + " = 1 to 2 do\n";
  Source += "a[1] = 0\n";
  for (int I = 0; I < 200; ++I)
    Source += "end\n";
  Source += "end\n";
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.succeeded());
}

TEST(ParserFuzz, DeepExpressionNesting) {
  std::string Source = "program deep\n  array a[10]\n  a[1] = ";
  for (int I = 0; I < 400; ++I)
    Source += "(1 + ";
  Source += "0";
  for (int I = 0; I < 400; ++I)
    Source += ")";
  Source += "\nend\n";
  ParseResult R = parseProgram(Source);
  EXPECT_TRUE(R.succeeded());
}

namespace {

/// "x = " followed by \p Expr in a one-loop program.
std::string assignProgram(const std::string &Expr) {
  return "program deep\n  array a[10]\n  for i = 1 to 2 do\n    x = " +
         Expr + "\n    a[i] = 0\n  end\nend\n";
}

/// "i + i + ... + i" with \p Terms terms: a tree \p Terms levels tall.
std::string chain(unsigned Terms) {
  std::string Out = "i";
  for (unsigned I = 1; I < Terms; ++I)
    Out += " + i";
  return Out;
}

std::string repeat(const char *Piece, unsigned Times) {
  std::string Out;
  for (unsigned I = 0; I < Times; ++I)
    Out += Piece;
  return Out;
}

/// Parses \p Source, which is exactly at a nesting bound, and analyzes
/// it: every recursive walk must fit the stack (the sanitizer builds'
/// frames included). Printing must give a program that parses back.
void expectAtBoundAnalyzes(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  ASSERT_TRUE(R.succeeded()) << R.Diags[0].str();
  EXPECT_TRUE(parseProgram(R.Prog->print()).succeeded());
  DependenceAnalyzer Analyzer;
  AnalysisResult Result = Analyzer.analyze(*R.Prog);
  EXPECT_FALSE(Result.Pairs.empty());
}

/// \p Source is one level past a bound: it gets the diagnostic \p Want.
void expectPastBoundDiagnosed(const std::string &Source,
                              const std::string &Want) {
  ParseResult R = parseProgram(Source);
  ASSERT_FALSE(R.succeeded());
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_NE(R.Diags[0].Message.find(Want), std::string::npos)
      << R.Diags[0].str();
}

} // namespace

TEST(ParserFuzz, ExpressionTreeHeightBound) {
  const std::string Taller =
      "expression tree is taller than " + std::to_string(MaxExprHeight);
  // A left-associative chain is built without recursion; its height is
  // what is bounded. In a subscript read the chain sits under the read.
  const std::string ReadAtBound = "program deep\n  array a[10]\n"
                                  "  for i = 1 to 2 do\n    a[i] = a[" +
                                  chain(MaxExprHeight - 1) +
                                  "]\n  end\nend\n";
  expectAtBoundAnalyzes(ReadAtBound);
  expectAtBoundAnalyzes("program deep\n  array a[10]\n"
                        "  for i = 1 to 2 do\n    a[" +
                        chain(MaxExprHeight) + "] = a[i]\n  end\nend\n");
  expectAtBoundAnalyzes(assignProgram(chain(MaxExprHeight)));
  expectPastBoundDiagnosed(assignProgram(chain(MaxExprHeight + 1)), Taller);
  expectPastBoundDiagnosed("program deep\n  array a[10]\n"
                           "  for i = 1 to 2 do\n    a[i] = a[" +
                               chain(MaxExprHeight) + "]\n  end\nend\n",
                           Taller);
  // Each unary minus adds a level.
  expectAtBoundAnalyzes(assignProgram(repeat("-", MaxExprHeight - 1) + "i"));
  expectPastBoundDiagnosed(assignProgram(repeat("-", MaxExprHeight) + "i"),
                           Taller);
}

TEST(ParserFuzz, ExpressionNestingBound) {
  const std::string Deeper =
      "expression nests deeper than " + std::to_string(MaxExprNesting);
  // Parentheses add no node, but each one is a level of recursion.
  expectAtBoundAnalyzes(assignProgram(repeat("(", MaxExprNesting) + "i" +
                                      repeat(")", MaxExprNesting)));
  expectPastBoundDiagnosed(assignProgram(repeat("(", MaxExprNesting + 1) +
                                         "i" +
                                         repeat(")", MaxExprNesting + 1)),
                           Deeper);
  // Nested subscripts, a[a[...a[i]...]], are one level of recursion and
  // one of height each: the height bound is the one met first, and the
  // nesting bound still stops the recursion on its own.
  auto Nested = [](unsigned Levels) {
    return repeat("a[", Levels) + "i" + repeat("]", Levels);
  };
  expectAtBoundAnalyzes(assignProgram(Nested(MaxExprHeight - 1)));
  expectPastBoundDiagnosed(assignProgram(Nested(MaxExprHeight)),
                           "expression tree is taller than " +
                               std::to_string(MaxExprHeight));
  expectPastBoundDiagnosed(assignProgram(Nested(MaxExprNesting + 1)),
                           Deeper);
}

TEST(ParserFuzz, HostileNestingDiagnosedNotCrashed) {
  // Inputs that once exhausted the stack, in the parser or in analyze().
  const unsigned Huge = 100000;
  for (const std::string &Expr :
       {repeat("-", Huge) + "i", repeat("(", Huge) + "i" + repeat(")", Huge),
        chain(Huge)}) {
    ParseResult R = parseProgram(assignProgram(Expr));
    EXPECT_FALSE(R.succeeded());
    EXPECT_FALSE(R.Diags.empty());
  }
  ParseResult R = parseProgram("program deep\n  array a[10]\n"
                               "  for i = 1 to 2 do\n    a[" +
                               chain(Huge) + "] = 0\n  end\nend\n");
  EXPECT_FALSE(R.succeeded());
}

TEST(ParserFuzz, LoopDepthBound) {
  auto Nest = [](unsigned Depth) {
    std::string Source = "program deep\n  array a[10]\n";
    for (unsigned I = 0; I < Depth; ++I)
      Source += "for v" + std::to_string(I) + " = 1 to 2 do\n";
    Source += "a[v0] = a[v0 + 1]\n";
    for (unsigned I = 0; I < Depth; ++I)
      Source += "end\n";
    return Source + "end\n";
  };
  expectAtBoundAnalyzes(Nest(MaxLoopDepth));
  expectPastBoundDiagnosed(Nest(MaxLoopDepth + 1),
                           "loops nest deeper than " +
                               std::to_string(MaxLoopDepth));
}
