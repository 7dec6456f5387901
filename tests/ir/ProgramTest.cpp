//===- tests/ir/ProgramTest.cpp - Program/Stmt tests ----------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include "analysis/Refs.h"
#include "ir/Fingerprint.h"
#include "opt/Pipeline.h"
#include "parser/Parser.h"
#include "support/Hashing.h"
#include "workload/Generator.h"
#include "gtest/gtest.h"

#include <map>
#include <set>

using namespace edda;

namespace {

/// Records every node reachable from \p E under its rendering, which
/// spells out the whole structure (array reads render their id).
void recordNodes(const Expr *E,
                 std::map<std::string, std::set<const Expr *>> &Seen) {
  Seen[E->str([](unsigned V) { return "v" + std::to_string(V); })].insert(
      E);
  if (E->kind() == ExprKind::ArrayRead) {
    for (const Expr *S : E->subscripts())
      recordNodes(S, Seen);
  } else if (E->kind() != ExprKind::Const && E->kind() != ExprKind::Var) {
    recordNodes(E->lhs(), Seen);
    if (E->kind() != ExprKind::Neg)
      recordNodes(E->rhs(), Seen);
  }
}

void recordStmts(const std::vector<StmtPtr> &Body,
                 std::map<std::string, std::set<const Expr *>> &Seen) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(*S);
      if (A.isArrayLhs())
        for (const Expr *Sub : A.lhsSubscripts())
          recordNodes(Sub, Seen);
      recordNodes(A.rhs(), Seen);
      continue;
    }
    const LoopStmt &L = asLoop(*S);
    recordNodes(L.lo(), Seen);
    recordNodes(L.hi(), Seen);
    recordStmts(L.body(), Seen);
  }
}

/// Mixes into \p Digest every fingerprint the IR computes for \p Body:
/// each statement's, each loop's chain, each array access's and each
/// right-hand side's.
void digestFingerprints(const Program &P, const std::vector<StmtPtr> &Body,
                        uint64_t Chain, uint64_t &Digest) {
  for (const StmtPtr &S : Body) {
    Digest = hashCombine(Digest, fingerprintStmt(P, *S));
    if (S->kind() == StmtKind::Loop) {
      const LoopStmt &L = asLoop(*S);
      const uint64_t Inner = extendLoopChain(P, Chain, L);
      Digest = hashCombine(Digest, Inner);
      digestFingerprints(P, L.body(), Inner, Digest);
      continue;
    }
    const AssignStmt &A = asAssign(*S);
    if (A.isArrayLhs())
      Digest = hashCombine(Digest, fingerprintArrayAccess(
                                       P, A.lhsArray(), A.lhsSubscripts()));
    Digest = hashCombine(Digest, fingerprintExpr(P, A.rhs()));
  }
}

/// Names "<Prefix>0", "<Prefix>1", ...
std::string nth(const char *Prefix, unsigned I) {
  return Prefix + std::to_string(I);
}

} // namespace

TEST(Program, StructurallyEqualNodesAreOnePointer) {
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    ParseResult R = parseProgram(Source);
    ASSERT_TRUE(R.succeeded()) << Name;
    Program &P = *R.Prog;
    std::map<std::string, std::set<const Expr *>> Parsed, Prepassed;
    recordStmts(P.body(), Parsed);
    runPrepass(P);
    recordStmts(P.body(), Prepassed);
    for (const auto *Seen : {&Parsed, &Prepassed})
      for (const auto &[Rendering, Nodes] : *Seen)
        EXPECT_EQ(Nodes.size(), 1u) << Name << ": " << Rendering;
    EXPECT_LE(Parsed.size(), P.exprs().size()) << Name;
  }
}

TEST(Program, SymbolTables) {
  Program P("demo");
  unsigned I = P.addVar("i", VarKind::Loop);
  unsigned N = P.addVar("n", VarKind::Symbolic);
  unsigned A = P.addArray("a", {100});
  EXPECT_EQ(P.numVars(), 2u);
  EXPECT_EQ(P.numArrays(), 1u);
  EXPECT_EQ(P.lookupVar("i"), std::optional<unsigned>(I));
  EXPECT_EQ(P.lookupVar("n"), std::optional<unsigned>(N));
  EXPECT_EQ(P.lookupVar("missing"), std::nullopt);
  EXPECT_EQ(P.lookupArray("a"), std::optional<unsigned>(A));
  EXPECT_EQ(P.var(N).Kind, VarKind::Symbolic);
  EXPECT_EQ(P.array(A).rank(), 1u);
  P.setVarKind(N, VarKind::Scalar);
  EXPECT_EQ(P.var(N).Kind, VarKind::Scalar);
}

TEST(Program, SymbolTableGrowsAndKeepsNamespacesApart) {
  // Thousands of names force the table through several growths.
  constexpr unsigned N = 3000;
  Program P("many");
  for (unsigned I = 0; I < N; ++I) {
    EXPECT_EQ(P.addVar(nth("v", I), VarKind::Scalar), I);
    EXPECT_EQ(P.addArray(nth("a", I), {int64_t(I) + 1}), I);
  }
  for (unsigned I = 0; I < N; ++I) {
    EXPECT_EQ(P.lookupVar(nth("v", I)), std::optional<unsigned>(I));
    EXPECT_EQ(P.lookupArray(nth("a", I)), std::optional<unsigned>(I));
    // One name space per kind: a variable is no array, and the reverse.
    EXPECT_EQ(P.lookupArray(nth("v", I)), std::nullopt);
    EXPECT_EQ(P.lookupVar(nth("a", I)), std::nullopt);
    const Symbol S = P.lookupSymbol(nth("a", I));
    EXPECT_EQ(S.Kind, SymbolKind::Array);
    EXPECT_EQ(S.Id, I);
    EXPECT_EQ(P.array(I).NameHash, hashName(nth("a", I)));
    ASSERT_EQ(P.array(I).Extents.size(), 1u);
    EXPECT_EQ(P.array(I).Extents[0], int64_t(I) + 1);
  }
  EXPECT_FALSE(P.lookupSymbol("v3000"));
  EXPECT_FALSE(P.lookupSymbol(""));
}

TEST(Program, CopyKeepsSymbolsAndGrowsApart) {
  Program P("source");
  for (unsigned I = 0; I < 100; ++I) {
    P.addVar(nth("v", I), VarKind::Loop);
    P.addArray(nth("a", I), {10, int64_t(I)});
  }
  Program Copy(P);
  for (unsigned I = 0; I < 100; ++I) {
    EXPECT_EQ(Copy.lookupVar(nth("v", I)), std::optional<unsigned>(I));
    EXPECT_EQ(Copy.lookupArray(nth("a", I)), std::optional<unsigned>(I));
    EXPECT_EQ(Copy.array(I).Extents[1], int64_t(I));
  }
  // Names added to the copy, past the growths they cause, stay there.
  for (unsigned I = 0; I < 1000; ++I) {
    Copy.addVar(nth("w", I), VarKind::Scalar);
    Copy.addArray(nth("b", I), {7});
  }
  EXPECT_EQ(Copy.lookupVar("w999"), std::optional<unsigned>(1099));
  EXPECT_EQ(Copy.lookupArray("b0"), std::optional<unsigned>(100));
  EXPECT_EQ(P.numVars(), 100u);
  EXPECT_EQ(P.numArrays(), 100u);
  for (unsigned I = 0; I < 1000; ++I) {
    EXPECT_FALSE(P.lookupSymbol(nth("w", I)));
    EXPECT_FALSE(P.lookupSymbol(nth("b", I)));
  }
  EXPECT_EQ(P.lookupVar("v99"), std::optional<unsigned>(99));
  EXPECT_EQ(P.print(), Program(P).print());
}

TEST(Program, SuiteFingerprintsPinned) {
  // Every fingerprint of every suite program, as parsed and after the
  // prepass, plus each reference's from collectReferences. The digest
  // was computed before symbols kept their name hashes; fingerprints
  // are reuse keys, so they must not drift.
  uint64_t Digest = 0;
  for (const auto &[Name, Source] :
       generatePerfectClubSuite(GeneratorOptions())) {
    ParseResult R = parseProgram(Source);
    ASSERT_TRUE(R.succeeded()) << Name;
    Program &P = *R.Prog;
    digestFingerprints(P, P.body(), emptyLoopChain(), Digest);
    runPrepass(P);
    digestFingerprints(P, P.body(), emptyLoopChain(), Digest);
    for (const ArrayReference &Ref : collectReferences(P)) {
      Digest = hashCombine(Digest, Ref.Fingerprint);
      Digest = hashCombine(Digest, Ref.FingerprintNoBounds);
    }
  }
  EXPECT_EQ(Digest, 0x0f23d76f2ebef49eull);
}

TEST(Program, StmtConstructionAndCasts) {
  Program P("demo");
  unsigned I = P.addVar("i", VarKind::Loop);
  unsigned A = P.addArray("a", {10});
  auto Loop = std::make_unique<LoopStmt>(I, P.exprs().makeConst(1),
                                         P.exprs().makeConst(10), 1);
  std::vector<const Expr *> Subs;
  Subs.push_back(P.exprs().makeVar(I));
  Loop->body().push_back(std::make_unique<AssignStmt>(
      A, std::move(Subs), P.exprs().makeConst(0)));
  EXPECT_EQ(Loop->kind(), StmtKind::Loop);
  const AssignStmt &Assign = asAssign(*Loop->body()[0]);
  EXPECT_TRUE(Assign.isArrayLhs());
  EXPECT_EQ(Assign.lhsArray(), A);
  EXPECT_EQ(Assign.lhsSubscripts().size(), 1u);
}

TEST(Program, CloneIsDeep) {
  Program P("demo");
  unsigned I = P.addVar("i", VarKind::Loop);
  auto Loop = std::make_unique<LoopStmt>(I, P.exprs().makeConst(1),
                                         P.exprs().makeConst(3), 1);
  Loop->body().push_back(
      std::make_unique<AssignStmt>(P.addVar("s", VarKind::Scalar),
                                   P.exprs().makeConst(7)));
  P.body().push_back(std::move(Loop));

  Program Copy(P);
  // Mutating the copy leaves the original alone.
  asLoop(*Copy.body()[0]).setHi(Copy.exprs().makeConst(99));
  EXPECT_EQ(asLoop(*P.body()[0]).hi()->constValue(), 3);
  EXPECT_EQ(asLoop(*Copy.body()[0]).hi()->constValue(), 99);
}

TEST(Program, PrintParsesBack) {
  const char *Source = R"(program roundtrip
  array a[100][100]
  read n
  for i = 1 to n do
    for j = 1 to i do
      a[i][j] = a[i - 1][j + 1] + 3
    end
  end
end
)";
  ParseResult First = parseProgram(Source);
  ASSERT_TRUE(First.succeeded());
  std::string Printed = First.Prog->print();
  ParseResult Second = parseProgram(Printed);
  ASSERT_TRUE(Second.succeeded()) << Printed;
  // Printing is a fixpoint after one round.
  EXPECT_EQ(Second.Prog->print(), Printed);
}

TEST(Program, PrintShowsStep) {
  const char *Source = R"(program s
  array a[10]
  for i = 1 to 9 step 2 do
    a[i] = 0
  end
end
)";
  ParseResult R = parseProgram(Source);
  ASSERT_TRUE(R.succeeded());
  EXPECT_NE(R.Prog->print().find("step 2"), std::string::npos);
}

TEST(Program, ParallelFlagSurvivesClone) {
  Program P("demo");
  unsigned I = P.addVar("i", VarKind::Loop);
  auto Loop = std::make_unique<LoopStmt>(I, P.exprs().makeConst(1),
                                         P.exprs().makeConst(3), 1);
  Loop->setParallel(true);
  StmtPtr Copy = Loop->clone();
  EXPECT_TRUE(asLoop(*Copy).isParallel());
}
