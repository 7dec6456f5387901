//===- tests/analysis/RefsTest.cpp - Reference collection tests -----------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Refs.h"

#include "analysis/Analyzer.h"
#include "testutil/Helpers.h"
#include "gtest/gtest.h"

using namespace edda;
using namespace edda::testutil;

TEST(Refs, WriteAndReadCollected) {
  Program P = mustParse(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 1] = a[i] + 2
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  EXPECT_TRUE(Refs[0].IsWrite);
  EXPECT_EQ(Refs[0].Slot, -1);
  EXPECT_FALSE(Refs[1].IsWrite);
  EXPECT_EQ(Refs[1].Slot, 0);
  EXPECT_EQ(Refs[0].Loops.size(), 1u);
  EXPECT_EQ(Refs[0].Stmt, Refs[1].Stmt);
}

TEST(Refs, SlotOrderLhsSubscriptsFirst) {
  Program P = mustParse(R"(program s
  array a[100]
  array idx[100]
  for i = 1 to 10 do
    a[idx[i]] = a[i] + idx[i + 1]
  end
end
)",
                        /*Prepass=*/false);
  std::vector<ArrayReference> Refs = collectReferences(P);
  // write a, read idx (LHS subscript), read a, read idx.
  ASSERT_EQ(Refs.size(), 4u);
  EXPECT_TRUE(Refs[0].IsWrite);
  EXPECT_EQ(Refs[1].Slot, 0);
  EXPECT_EQ(Refs[1].ArrayId, *P.lookupArray("idx"));
  EXPECT_EQ(Refs[2].Slot, 1);
  EXPECT_EQ(Refs[2].ArrayId, *P.lookupArray("a"));
  EXPECT_EQ(Refs[3].Slot, 2);
}

TEST(Refs, ScalarAssignmentReadsCollected) {
  Program P = mustParse(R"(program s
  array a[100]
  s = 0
  for i = 1 to 10 do
    s = s + a[i]
  end
end
)",
                        /*Prepass=*/false);
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 1u);
  EXPECT_FALSE(Refs[0].IsWrite);
  EXPECT_EQ(Refs[0].Loops.size(), 1u);
}

TEST(Refs, NestingRecorded) {
  Program P = mustParse(R"(program s
  array a[100][100]
  for i = 1 to 10 do
    for j = 1 to 10 do
      a[i][j] = 1
    end
    a[i][1] = 2
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 2u);
  EXPECT_EQ(Refs[0].Loops.size(), 2u);
  EXPECT_EQ(Refs[1].Loops.size(), 1u);
  // Common outer loop object shared.
  EXPECT_EQ(Refs[0].Loops[0], Refs[1].Loops[0]);
}

TEST(Refs, StrSmoke) {
  Program P = mustParse(R"(program s
  array a[100]
  for i = 1 to 10 do
    a[i + 1] = 0
  end
end
)");
  std::vector<ArrayReference> Refs = collectReferences(P);
  ASSERT_EQ(Refs.size(), 1u);
  std::string S = refStr(P, Refs[0]);
  EXPECT_NE(S.find("a["), std::string::npos);
  EXPECT_NE(S.find("write"), std::string::npos);
}

TEST(Refs, ReferenceOutlivesItsResult) {
  Program P = mustParse(R"(program s
  array a[100][100]
  read n
  for i = 1 to n do
    for j = i to 10 do
      a[i + 1][j] = a[i][j + n]
    end
  end
end
)");
  ArrayReference Read;
  {
    AnalyzerOptions Opts;
    Opts.RunPrepass = false;
    DependenceAnalyzer Analyzer(Opts);
    AnalysisResult R = Analyzer.analyze(P);
    ASSERT_EQ(R.Refs.size(), 2u);
    Read = R.Refs[1];
  }
  // The copy alone keeps the collection's tables alive now; a read of
  // freed storage below fails under AddressSanitizer.
  const LoopStmt &I = asLoop(*P.body()[0]);
  const LoopStmt &J = asLoop(*I.body()[0]);
  ASSERT_EQ(Read.Loops.size(), 2u);
  EXPECT_EQ(Read.Loops[0], &I);
  EXPECT_EQ(Read.Loops[1], &J);
  EXPECT_FALSE(Read.Unanalyzable);
  ASSERT_EQ(Read.Subs.size(), 2u);
  // a[i][...]: one loop term, the loop at depth 0.
  ASSERT_EQ(Read.Subs[0].Terms.size(), 1u);
  EXPECT_EQ(Read.Subs[0].Terms[0].Loop, 0u);
  // a[...][j + n]: the symbolic n (declared first) and the loop at depth 1.
  ASSERT_EQ(Read.Subs[1].Terms.size(), 2u);
  EXPECT_EQ(Read.Subs[1].Terms[0].Loop, SummaryTerm::NoLoop);
  EXPECT_EQ(Read.Subs[1].Terms[1].Loop, 1u);
  // for i = 1 to n: a constant and a symbolic bound.
  EXPECT_TRUE(Read.loopInfo(0).Lo.Terms.empty());
  EXPECT_EQ(Read.loopInfo(0).Lo.Const, 1);
  ASSERT_EQ(Read.loopInfo(0).Hi.Terms.size(), 1u);
  EXPECT_EQ(Read.loopInfo(0).Hi.Terms[0].Loop, SummaryTerm::NoLoop);
  // for j = i to 10: the lower bound names the outer loop.
  ASSERT_EQ(Read.loopInfo(1).Lo.Terms.size(), 1u);
  EXPECT_EQ(Read.loopInfo(1).Lo.Terms[0].Loop, 0u);
  EXPECT_EQ(Read.loopInfo(1).Hi.Const, 10);
  EXPECT_EQ(Read.Subscripts.size(), 2u);
  EXPECT_EQ(refStr(P, Read), "a[i][(n + j)] (read at depth 2)");
}
