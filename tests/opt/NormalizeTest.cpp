//===- tests/opt/NormalizeTest.cpp - Loop normalization tests -------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "opt/Normalize.h"

#include "analysis/Interp.h"
#include "parser/Parser.h"
#include "testutil/Helpers.h"
#include "gtest/gtest.h"

using namespace edda;
using namespace edda::testutil;

namespace {

Program normalized(const std::string &Source) {
  Program P = mustParse(Source, /*Prepass=*/false);
  Program Before(P);
  normalizeLoops(P);
  InterpResult R1 = interpret(Before);
  InterpResult R2 = interpret(P);
  EXPECT_TRUE(R1.Ok);
  EXPECT_TRUE(R2.Ok);
  EXPECT_EQ(R1.Memory, R2.Memory) << "normalization changed semantics";
  return P;
}

const LoopStmt &firstLoop(const Program &P) {
  for (const StmtPtr &S : P.body())
    if (S->kind() == StmtKind::Loop)
      return asLoop(*S);
  ADD_FAILURE() << "no loop in program";
  static ExprArena DummyExprs;
  static LoopStmt Dummy(0, DummyExprs.makeConst(0), DummyExprs.makeConst(0),
                        1);
  return Dummy;
}

} // namespace

TEST(Normalize, StepTwo) {
  Program P = normalized(R"(program s
  array a[30]
  for i = 1 to 9 step 2 do
    a[i] = 1
  end
end
)");
  const LoopStmt &L = firstLoop(P);
  EXPECT_EQ(L.step(), 1);
  EXPECT_EQ(L.lo()->constValue(), 0);
  EXPECT_EQ(L.hi()->constValue(), 4); // 5 iterations: 1,3,5,7,9
  // First body statement recomputes the original variable.
  ASSERT_FALSE(L.body().empty());
  EXPECT_EQ(L.body()[0]->kind(), StmtKind::Assign);
}

TEST(Normalize, NegativeStep) {
  Program P = normalized(R"(program s
  array a[30]
  for i = 9 to 1 step -3 do
    a[i] = 1
  end
end
)");
  const LoopStmt &L = firstLoop(P);
  EXPECT_EQ(L.step(), 1);
  EXPECT_EQ(L.hi()->constValue(), 2); // 9, 6, 3
}

TEST(Normalize, StepOneUntouched) {
  Program P = normalized(R"(program s
  array a[30]
  for i = 1 to 9 do
    a[i] = 1
  end
end
)");
  const LoopStmt &L = firstLoop(P);
  EXPECT_EQ(L.lo()->constValue(), 1);
  EXPECT_EQ(L.hi()->constValue(), 9);
  EXPECT_EQ(L.body().size(), 1u); // no recompute inserted
}

TEST(Normalize, EmptyLoopStaysEmpty) {
  Program P = normalized(R"(program s
  array a[30]
  for i = 9 to 1 step 2 do
    a[i] = 1
  end
end
)");
  const LoopStmt &L = firstLoop(P);
  EXPECT_EQ(L.hi()->constValue(), -1); // zero-trip normalized range
}

TEST(Normalize, NonConstantBoundsSkipped) {
  Program P = normalized(R"(program s
  array a[30]
  read n
  for i = 1 to n step 2 do
    a[i] = 1
  end
end
)");
  EXPECT_EQ(firstLoop(P).step(), 2);
}

TEST(Normalize, NestedStrides) {
  Program P = normalized(R"(program s
  array a[30][30]
  for i = 2 to 10 step 2 do
    for j = 1 to 7 step 3 do
      a[i][j] = i + j
    end
  end
end
)");
  const LoopStmt &Outer = firstLoop(P);
  EXPECT_EQ(Outer.step(), 1);
  // Inner loop is the second statement of the rebuilt outer body
  // (after the recompute assignment).
  ASSERT_GE(Outer.body().size(), 2u);
  const LoopStmt &Inner = asLoop(*Outer.body()[1]);
  EXPECT_EQ(Inner.step(), 1);
}

TEST(Normalize, FreshVariableNameAvoidsCollision) {
  Program P = normalized(R"(program s
  array a[30]
  i__n = 7
  for i = 1 to 9 step 2 do
    a[i] = i__n
  end
end
)");
  // The obvious fresh name "i__n" is taken; a suffixed one is used.
  EXPECT_TRUE(P.lookupVar("i__n1").has_value());
}
