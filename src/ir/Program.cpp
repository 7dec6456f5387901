//===- ir/Program.cpp - LoopLang programs and statements -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <functional>

using namespace edda;

// Out-of-line virtual method anchor.
Stmt::~Stmt() = default;

StmtPtr AssignStmt::clone() const {
  // Expression nodes are immutable, so sharing them is a correct deep
  // copy of the semantics.
  if (IsArrayLhs)
    return std::make_unique<AssignStmt>(LhsId, LhsSubscripts, Rhs);
  return std::make_unique<AssignStmt>(LhsId, Rhs);
}

StmtPtr LoopStmt::clone() const {
  auto Copy = std::make_unique<LoopStmt>(VarId, Lo, Hi, Step);
  Copy->Parallel = Parallel;
  Copy->Body.reserve(Body.size());
  for (const StmtPtr &S : Body)
    Copy->Body.push_back(S->clone());
  return Copy;
}

Program::Program(const Program &RHS)
    : Name(RHS.Name),
      Exprs(RHS.Exprs ? std::make_shared<ExprArena>(RHS.Exprs) : nullptr),
      Vars(RHS.Vars), Arrays(RHS.Arrays), VarIndex(RHS.VarIndex),
      ArrayIndex(RHS.ArrayIndex) {
  Body.reserve(RHS.Body.size());
  for (const StmtPtr &S : RHS.Body)
    Body.push_back(S->clone());
}

Program &Program::operator=(const Program &RHS) {
  if (this == &RHS)
    return *this;
  Program Copy(RHS);
  *this = std::move(Copy);
  return *this;
}

unsigned Program::addVar(std::string VarName, VarKind Kind) {
  assert(!lookupVar(VarName) && "duplicate variable name");
  unsigned Id = static_cast<unsigned>(Vars.size());
  VarIndex.emplace(VarName, Id);
  Vars.push_back(VarInfo{std::move(VarName), Kind});
  return Id;
}

unsigned Program::addArray(std::string ArrayName,
                           std::vector<int64_t> Extents) {
  assert(!lookupArray(ArrayName) && "duplicate array name");
  unsigned Id = static_cast<unsigned>(Arrays.size());
  ArrayIndex.emplace(ArrayName, Id);
  Arrays.push_back(ArrayInfo{std::move(ArrayName), std::move(Extents)});
  return Id;
}

std::optional<unsigned> Program::lookupVar(std::string_view VarName) const {
  auto It = VarIndex.find(VarName);
  if (It == VarIndex.end())
    return std::nullopt;
  return It->second;
}

std::optional<unsigned>
Program::lookupArray(std::string_view ArrayName) const {
  auto It = ArrayIndex.find(ArrayName);
  if (It == ArrayIndex.end())
    return std::nullopt;
  return It->second;
}

namespace {

/// Renders expressions with array reads resolved through the program's
/// array table (Expr::str alone cannot resolve array names).
std::string printExpr(const Program &P, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const:
    return std::to_string(E->constValue());
  case ExprKind::Var:
    return P.var(E->varId()).Name;
  case ExprKind::Add:
    return "(" + printExpr(P, E->lhs()) + " + " + printExpr(P, E->rhs()) +
           ")";
  case ExprKind::Sub:
    return "(" + printExpr(P, E->lhs()) + " - " + printExpr(P, E->rhs()) +
           ")";
  case ExprKind::Mul:
    return "(" + printExpr(P, E->lhs()) + " * " + printExpr(P, E->rhs()) +
           ")";
  case ExprKind::Neg:
    return "(-" + printExpr(P, E->lhs()) + ")";
  case ExprKind::ArrayRead: {
    std::string Out = P.array(E->arrayId()).Name;
    for (const Expr *S : E->subscripts())
      Out += "[" + printExpr(P, S) + "]";
    return Out;
  }
  }
  assert(false && "unknown expression kind");
  return "";
}

void printStmt(const Program &P, const Stmt &S, unsigned Indent,
               std::string &Out) {
  Out.append(Indent, ' ');
  if (S.kind() == StmtKind::Assign) {
    const AssignStmt &A = asAssign(S);
    if (A.isArrayLhs()) {
      Out += P.array(A.lhsArray()).Name;
      for (const Expr *Sub : A.lhsSubscripts())
        Out += "[" + printExpr(P, Sub) + "]";
    } else {
      Out += P.var(A.lhsScalar()).Name;
    }
    Out += " = " + printExpr(P, A.rhs()) + "\n";
    return;
  }
  const LoopStmt &L = asLoop(S);
  Out += "for " + P.var(L.varId()).Name + " = " + printExpr(P, L.lo()) +
         " to " + printExpr(P, L.hi());
  if (L.step() != 1)
    Out += " step " + std::to_string(L.step());
  Out += " do\n";
  for (const StmtPtr &Child : L.body())
    printStmt(P, *Child, Indent + 2, Out);
  Out.append(Indent, ' ');
  Out += "end\n";
}

} // namespace

std::string Program::print() const {
  std::string Out = "program " + Name + "\n";
  for (const ArrayInfo &A : Arrays) {
    Out += "  array " + A.Name;
    for (int64_t Extent : A.Extents)
      Out += "[" + std::to_string(Extent) + "]";
    Out += "\n";
  }
  for (const VarInfo &V : Vars)
    if (V.Kind == VarKind::Symbolic)
      Out += "  read " + V.Name + "\n";
  for (const StmtPtr &S : Body)
    printStmt(*this, *S, 2, Out);
  Out += "end\n";
  return Out;
}
