//===- ir/Program.cpp - LoopLang programs and statements -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include <algorithm>

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
      Vars(RHS.Vars), Arrays(RHS.Arrays), Symbols(RHS.Symbols) {
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

unsigned Program::addVar(std::string VarName, VarKind Kind,
                         uint64_t NameHash) {
  assert(NameHash == hashName(VarName) && "stale name hash");
  assert(!lookupSymbol(VarName, NameHash) && "duplicate name");
  unsigned Id = static_cast<unsigned>(Vars.size());
  insertSymbol(NameHash, 2 * Id + 1);
  Vars.push_back(VarInfo{std::move(VarName), Kind, NameHash});
  return Id;
}

unsigned Program::addArray(std::string ArrayName,
                           std::vector<int64_t> Extents, uint64_t NameHash) {
  assert(NameHash == hashName(ArrayName) && "stale name hash");
  assert(!lookupSymbol(ArrayName, NameHash) && "duplicate name");
  unsigned Id = static_cast<unsigned>(Arrays.size());
  insertSymbol(NameHash, 2 * Id + 2);
  Arrays.push_back(
      ArrayInfo{std::move(ArrayName), std::move(Extents), NameHash});
  return Id;
}

namespace {

/// The slot a probe for \p Hash starts at. FNV-1a's high bits mix every
/// byte of the name; its low bits alone do not.
size_t homeSlot(uint64_t Hash, size_t Mask) {
  return static_cast<size_t>(Hash ^ (Hash >> 32)) & Mask;
}

} // namespace

void Program::insertSymbol(uint64_t NameHash, uint32_t Tag) {
  auto Place = [this](uint64_t Hash, uint32_t SlotTag) {
    const size_t Mask = Symbols.size() - 1;
    size_t I = homeSlot(Hash, Mask);
    while (Symbols[I].Tag != 0)
      I = (I + 1) & Mask;
    Symbols[I] = SymbolSlot{Hash, SlotTag};
  };
  // Grow to keep the table at most half full, this symbol included.
  if (2 * (Vars.size() + Arrays.size() + 1) > Symbols.size()) {
    std::vector<SymbolSlot> Old = std::move(Symbols);
    Symbols.assign(std::max<size_t>(32, 2 * Old.size()), SymbolSlot{0, 0});
    for (const SymbolSlot &S : Old)
      if (S.Tag != 0)
        Place(S.Hash, S.Tag);
  }
  Place(NameHash, Tag);
}

Symbol Program::lookupSymbol(std::string_view SymbolName,
                             uint64_t NameHash) const {
  if (Symbols.empty())
    return {};
  const size_t Mask = Symbols.size() - 1;
  for (size_t I = homeSlot(NameHash, Mask);; I = (I + 1) & Mask) {
    const SymbolSlot &S = Symbols[I];
    if (S.Tag == 0)
      return {};
    if (S.Hash != NameHash)
      continue;
    const unsigned Id = (S.Tag - 1) / 2;
    if ((S.Tag - 1) % 2 == 0) {
      if (Vars[Id].Name == SymbolName)
        return {SymbolKind::Var, Id};
    } else if (Arrays[Id].Name == SymbolName) {
      return {SymbolKind::Array, Id};
    }
  }
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
