//===- ir/Expr.cpp - Expression trees and affine forms -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "support/IntMath.h"

#include <algorithm>

using namespace edda;

ExprPtr Expr::makeConst(int64_t Value) {
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::Const));
  Node->Value = Value;
  return Node;
}

ExprPtr Expr::makeVar(unsigned VarId) {
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::Var));
  Node->Value = VarId;
  return Node;
}

ExprPtr Expr::makeAdd(ExprPtr Lhs, ExprPtr Rhs) {
  assert(Lhs && Rhs && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::Add));
  Node->Lhs = std::move(Lhs);
  Node->Rhs = std::move(Rhs);
  return Node;
}

ExprPtr Expr::makeSub(ExprPtr Lhs, ExprPtr Rhs) {
  assert(Lhs && Rhs && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::Sub));
  Node->Lhs = std::move(Lhs);
  Node->Rhs = std::move(Rhs);
  return Node;
}

ExprPtr Expr::makeMul(ExprPtr Lhs, ExprPtr Rhs) {
  assert(Lhs && Rhs && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::Mul));
  Node->Lhs = std::move(Lhs);
  Node->Rhs = std::move(Rhs);
  return Node;
}

ExprPtr Expr::makeNeg(ExprPtr Operand) {
  assert(Operand && "null operand");
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::Neg));
  Node->Lhs = std::move(Operand);
  return Node;
}

ExprPtr Expr::makeArrayRead(unsigned ArrayId,
                            std::vector<ExprPtr> Subscripts) {
  assert(!Subscripts.empty() && "array read with no subscripts");
  auto Node = std::shared_ptr<Expr>(new Expr(ExprKind::ArrayRead));
  Node->Value = ArrayId;
  Node->Subs = std::move(Subscripts);
  return Node;
}

// The fold marker must live in the padding after Kind: Expr nodes are the
// bulk of a parsed program, and a wider node shows up in peak memory.
static_assert(sizeof(Expr) == 2 * sizeof(int64_t) + 2 * sizeof(ExprPtr) +
                                  sizeof(std::vector<ExprPtr>),
              "Expr grew; keep the fold marker in Kind's padding");

ExprPtr edda::substitute(const ExprPtr &E,
                         const std::function<ExprPtr(unsigned)> &Subst) {
  switch (E->kind()) {
  case ExprKind::Const:
    return E;
  case ExprKind::Var: {
    if (ExprPtr Repl = Subst(E->varId()))
      return Repl;
    return E;
  }
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul: {
    ExprPtr L = substitute(E->lhs(), Subst);
    ExprPtr R = substitute(E->rhs(), Subst);
    if (L == E->lhs() && R == E->rhs())
      return E;
    if (E->kind() == ExprKind::Add)
      return Expr::makeAdd(std::move(L), std::move(R));
    if (E->kind() == ExprKind::Sub)
      return Expr::makeSub(std::move(L), std::move(R));
    return Expr::makeMul(std::move(L), std::move(R));
  }
  case ExprKind::Neg: {
    ExprPtr L = substitute(E->lhs(), Subst);
    if (L == E->lhs())
      return E;
    return Expr::makeNeg(std::move(L));
  }
  case ExprKind::ArrayRead: {
    // NewSubs stays empty until the first subscript changes.
    const std::vector<ExprPtr> &Subs = E->subscripts();
    std::vector<ExprPtr> NewSubs;
    for (size_t I = 0; I < Subs.size(); ++I) {
      ExprPtr S = substitute(Subs[I], Subst);
      if (NewSubs.empty()) {
        if (S == Subs[I])
          continue;
        NewSubs.reserve(Subs.size());
        NewSubs.assign(Subs.begin(), Subs.begin() + I);
      }
      NewSubs.push_back(std::move(S));
    }
    if (NewSubs.empty())
      return E;
    return Expr::makeArrayRead(E->arrayId(), std::move(NewSubs));
  }
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

void Expr::collectVars(std::vector<unsigned> &Out) const {
  switch (Kind) {
  case ExprKind::Const:
    return;
  case ExprKind::Var:
    if (std::find(Out.begin(), Out.end(), varId()) == Out.end())
      Out.push_back(varId());
    return;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    Lhs->collectVars(Out);
    Rhs->collectVars(Out);
    return;
  case ExprKind::Neg:
    Lhs->collectVars(Out);
    return;
  case ExprKind::ArrayRead:
    for (const ExprPtr &S : Subs)
      S->collectVars(Out);
    return;
  }
}

bool Expr::references(unsigned VarId) const {
  switch (Kind) {
  case ExprKind::Const:
    return false;
  case ExprKind::Var:
    return varId() == VarId;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    return Lhs->references(VarId) || Rhs->references(VarId);
  case ExprKind::Neg:
    return Lhs->references(VarId);
  case ExprKind::ArrayRead:
    for (const ExprPtr &S : Subs)
      if (S->references(VarId))
        return true;
    return false;
  }
  assert(false && "unknown expression kind");
  return false;
}

void Expr::collectArrayReads(std::vector<const Expr *> &Out) const {
  switch (Kind) {
  case ExprKind::Const:
  case ExprKind::Var:
    return;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    Lhs->collectArrayReads(Out);
    Rhs->collectArrayReads(Out);
    return;
  case ExprKind::Neg:
    Lhs->collectArrayReads(Out);
    return;
  case ExprKind::ArrayRead:
    Out.push_back(this);
    for (const ExprPtr &S : Subs)
      S->collectArrayReads(Out);
    return;
  }
}

bool Expr::containsArrayRead() const {
  switch (Kind) {
  case ExprKind::Const:
  case ExprKind::Var:
    return false;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    return Lhs->containsArrayRead() || Rhs->containsArrayRead();
  case ExprKind::Neg:
    return Lhs->containsArrayRead();
  case ExprKind::ArrayRead:
    return true;
  }
  assert(false && "unknown expression kind");
  return false;
}

std::string
Expr::str(const std::function<std::string(unsigned)> &Name) const {
  switch (Kind) {
  case ExprKind::Const:
    return std::to_string(Value);
  case ExprKind::Var:
    return Name(varId());
  case ExprKind::Add:
    return "(" + Lhs->str(Name) + " + " + Rhs->str(Name) + ")";
  case ExprKind::Sub:
    return "(" + Lhs->str(Name) + " - " + Rhs->str(Name) + ")";
  case ExprKind::Mul:
    return "(" + Lhs->str(Name) + " * " + Rhs->str(Name) + ")";
  case ExprKind::Neg:
    return "(-" + Lhs->str(Name) + ")";
  case ExprKind::ArrayRead: {
    // Array names share the variable namespace resolver by convention:
    // callers pass a resolver that understands both; here we can only
    // render the id.
    std::string Out = "@" + std::to_string(arrayId());
    for (const ExprPtr &S : Subs)
      Out += "[" + S->str(Name) + "]";
    return Out;
  }
  }
  assert(false && "unknown expression kind");
  return "";
}

//===----------------------------------------------------------------------===//
// AffineExpr
//===----------------------------------------------------------------------===//

AffineExpr AffineExpr::overflowedExpr() {
  AffineExpr E;
  E.Overflowed = true;
  return E;
}

AffineExpr AffineExpr::variable(unsigned VarId, int64_t Coeff) {
  AffineExpr E;
  E.addTerm(VarId, Coeff);
  return E;
}

int64_t AffineExpr::coeff(unsigned VarId) const {
  for (const Term &T : Terms)
    if (T.VarId == VarId)
      return T.Coeff;
  return 0;
}

void AffineExpr::addTerm(unsigned VarId, int64_t Coeff) {
  if (Coeff == 0)
    return;
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), VarId,
      [](const Term &T, unsigned Id) { return T.VarId < Id; });
  if (It != Terms.end() && It->VarId == VarId) {
    std::optional<int64_t> Sum = checkedAdd(It->Coeff, Coeff);
    if (!Sum) {
      Overflowed = true;
      return;
    }
    It->Coeff = *Sum;
    if (It->Coeff == 0)
      Terms.erase(It);
    return;
  }
  Terms.insert(It, Term{VarId, Coeff});
}

AffineExpr AffineExpr::operator+(const AffineExpr &RHS) const {
  if (Overflowed || RHS.Overflowed)
    return overflowedExpr();
  AffineExpr Result(*this);
  std::optional<int64_t> C = checkedAdd(Constant, RHS.Constant);
  if (!C)
    return overflowedExpr();
  Result.Constant = *C;
  for (const Term &T : RHS.Terms) {
    Result.addTerm(T.VarId, T.Coeff);
    if (Result.Overflowed)
      return overflowedExpr();
  }
  return Result;
}

AffineExpr AffineExpr::operator-(const AffineExpr &RHS) const {
  return *this + (-RHS);
}

AffineExpr AffineExpr::operator-() const { return scaled(-1); }

AffineExpr AffineExpr::scaled(int64_t Factor) const {
  if (Overflowed)
    return overflowedExpr();
  AffineExpr Result;
  std::optional<int64_t> C = checkedMul(Constant, Factor);
  if (!C)
    return overflowedExpr();
  Result.Constant = *C;
  for (const Term &T : Terms) {
    std::optional<int64_t> Coeff = checkedMul(T.Coeff, Factor);
    if (!Coeff)
      return overflowedExpr();
    Result.addTerm(T.VarId, *Coeff);
    if (Result.Overflowed)
      return overflowedExpr();
  }
  return Result;
}

AffineExpr AffineExpr::substituted(unsigned VarId,
                                   const AffineExpr &Repl) const {
  if (Overflowed || Repl.Overflowed)
    return overflowedExpr();
  int64_t C = coeff(VarId);
  if (C == 0)
    return *this;
  AffineExpr Rest(*this);
  Rest.addTerm(VarId, -C); // addTerm cancels the existing coefficient.
  if (Rest.Overflowed)
    return overflowedExpr();
  return Rest + Repl.scaled(C);
}

std::optional<int64_t>
AffineExpr::evaluate(const std::function<int64_t(unsigned)> &Env) const {
  if (Overflowed)
    return std::nullopt;
  CheckedInt Sum(Constant);
  for (const Term &T : Terms)
    Sum += CheckedInt(T.Coeff) * Env(T.VarId);
  return Sum.getOpt();
}

std::string
AffineExpr::str(const std::function<std::string(unsigned)> &Name) const {
  if (Overflowed)
    return "<overflow>";
  std::string Out;
  bool First = true;
  for (const Term &T : Terms) {
    if (!First)
      Out += T.Coeff < 0 ? " - " : " + ";
    else if (T.Coeff < 0)
      Out += "-";
    First = false;
    uint64_t Mag = T.Coeff < 0 ? 0 - static_cast<uint64_t>(T.Coeff)
                               : static_cast<uint64_t>(T.Coeff);
    if (Mag != 1)
      Out += std::to_string(Mag) + "*";
    Out += Name(T.VarId);
  }
  if (First)
    return std::to_string(Constant);
  if (Constant != 0) {
    Out += Constant < 0 ? " - " : " + ";
    uint64_t Mag = Constant < 0 ? 0 - static_cast<uint64_t>(Constant)
                                : static_cast<uint64_t>(Constant);
    Out += std::to_string(Mag);
  }
  return Out;
}

bool edda::exprEquals(const ExprPtr &A, const ExprPtr &B) {
  assert(A && B && "null expression");
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::Const:
    return A->constValue() == B->constValue();
  case ExprKind::Var:
    return A->varId() == B->varId();
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    return exprEquals(A->lhs(), B->lhs()) && exprEquals(A->rhs(), B->rhs());
  case ExprKind::Neg:
    return exprEquals(A->lhs(), B->lhs());
  case ExprKind::ArrayRead: {
    if (A->arrayId() != B->arrayId() ||
        A->subscripts().size() != B->subscripts().size())
      return false;
    for (unsigned I = 0; I < A->subscripts().size(); ++I)
      if (!exprEquals(A->subscripts()[I], B->subscripts()[I]))
        return false;
    return true;
  }
  }
  assert(false && "unknown expression kind");
  return false;
}

//===----------------------------------------------------------------------===//
// Tree -> affine conversion
//===----------------------------------------------------------------------===//

std::optional<AffineExpr> edda::toAffine(const ExprPtr &E) {
  assert(E && "null expression");
  switch (E->kind()) {
  case ExprKind::Const:
    return AffineExpr(E->constValue());
  case ExprKind::Var:
    return AffineExpr::variable(E->varId());
  case ExprKind::Add: {
    std::optional<AffineExpr> L = toAffine(E->lhs());
    std::optional<AffineExpr> R = toAffine(E->rhs());
    if (!L || !R)
      return std::nullopt;
    AffineExpr Sum = *L + *R;
    if (Sum.overflowed())
      return std::nullopt;
    return Sum;
  }
  case ExprKind::Sub: {
    std::optional<AffineExpr> L = toAffine(E->lhs());
    std::optional<AffineExpr> R = toAffine(E->rhs());
    if (!L || !R)
      return std::nullopt;
    AffineExpr Diff = *L - *R;
    if (Diff.overflowed())
      return std::nullopt;
    return Diff;
  }
  case ExprKind::Mul: {
    std::optional<AffineExpr> L = toAffine(E->lhs());
    std::optional<AffineExpr> R = toAffine(E->rhs());
    if (!L || !R)
      return std::nullopt;
    // Affine multiplication requires one side constant.
    const AffineExpr *Scaled = nullptr;
    int64_t Factor = 0;
    if (L->isConstant()) {
      Scaled = &*R;
      Factor = L->constant();
    } else if (R->isConstant()) {
      Scaled = &*L;
      Factor = R->constant();
    } else {
      return std::nullopt;
    }
    AffineExpr Product = Scaled->scaled(Factor);
    if (Product.overflowed())
      return std::nullopt;
    return Product;
  }
  case ExprKind::Neg: {
    std::optional<AffineExpr> L = toAffine(E->lhs());
    if (!L)
      return std::nullopt;
    AffineExpr Negated = -*L;
    if (Negated.overflowed())
      return std::nullopt;
    return Negated;
  }
  case ExprKind::ArrayRead:
    // An array element value is never an affine function of the loop
    // variables; only its subscripts are.
    return std::nullopt;
  }
  assert(false && "unknown expression kind");
  return std::nullopt;
}
