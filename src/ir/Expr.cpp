//===- ir/Expr.cpp - Expression trees and affine forms -------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "support/IntMath.h"

#include <algorithm>
#include <new>

using namespace edda;

namespace {

// Distinct seeds per node kind, so no two kinds share a hash stream.
constexpr uint64_t KindSeed[] = {0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7};

uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  return X ^ (X >> 33);
}

uint64_t combine(uint64_t H, uint64_t V) {
  return mix64(H ^ (V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2)));
}

/// Operand identity for uniquing: the same node, or equal structures from
/// different arenas.
bool sameOperand(const Expr *A, const Expr *B) {
  return A == B || (A && B && exprEquals(A, B));
}

} // namespace

/// A block of node storage; nodes are bump-allocated after the header.
struct ExprArena::Chunk {
  Chunk *Next;
  size_t Size;
};

namespace {
// The first chunk is small so that tiny programs stay tiny; later ones
// double up to a bound, keeping the chunk count logarithmic.
constexpr size_t FirstChunkBytes = size_t(16) << 10;
constexpr size_t MaxChunkBytes = size_t(1) << 20;
constexpr size_t FirstTableSlots = 256;
} // namespace

ExprArena::~ExprArena() {
  while (Chunks) {
    Chunk *Next = Chunks->Next;
    ::operator delete(Chunks);
    Chunks = Next;
  }
}

void ExprArena::addChunk(size_t Size) {
  auto *C = static_cast<Chunk *>(::operator new(Size));
  C->Next = Chunks;
  C->Size = Size;
  Chunks = C;
  Cur = reinterpret_cast<char *>(C + 1);
  End = reinterpret_cast<char *>(C) + Size;
}

void ExprArena::reserve(size_t Bytes) {
  if (static_cast<size_t>(End - Cur) < Bytes)
    addChunk(Bytes + sizeof(Chunk));
}

void *ExprArena::allocate(size_t Bytes) {
  Bytes = (Bytes + 7) & ~size_t(7);
  if (static_cast<size_t>(End - Cur) < Bytes) {
    size_t Size = Chunks ? std::min(Chunks->Size * 2, MaxChunkBytes)
                         : FirstChunkBytes;
    addChunk(std::max(Size, Bytes + sizeof(Chunk)));
  }
  void *Out = Cur;
  Cur += Bytes;
  return Out;
}

void ExprArena::growTable() {
  std::vector<const Expr *> Old = std::move(Table);
  Table.assign(Old.empty() ? FirstTableSlots : Old.size() * 2, nullptr);
  size_t Mask = Table.size() - 1;
  for (const Expr *N : Old) {
    if (!N)
      continue;
    size_t I = N->Hash & Mask;
    while (Table[I])
      I = (I + 1) & Mask;
    Table[I] = N;
  }
}

const AffineForm *ExprArena::storeForm(int64_t Constant) {
  size_t NumTerms = TermScratch.size();
  auto *F = static_cast<AffineForm *>(allocate(
      sizeof(AffineForm) + NumTerms * sizeof(AffineExpr::Term)));
  auto *Terms = reinterpret_cast<AffineExpr::Term *>(F + 1);
  std::copy(TermScratch.begin(), TermScratch.end(), Terms);
  return new (F) AffineForm{Constant, {Terms, NumTerms}};
}

const AffineForm *ExprArena::affineOf(ExprKind Kind, int64_t Value,
                                      const Expr *Lhs, const Expr *Rhs) {
  // Each case mirrors AffineExpr arithmetic exactly: any overflow, even
  // in a coefficient that would cancel, makes the tree non-affine.
  TermScratch.clear();
  auto Scale = [this](const AffineForm &F,
                      int64_t Factor) -> const AffineForm * {
    std::optional<int64_t> C = checkedMul(F.Constant, Factor);
    if (!C)
      return nullptr;
    for (const AffineExpr::Term &T : F.Terms) {
      std::optional<int64_t> Coeff = checkedMul(T.Coeff, Factor);
      if (!Coeff)
        return nullptr;
      if (*Coeff != 0)
        TermScratch.push_back({T.VarId, *Coeff});
    }
    return storeForm(*C);
  };
  switch (Kind) {
  case ExprKind::Const:
    return storeForm(Value);
  case ExprKind::Var:
    TermScratch.push_back({static_cast<unsigned>(Value), 1});
    return storeForm(0);
  case ExprKind::Neg:
    return Lhs->Affine ? Scale(*Lhs->Affine, -1) : nullptr;
  case ExprKind::Mul: {
    const AffineForm *L = Lhs->Affine, *R = Rhs->Affine;
    if (!L || !R)
      return nullptr;
    if (L->isConstant())
      return Scale(*R, L->Constant);
    if (R->isConstant())
      return Scale(*L, R->Constant);
    return nullptr;
  }
  case ExprKind::Add:
  case ExprKind::Sub: {
    const AffineForm *L = Lhs->Affine, *R = Rhs->Affine;
    if (!L || !R)
      return nullptr;
    // Lhs - Rhs is Lhs + Rhs.scaled(-1), whose negation fails on
    // INT64_MIN before any sum is formed.
    bool Negate = Kind == ExprKind::Sub;
    auto Signed = [Negate](int64_t V) -> std::optional<int64_t> {
      return Negate ? checkedNeg(V) : std::optional<int64_t>(V);
    };
    std::optional<int64_t> RC = Signed(R->Constant);
    if (!RC)
      return nullptr;
    std::optional<int64_t> C = checkedAdd(L->Constant, *RC);
    if (!C)
      return nullptr;
    size_t I = 0, J = 0;
    while (I < L->Terms.size() || J < R->Terms.size()) {
      if (J == R->Terms.size() ||
          (I < L->Terms.size() && L->Terms[I].VarId < R->Terms[J].VarId)) {
        TermScratch.push_back(L->Terms[I++]);
        continue;
      }
      std::optional<int64_t> RCoeff = Signed(R->Terms[J].Coeff);
      if (!RCoeff)
        return nullptr;
      unsigned Var = R->Terms[J++].VarId;
      if (I == L->Terms.size() || Var < L->Terms[I].VarId) {
        TermScratch.push_back({Var, *RCoeff});
        continue;
      }
      std::optional<int64_t> Sum = checkedAdd(L->Terms[I++].Coeff, *RCoeff);
      if (!Sum)
        return nullptr;
      if (*Sum != 0)
        TermScratch.push_back({Var, *Sum});
    }
    return storeForm(*C);
  }
  case ExprKind::ArrayRead:
    // An array element value is never an affine function of the loop
    // variables; only its subscripts are.
    return nullptr;
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

const Expr *ExprArena::intern(ExprKind Kind, int64_t Value, const Expr *Lhs,
                              const Expr *Rhs,
                              std::span<const Expr *const> Subs) {
  uint64_t H = combine(KindSeed[static_cast<unsigned>(Kind)],
                       static_cast<uint64_t>(Value));
  if (Lhs)
    H = combine(H, Lhs->Hash);
  if (Rhs)
    H = combine(H, Rhs->Hash);
  for (const Expr *S : Subs)
    H = combine(H, S->Hash);

  if ((NumNodes + 1) * 2 > Table.size())
    growTable();
  size_t Mask = Table.size() - 1;
  size_t Slot = H & Mask;
  for (; Table[Slot]; Slot = (Slot + 1) & Mask) {
    const Expr *N = Table[Slot];
    if (N->Hash != H || N->Kind != Kind || N->Value != Value ||
        N->NumSubs != Subs.size() || !sameOperand(N->Lhs, Lhs) ||
        !sameOperand(N->Rhs, Rhs))
      continue;
    bool Same = true;
    for (size_t I = 0; I < Subs.size() && Same; ++I)
      Same = sameOperand(N->Subs[I], Subs[I]);
    if (Same)
      return N;
  }

  auto *N = new (allocate(sizeof(Expr))) Expr();
  N->Kind = Kind;
  N->Value = Value;
  N->Hash = H;
  N->Lhs = Lhs;
  N->Rhs = Rhs;
  N->Owner = this;
  switch (Kind) {
  case ExprKind::Const:
    break;
  case ExprKind::Var:
    N->VarMask = uint64_t(1) << (static_cast<uint64_t>(Value) & 63);
    break;
  case ExprKind::ArrayRead: {
    auto *Copy = static_cast<const Expr **>(
        allocate(Subs.size() * sizeof(const Expr *)));
    std::copy(Subs.begin(), Subs.end(), Copy);
    N->Subs = Copy;
    N->NumSubs = static_cast<uint32_t>(Subs.size());
    N->HasArrayRead = true;
    unsigned Tallest = 0;
    for (const Expr *S : Subs) {
      N->VarMask |= S->VarMask;
      Tallest = std::max(Tallest, S->height());
    }
    N->Height = static_cast<uint16_t>(std::min(Tallest + 1, Expr::MaxHeight));
    break;
  }
  default: {
    N->HasArrayRead = Lhs->HasArrayRead || (Rhs && Rhs->HasArrayRead);
    N->VarMask = Lhs->VarMask | (Rhs ? Rhs->VarMask : 0);
    unsigned Tallest = std::max(Lhs->height(), Rhs ? Rhs->height() : 0);
    N->Height = static_cast<uint16_t>(std::min(Tallest + 1, Expr::MaxHeight));
    break;
  }
  }
  N->Affine = affineOf(Kind, Value, Lhs, Rhs);
  Table[Slot] = N;
  ++NumNodes;
  return N;
}

const Expr *ExprArena::makeConst(int64_t Value) {
  return intern(ExprKind::Const, Value, nullptr, nullptr, {});
}

const Expr *ExprArena::makeVar(unsigned VarId) {
  return intern(ExprKind::Var, VarId, nullptr, nullptr, {});
}

const Expr *ExprArena::makeAdd(const Expr *Lhs, const Expr *Rhs) {
  assert(Lhs && Rhs && "null operand");
  return intern(ExprKind::Add, 0, Lhs, Rhs, {});
}

const Expr *ExprArena::makeSub(const Expr *Lhs, const Expr *Rhs) {
  assert(Lhs && Rhs && "null operand");
  return intern(ExprKind::Sub, 0, Lhs, Rhs, {});
}

const Expr *ExprArena::makeMul(const Expr *Lhs, const Expr *Rhs) {
  assert(Lhs && Rhs && "null operand");
  return intern(ExprKind::Mul, 0, Lhs, Rhs, {});
}

const Expr *ExprArena::makeNeg(const Expr *Operand) {
  assert(Operand && "null operand");
  return intern(ExprKind::Neg, 0, Operand, nullptr, {});
}

const Expr *
ExprArena::makeArrayRead(unsigned ArrayId,
                         std::span<const Expr *const> Subscripts) {
  assert(!Subscripts.empty() && "array read with no subscripts");
  return intern(ExprKind::ArrayRead, ArrayId, nullptr, nullptr, Subscripts);
}

const Expr *ExprArena::folded(const Expr *E) const {
  if (owns(E))
    return E->Folded;
  if (ForeignFolds.empty())
    return nullptr;
  size_t Mask = ForeignFolds.size() - 1;
  for (size_t I = mix64(reinterpret_cast<uintptr_t>(E)) & Mask;
       ForeignFolds[I].first; I = (I + 1) & Mask)
    if (ForeignFolds[I].first == E)
      return ForeignFolds[I].second;
  return nullptr;
}

void ExprArena::setFolded(const Expr *E, const Expr *Result) {
  if (owns(E)) {
    E->Folded = Result;
    return;
  }
  if ((NumForeignFolds + 1) * 2 > ForeignFolds.size()) {
    auto Old = std::move(ForeignFolds);
    ForeignFolds.assign(Old.empty() ? 64 : Old.size() * 2, {});
    NumForeignFolds = 0;
    for (const auto &[Key, Value] : Old)
      if (Key)
        setFolded(Key, Value);
  }
  size_t Mask = ForeignFolds.size() - 1;
  size_t I = mix64(reinterpret_cast<uintptr_t>(E)) & Mask;
  for (; ForeignFolds[I].first; I = (I + 1) & Mask)
    if (ForeignFolds[I].first == E) {
      ForeignFolds[I].second = Result;
      return;
    }
  ForeignFolds[I] = {E, Result};
  ++NumForeignFolds;
}

const Expr *
edda::substitute(ExprArena &A, const Expr *E,
                 const std::function<const Expr *(unsigned)> &Subst) {
  switch (E->kind()) {
  case ExprKind::Const:
    return E;
  case ExprKind::Var: {
    if (const Expr *Repl = Subst(E->varId()))
      return Repl;
    return E;
  }
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul: {
    const Expr *L = substitute(A, E->lhs(), Subst);
    const Expr *R = substitute(A, E->rhs(), Subst);
    if (L == E->lhs() && R == E->rhs())
      return E;
    if (E->kind() == ExprKind::Add)
      return A.makeAdd(L, R);
    if (E->kind() == ExprKind::Sub)
      return A.makeSub(L, R);
    return A.makeMul(L, R);
  }
  case ExprKind::Neg: {
    const Expr *L = substitute(A, E->lhs(), Subst);
    if (L == E->lhs())
      return E;
    return A.makeNeg(L);
  }
  case ExprKind::ArrayRead: {
    // NewSubs stays empty until the first subscript changes.
    std::span<const Expr *const> Subs = E->subscripts();
    std::vector<const Expr *> NewSubs;
    for (size_t I = 0; I < Subs.size(); ++I) {
      const Expr *S = substitute(A, Subs[I], Subst);
      if (NewSubs.empty()) {
        if (S == Subs[I])
          continue;
        NewSubs.reserve(Subs.size());
        NewSubs.assign(Subs.begin(), Subs.begin() + I);
      }
      NewSubs.push_back(S);
    }
    if (NewSubs.empty())
      return E;
    return A.makeArrayRead(E->arrayId(), NewSubs);
  }
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

void Expr::collectVars(std::vector<unsigned> &Out) const {
  if (!VarMask)
    return;
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
    for (const Expr *S : subscripts())
      S->collectVars(Out);
    return;
  }
}

bool Expr::references(unsigned VarId) const {
  if (!((VarMask >> (VarId & 63)) & 1))
    return false;
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
    for (const Expr *S : subscripts())
      if (S->references(VarId))
        return true;
    return false;
  }
  assert(false && "unknown expression kind");
  return false;
}

void Expr::collectArrayReads(std::vector<const Expr *> &Out) const {
  if (!HasArrayRead)
    return;
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
    for (const Expr *S : subscripts())
      S->collectArrayReads(Out);
    return;
  }
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
    for (const Expr *S : subscripts())
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

bool edda::exprEquals(const Expr *A, const Expr *B) {
  assert(A && B && "null expression");
  if (A == B)
    return true;
  if (A->Hash != B->Hash || A->Kind != B->Kind || A->Value != B->Value ||
      A->NumSubs != B->NumSubs)
    return false;
  // An arena makes one node per structure.
  if (A->Owner == B->Owner)
    return false;
  switch (A->Kind) {
  case ExprKind::Const:
  case ExprKind::Var:
    return true;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
    return exprEquals(A->Lhs, B->Lhs) && exprEquals(A->Rhs, B->Rhs);
  case ExprKind::Neg:
    return exprEquals(A->Lhs, B->Lhs);
  case ExprKind::ArrayRead:
    for (uint32_t I = 0; I < A->NumSubs; ++I)
      if (!exprEquals(A->Subs[I], B->Subs[I]))
        return false;
    return true;
  }
  assert(false && "unknown expression kind");
  return false;
}

std::optional<AffineExpr> edda::toAffine(const Expr *E) {
  assert(E && "null expression");
  const AffineForm *F = E->affine();
  if (!F)
    return std::nullopt;
  AffineExpr Out(F->Constant);
  Out.Terms.assign(F->Terms.begin(), F->Terms.end());
  return Out;
}
