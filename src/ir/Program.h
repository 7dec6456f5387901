//===- ir/Program.h - LoopLang programs and statements ---------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LoopLang IR: a program is a symbol table (loop variables, scalar
/// temporaries, symbolic constants, arrays) plus a statement tree of
/// counted loops and assignments. This is the normalized nested-loop form
/// of the paper's section 2: after the prepass optimizer runs, every loop
/// has step 1 and every analyzed subscript/bound is affine in outer loop
/// variables and symbolic constants.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_IR_PROGRAM_H
#define EDDA_IR_PROGRAM_H

#include "ir/Expr.h"
#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace edda {

/// What a named integer variable denotes.
enum class VarKind {
  Loop,     ///< A loop induction variable.
  Scalar,   ///< A mutable scalar temporary (eliminated by the prepass).
  Symbolic, ///< A loop-invariant unknown ("read n"), paper section 8.
};

/// Symbol-table entry for an integer variable.
struct VarInfo {
  std::string Name;
  VarKind Kind;
  /// hashName(Name), kept so that lookups and fingerprints never rehash.
  uint64_t NameHash;
};

/// Symbol-table entry for an array.
struct ArrayInfo {
  std::string Name;
  /// Declared extent per dimension; 0 means unknown. Extents are only
  /// used for diagnostics — dependence testing relies on loop bounds.
  std::vector<int64_t> Extents;
  /// hashName(Name), kept so that lookups and fingerprints never rehash.
  uint64_t NameHash;

  unsigned rank() const { return static_cast<unsigned>(Extents.size()); }
};

/// What a declared name denotes.
enum class SymbolKind : uint8_t { None, Var, Array };

/// A name's entry in a program's symbol table: its kind and its id in
/// that kind's id space. Kind is None for an undeclared name.
struct Symbol {
  SymbolKind Kind = SymbolKind::None;
  unsigned Id = 0;

  explicit operator bool() const { return Kind != SymbolKind::None; }
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Discriminator for statements.
enum class StmtKind {
  Assign, ///< Scalar or array assignment.
  Loop,   ///< Counted for-loop.
};

/// Base class for LoopLang statements. The hierarchy is closed (Assign
/// and Loop) and discriminated by kind(); no RTTI.
class Stmt {
public:
  virtual ~Stmt();

  StmtKind kind() const { return Kind; }

  /// Deep copy.
  virtual StmtPtr clone() const = 0;

protected:
  explicit Stmt(StmtKind K) : Kind(K) {}

private:
  StmtKind Kind;
};

/// An assignment. The left-hand side is either a scalar variable or an
/// array element; the right-hand side is an arbitrary expression that may
/// contain array reads.
class AssignStmt : public Stmt {
public:
  /// Scalar assignment: var = rhs.
  AssignStmt(unsigned ScalarVarId, const Expr *Rhs)
      : Stmt(StmtKind::Assign), IsArrayLhs(false), LhsId(ScalarVarId),
        Rhs(Rhs) {
    assert(this->Rhs && "null rhs");
  }

  /// Array assignment: a[subs...] = rhs.
  AssignStmt(unsigned ArrayId, std::vector<const Expr *> Subscripts,
             const Expr *Rhs)
      : Stmt(StmtKind::Assign), IsArrayLhs(true), LhsId(ArrayId),
        LhsSubscripts(std::move(Subscripts)), Rhs(Rhs) {
    assert(!LhsSubscripts.empty() && "array lhs with no subscripts");
    assert(this->Rhs && "null rhs");
  }

  bool isArrayLhs() const { return IsArrayLhs; }

  /// \pre !isArrayLhs().
  unsigned lhsScalar() const {
    assert(!IsArrayLhs && "lhs is an array element");
    return LhsId;
  }

  /// \pre isArrayLhs().
  unsigned lhsArray() const {
    assert(IsArrayLhs && "lhs is a scalar");
    return LhsId;
  }

  /// \pre isArrayLhs().
  const std::vector<const Expr *> &lhsSubscripts() const {
    assert(IsArrayLhs && "lhs is a scalar");
    return LhsSubscripts;
  }

  /// Replaces subscript \p Dim of an array left-hand side.
  void setLhsSubscript(unsigned Dim, const Expr *E) {
    assert(IsArrayLhs && Dim < LhsSubscripts.size() && "bad subscript");
    LhsSubscripts[Dim] = E;
  }

  const Expr *rhs() const { return Rhs; }
  void setRhs(const Expr *E) {
    assert(E && "null rhs");
    Rhs = E;
  }

  StmtPtr clone() const override;

private:
  bool IsArrayLhs;
  unsigned LhsId;
  std::vector<const Expr *> LhsSubscripts;
  const Expr *Rhs;
};

/// A counted loop: for var = lo to hi step s do body end. After
/// normalization Step == 1.
class LoopStmt : public Stmt {
public:
  LoopStmt(unsigned VarId, const Expr *Lo, const Expr *Hi, int64_t Step)
      : Stmt(StmtKind::Loop), VarId(VarId), Lo(Lo), Hi(Hi), Step(Step) {
    assert(this->Lo && this->Hi && "null loop bound");
    assert(Step != 0 && "zero loop step");
  }

  unsigned varId() const { return VarId; }
  const Expr *lo() const { return Lo; }
  const Expr *hi() const { return Hi; }
  int64_t step() const { return Step; }

  /// Rebinds the induction variable (used by loop interchange).
  void setVarId(unsigned NewVar) { VarId = NewVar; }

  void setLo(const Expr *E) {
    assert(E && "null bound");
    Lo = E;
  }
  void setHi(const Expr *E) {
    assert(E && "null bound");
    Hi = E;
  }
  void setStep(int64_t S) {
    assert(S != 0 && "zero loop step");
    Step = S;
  }

  std::vector<StmtPtr> &body() { return Body; }
  const std::vector<StmtPtr> &body() const { return Body; }

  /// Set by the parallelizer client when no loop-carried dependence
  /// exists at this nesting level.
  bool isParallel() const { return Parallel; }
  void setParallel(bool P) { Parallel = P; }

  StmtPtr clone() const override;

private:
  unsigned VarId;
  const Expr *Lo;
  const Expr *Hi;
  int64_t Step;
  std::vector<StmtPtr> Body;
  bool Parallel = false;
};

/// Checked downcasts for the closed statement hierarchy.
inline AssignStmt &asAssign(Stmt &S) {
  assert(S.kind() == StmtKind::Assign && "not an assignment");
  return static_cast<AssignStmt &>(S);
}
inline const AssignStmt &asAssign(const Stmt &S) {
  assert(S.kind() == StmtKind::Assign && "not an assignment");
  return static_cast<const AssignStmt &>(S);
}
inline LoopStmt &asLoop(Stmt &S) {
  assert(S.kind() == StmtKind::Loop && "not a loop");
  return static_cast<LoopStmt &>(S);
}
inline const LoopStmt &asLoop(const Stmt &S) {
  assert(S.kind() == StmtKind::Loop && "not a loop");
  return static_cast<const LoopStmt &>(S);
}

/// A whole LoopLang program: symbol tables plus a statement list, and the
/// arena that owns its expressions.
///
/// Every expression a program's statements hold comes from its exprs()
/// arena. A copy shares its source's nodes, keeping them alive, and makes
/// new nodes only in an arena of its own, so a copy and its source may be
/// mutated on two threads at once. Moving a program moves no node.
class Program {
public:
  explicit Program(std::string Name = "main") : Name(std::move(Name)) {}

  Program(const Program &RHS);
  Program &operator=(const Program &RHS);
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  const std::string &name() const { return Name; }

  /// Registers a variable; names must be unique across variables and
  /// arrays. Returns the new id. \p NameHash, when given, is
  /// hashName(VarName) computed by the caller.
  unsigned addVar(std::string VarName, VarKind Kind) {
    uint64_t Hash = hashName(VarName);
    return addVar(std::move(VarName), Kind, Hash);
  }
  unsigned addVar(std::string VarName, VarKind Kind, uint64_t NameHash);

  /// Registers an array; returns the new id (a separate id space from
  /// variables).
  unsigned addArray(std::string ArrayName, std::vector<int64_t> Extents) {
    uint64_t Hash = hashName(ArrayName);
    return addArray(std::move(ArrayName), std::move(Extents), Hash);
  }
  unsigned addArray(std::string ArrayName, std::vector<int64_t> Extents,
                    uint64_t NameHash);

  unsigned numVars() const { return static_cast<unsigned>(Vars.size()); }
  unsigned numArrays() const {
    return static_cast<unsigned>(Arrays.size());
  }

  const VarInfo &var(unsigned Id) const {
    assert(Id < Vars.size() && "variable id out of range");
    return Vars[Id];
  }
  const ArrayInfo &array(unsigned Id) const {
    assert(Id < Arrays.size() && "array id out of range");
    return Arrays[Id];
  }

  /// Changes the recorded kind of a variable (the prepass optimizer
  /// reclassifies scalars it proves loop-invariant as Symbolic).
  void setVarKind(unsigned Id, VarKind Kind) {
    assert(Id < Vars.size() && "variable id out of range");
    Vars[Id].Kind = Kind;
  }

  /// What \p Name is declared as, with one probe of the symbol table.
  /// \p NameHash is hashName(Name).
  Symbol lookupSymbol(std::string_view Name, uint64_t NameHash) const;
  Symbol lookupSymbol(std::string_view Name) const {
    return lookupSymbol(Name, hashName(Name));
  }

  std::optional<unsigned> lookupVar(std::string_view VarName) const {
    Symbol S = lookupSymbol(VarName);
    if (S.Kind != SymbolKind::Var)
      return std::nullopt;
    return S.Id;
  }
  std::optional<unsigned> lookupArray(std::string_view ArrayName) const {
    Symbol S = lookupSymbol(ArrayName);
    if (S.Kind != SymbolKind::Array)
      return std::nullopt;
    return S.Id;
  }

  std::vector<StmtPtr> &body() { return Body; }
  const std::vector<StmtPtr> &body() const { return Body; }

  /// The arena new expressions for this program are made in.
  ExprArena &exprs() {
    if (!Exprs)
      Exprs = std::make_shared<ExprArena>();
    return *Exprs;
  }

  /// Renders the program as parseable LoopLang source.
  std::string print() const;

private:
  std::string Name;
  /// Owner of the nodes made for this program (made on first use).
  std::shared_ptr<ExprArena> Exprs;
  std::vector<VarInfo> Vars;
  std::vector<ArrayInfo> Arrays;
  std::vector<StmtPtr> Body;
  /// One slot of the symbol table: a name's hash and its kind-tagged id,
  /// Tag = 2 * Id + (1 if an array) + 1; Tag 0 marks an empty slot.
  struct SymbolSlot {
    uint64_t Hash;
    uint32_t Tag;
  };
  /// The symbol table over variables and arrays both (programs can hold
  /// thousands of symbols): open-addressed with linear probing, a power
  /// of two in size and at most half full. A flat vector, so copying a
  /// program copies it in one piece.
  std::vector<SymbolSlot> Symbols;

  void insertSymbol(uint64_t NameHash, uint32_t Tag);
};

} // namespace edda

#endif // EDDA_IR_PROGRAM_H
