//===- ir/Expr.h - Expression trees and affine forms -----------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expressions of the LoopLang IR. The frontend builds general integer
/// expression trees (Expr); the prepass optimizer rewrites them until array
/// subscripts and loop bounds are integral linear (affine) functions of
/// loop variables and symbolic constants, the form the paper's dependence
/// tests require (section 2). AffineExpr is that canonical linear form.
///
/// Expr nodes are immutable and hash-consed: an ExprArena makes at most
/// one node per structure, addressed by a plain `const Expr *`, and frees
/// all of them at once when it dies. What every pass asks of a node — its
/// structural hash, whether it reads an array, which variables it may
/// mention and its affine form — is computed once, when the node is made.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_IR_EXPR_H
#define EDDA_IR_EXPR_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace edda {

/// Most levels a source expression tree may have (a leaf is one level).
/// The parser rejects taller trees, and the prepass binds no scalar to a
/// taller one, so that recursive walks of a program's trees stay well
/// within a thread's stack.
constexpr unsigned MaxExprHeight = 500;

class Expr;
class ExprArena;

/// An affine (integral linear) expression: Constant + sum Coeff_i * Var_i.
/// Terms are kept sorted by variable id with no zero coefficients, so
/// structural equality is semantic equality.
class AffineExpr {
public:
  /// A single linear term.
  struct Term {
    unsigned VarId;
    int64_t Coeff;
    bool operator==(const Term &RHS) const = default;
  };

  AffineExpr() : Constant(0), Overflowed(false) {}
  /*implicit*/ AffineExpr(int64_t Const) : Constant(Const),
                                           Overflowed(false) {}

  /// The affine expression "Coeff * var".
  static AffineExpr variable(unsigned VarId, int64_t Coeff = 1);

  int64_t constant() const { return Constant; }
  const std::vector<Term> &terms() const { return Terms; }

  /// True once any arithmetic overflowed; such expressions must be treated
  /// as unanalyzable.
  bool overflowed() const { return Overflowed; }

  bool isConstant() const { return Terms.empty(); }

  /// Coefficient of \p VarId (0 when absent).
  int64_t coeff(unsigned VarId) const;

  /// Replaces variable \p VarId with the affine expression \p Repl.
  AffineExpr substituted(unsigned VarId, const AffineExpr &Repl) const;

  AffineExpr operator+(const AffineExpr &RHS) const;
  AffineExpr operator-(const AffineExpr &RHS) const;
  AffineExpr operator-() const;
  /// Scales every coefficient and the constant by \p Factor.
  AffineExpr scaled(int64_t Factor) const;

  bool operator==(const AffineExpr &RHS) const {
    return Constant == RHS.Constant && Terms == RHS.Terms &&
           Overflowed == RHS.Overflowed;
  }

  /// Evaluates under \p Env (id -> value). \pre every referenced variable
  /// is bound; returns std::nullopt on arithmetic overflow.
  std::optional<int64_t>
  evaluate(const std::function<int64_t(unsigned)> &Env) const;

  /// Renders with a name resolver for diagnostics.
  std::string str(const std::function<std::string(unsigned)> &Name) const;

private:
  friend std::optional<AffineExpr> toAffine(const Expr *E);

  int64_t Constant;
  std::vector<Term> Terms;
  bool Overflowed;

  void addTerm(unsigned VarId, int64_t Coeff);
  static AffineExpr overflowedExpr();
};

/// The affine form of an expression node, stored in its arena: Constant
/// plus Terms, sorted by variable id with no zero coefficient. It is
/// exactly what toAffine() returns for the node.
struct AffineForm {
  int64_t Constant = 0;
  std::span<const AffineExpr::Term> Terms;

  bool isConstant() const { return Terms.empty(); }
};

/// Discriminator for Expr nodes.
enum class ExprKind : uint8_t {
  Const,     ///< Integer literal.
  Var,       ///< Reference to a variable by program-wide id.
  Add,       ///< Lhs + Rhs.
  Sub,       ///< Lhs - Rhs.
  Mul,       ///< Lhs * Rhs.
  Neg,       ///< -Lhs.
  ArrayRead, ///< a[e1][e2]... — a read reference to an array element.
};

/// An immutable integer expression tree node, owned by an ExprArena.
class Expr {
public:
  ExprKind kind() const { return Kind; }

  /// \pre kind() == ExprKind::Const.
  int64_t constValue() const {
    assert(Kind == ExprKind::Const && "not a constant");
    return Value;
  }

  /// \pre kind() == ExprKind::Var.
  unsigned varId() const {
    assert(Kind == ExprKind::Var && "not a variable reference");
    return static_cast<unsigned>(Value);
  }

  /// Left operand (sole operand for Neg). \pre an operator node.
  const Expr *lhs() const {
    assert(Kind != ExprKind::Const && Kind != ExprKind::Var && "leaf node");
    return Lhs;
  }

  /// Right operand. \pre a binary operator node.
  const Expr *rhs() const {
    assert((Kind == ExprKind::Add || Kind == ExprKind::Sub ||
            Kind == ExprKind::Mul) &&
           "not a binary node");
    return Rhs;
  }

  /// Array id of an ArrayRead node. \pre kind() == ExprKind::ArrayRead.
  unsigned arrayId() const {
    assert(Kind == ExprKind::ArrayRead && "not an array read");
    return static_cast<unsigned>(Value);
  }

  /// Subscript expressions of an ArrayRead node.
  /// \pre kind() == ExprKind::ArrayRead.
  std::span<const Expr *const> subscripts() const {
    assert(Kind == ExprKind::ArrayRead && "not an array read");
    return {Subs, NumSubs};
  }

  /// Variable summary: bit (id % 64) is set for every variable id in the
  /// tree, so a clear bit proves the variable absent.
  uint64_t varMask() const { return VarMask; }

  /// The affine form, or null when the tree is not affine (for example a
  /// product of two variables, or an array read) or when coefficient
  /// arithmetic overflows.
  const AffineForm *affine() const { return Affine; }

  /// True if any ArrayRead node occurs in the tree.
  bool containsArrayRead() const { return HasArrayRead; }

  /// Levels in the tree: 1 for a leaf, one more than the tallest operand
  /// or subscript otherwise. Saturates at MaxHeight.
  unsigned height() const { return Height; }
  static constexpr unsigned MaxHeight = UINT16_MAX;

  /// Collects the ids of all variables referenced, in first-seen order.
  void collectVars(std::vector<unsigned> &Out) const;

  /// True if variable \p VarId occurs anywhere in the tree.
  bool references(unsigned VarId) const;

  /// Collects pointers to every ArrayRead node in the tree, in
  /// left-to-right order (including reads nested inside subscripts).
  void collectArrayReads(std::vector<const Expr *> &Out) const;

  /// Renders with a name resolver (id -> name) for diagnostics.
  std::string str(const std::function<std::string(unsigned)> &Name) const;

private:
  friend class ExprArena;
  friend bool exprEquals(const Expr *A, const Expr *B);

  Expr() = default;

  ExprKind Kind = ExprKind::Const;
  bool HasArrayRead = false;
  uint16_t Height = 1;
  uint32_t NumSubs = 0;
  int64_t Value = 0; ///< Constant value, or variable/array id for leaves.
  /// Structural hash: equal structures hash equal in every arena.
  uint64_t Hash = 0;
  uint64_t VarMask = 0;
  const Expr *Lhs = nullptr;
  const Expr *Rhs = nullptr;
  const Expr *const *Subs = nullptr; ///< ArrayRead subscripts.
  const AffineForm *Affine = nullptr;
  const ExprArena *Owner = nullptr;
  /// foldExpr's memo, read and written only through Owner.
  mutable const Expr *Folded = nullptr;
};

/// Owner of hash-consed Expr nodes. Every make* call returns the arena's
/// one node of that structure, making it if need be; nodes are bump-
/// allocated in chunks and never freed individually.
///
/// An arena may be made over a parent arena: its nodes may then point at
/// the parent's nodes (which the child keeps alive), but it interns new
/// nodes only into itself and never reads or writes the parent's uniquing
/// table or memo. That is what lets a copied Program mutate on one thread
/// while its source mutates on another. An arena itself is not
/// thread-safe: one thread at a time makes nodes in it.
class ExprArena {
public:
  ExprArena() = default;
  explicit ExprArena(std::shared_ptr<const ExprArena> Parent)
      : Parent(std::move(Parent)) {}
  ~ExprArena();
  ExprArena(const ExprArena &) = delete;
  ExprArena &operator=(const ExprArena &) = delete;

  const Expr *makeConst(int64_t Value);
  const Expr *makeVar(unsigned VarId);
  const Expr *makeAdd(const Expr *Lhs, const Expr *Rhs);
  const Expr *makeSub(const Expr *Lhs, const Expr *Rhs);
  const Expr *makeMul(const Expr *Lhs, const Expr *Rhs);
  const Expr *makeNeg(const Expr *Operand);
  const Expr *makeArrayRead(unsigned ArrayId,
                            std::span<const Expr *const> Subscripts);

  /// Makes room for about \p Bytes of nodes in one chunk, so that making
  /// them allocates nothing more.
  void reserve(size_t Bytes);

  /// True when \p E was made by this arena (not inherited from a parent).
  bool owns(const Expr *E) const { return E->Owner == this; }

  /// Number of nodes this arena has made.
  size_t size() const { return NumNodes; }

  /// The memoized fold of \p E, or null when none was recorded here.
  const Expr *folded(const Expr *E) const;
  /// Records \p Result as the fold of \p E.
  void setFolded(const Expr *E, const Expr *Result);

private:
  struct Chunk;

  std::shared_ptr<const ExprArena> Parent;
  Chunk *Chunks = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NumNodes = 0;
  /// Open-addressed uniquing table of this arena's nodes, by Hash.
  std::vector<const Expr *> Table;
  /// Fold memo for nodes inherited from a parent, open-addressed by
  /// pointer (owned nodes keep theirs in Expr::Folded).
  std::vector<std::pair<const Expr *, const Expr *>> ForeignFolds;
  size_t NumForeignFolds = 0;
  /// Scratch for building affine forms.
  std::vector<AffineExpr::Term> TermScratch;

  void *allocate(size_t Bytes);
  void addChunk(size_t Size);
  const Expr *intern(ExprKind Kind, int64_t Value, const Expr *Lhs,
                     const Expr *Rhs, std::span<const Expr *const> Subs);
  const AffineForm *affineOf(ExprKind Kind, int64_t Value, const Expr *Lhs,
                             const Expr *Rhs);
  const AffineForm *storeForm(int64_t Constant);
  void growTable();
};

/// Rebuilds \p E in \p A with every Var node mapped through \p Subst; a
/// null result from \p Subst keeps the variable reference unchanged.
/// Subtrees in which no variable is replaced are shared with \p E, not
/// copied, so a substitution that replaces nothing returns \p E itself.
const Expr *substitute(ExprArena &A, const Expr *E,
                       const std::function<const Expr *(unsigned)> &Subst);

/// Converts an expression tree to affine form (the node's AffineForm as
/// an AffineExpr). Returns std::nullopt when the tree is not affine (for
/// example a product of two variables) or when coefficient arithmetic
/// overflows. Variables of any kind are accepted; the caller decides
/// which ids are legal (loop variables, symbolic constants).
std::optional<AffineExpr> toAffine(const Expr *E);

/// Structural equality of two expression trees (same shape, same
/// constants, same variable/array ids). Two nodes of one arena are
/// equal exactly when they are the same pointer.
bool exprEquals(const Expr *A, const Expr *B);

} // namespace edda

#endif // EDDA_IR_EXPR_H
