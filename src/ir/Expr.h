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
//===----------------------------------------------------------------------===//

#ifndef EDDA_IR_EXPR_H
#define EDDA_IR_EXPR_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace edda {

class Expr;

/// Expressions are immutable and shared; rewriting builds new nodes.
using ExprPtr = std::shared_ptr<const Expr>;

/// Discriminator for Expr nodes.
enum class ExprKind {
  Const,     ///< Integer literal.
  Var,       ///< Reference to a variable by program-wide id.
  Add,       ///< Lhs + Rhs.
  Sub,       ///< Lhs - Rhs.
  Mul,       ///< Lhs * Rhs.
  Neg,       ///< -Lhs.
  ArrayRead, ///< a[e1][e2]... — a read reference to an array element.
};

/// An integer expression tree node.
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
  const ExprPtr &lhs() const {
    assert(Kind != ExprKind::Const && Kind != ExprKind::Var && "leaf node");
    return Lhs;
  }

  /// Right operand. \pre a binary operator node.
  const ExprPtr &rhs() const {
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
  const std::vector<ExprPtr> &subscripts() const {
    assert(Kind == ExprKind::ArrayRead && "not an array read");
    return Subs;
  }

  static ExprPtr makeConst(int64_t Value);
  static ExprPtr makeVar(unsigned VarId);
  static ExprPtr makeAdd(ExprPtr Lhs, ExprPtr Rhs);
  static ExprPtr makeSub(ExprPtr Lhs, ExprPtr Rhs);
  static ExprPtr makeMul(ExprPtr Lhs, ExprPtr Rhs);
  static ExprPtr makeNeg(ExprPtr Operand);
  static ExprPtr makeArrayRead(unsigned ArrayId,
                               std::vector<ExprPtr> Subscripts);

  /// Collects the ids of all variables referenced, in first-seen order.
  void collectVars(std::vector<unsigned> &Out) const;

  /// True if variable \p VarId occurs anywhere in the tree.
  bool references(unsigned VarId) const;

  /// Collects pointers to every ArrayRead node in the tree, in
  /// left-to-right order (including reads nested inside subscripts).
  void collectArrayReads(std::vector<const Expr *> &Out) const;

  /// True if any ArrayRead node occurs in the tree.
  bool containsArrayRead() const;

  /// Renders with a name resolver (id -> name) for diagnostics.
  std::string str(const std::function<std::string(unsigned)> &Name) const;

  /// True once opt/Fold has returned this node as a fold result. Folding
  /// is idempotent, so a marked node folds to itself and the folder can
  /// return it without another walk.
  bool isFolded() const { return Folded.load(std::memory_order_relaxed); }
  void markFolded() const { Folded.store(true, std::memory_order_relaxed); }

private:
  explicit Expr(ExprKind K) : Kind(K), Value(0) {}

  ExprKind Kind;
  /// Fold marker. Nodes are shared across programs and threads, so the
  /// bit is atomic; it sits in the padding after Kind and costs no space.
  mutable std::atomic<bool> Folded{false};
  int64_t Value; ///< Constant value, or variable/array id for leaves.
  ExprPtr Lhs;
  ExprPtr Rhs;
  std::vector<ExprPtr> Subs; ///< Subscripts for ArrayRead nodes.
};

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
  int64_t Constant;
  std::vector<Term> Terms;
  bool Overflowed;

  void addTerm(unsigned VarId, int64_t Coeff);
  static AffineExpr overflowedExpr();
};

/// Rebuilds \p E with every Var node mapped through \p Subst; a null
/// result from \p Subst keeps the variable reference unchanged. Subtrees
/// in which no variable is replaced are shared with \p E, not copied, so
/// a substitution that replaces nothing returns \p E itself.
ExprPtr substitute(const ExprPtr &E,
                   const std::function<ExprPtr(unsigned)> &Subst);

/// Converts an expression tree to affine form. Returns std::nullopt when
/// the tree is not affine (for example a product of two variables) or when
/// coefficient arithmetic overflows. Variables of any kind are accepted;
/// the caller decides which ids are legal (loop variables, symbolic
/// constants).
std::optional<AffineExpr> toAffine(const ExprPtr &E);

/// Structural equality of two expression trees (same shape, same
/// constants, same variable/array ids).
bool exprEquals(const ExprPtr &A, const ExprPtr &B);

} // namespace edda

#endif // EDDA_IR_EXPR_H
