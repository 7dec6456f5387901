//===- opt/ScalarBindings.h - Scalar values along a prepass walk -*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The known values of scalars at the current point of a preorder walk
/// over a program, under the conservative rules scalar propagation and
/// induction-variable substitution share: a binding is remembered only
/// when its expression reads no array, mentions only symbolic constants
/// and in-scope loop variables, and is at most MaxExprHeight levels tall
/// with at most MaxExprHeight nodes that hold a variable (so that no
/// chain of assignments composes trees without bound); it is forgotten
/// when a variable it mentions changes; scalars a loop body assigns have
/// no binding inside the loop; and bindings made inside a loop do not
/// survive it (the body may run zero times).
///
/// Which scalars each loop body assigns comes from one preorder walk made
/// up front into a flat vector, each loop owning a [begin, end) range of
/// it, so entering a loop costs no walk of its body and no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_OPT_SCALARBINDINGS_H
#define EDDA_OPT_SCALARBINDINGS_H

#include "ir/Program.h"

#include <span>
#include <utility>
#include <vector>

namespace edda {

class ScalarBindings {
public:
  /// Indexes the loops of \p P, whose statement tree the walk must not
  /// reshape.
  explicit ScalarBindings(const Program &P);

  /// True when the program assigns no scalar: no binding can ever be
  /// made, so a pass that only substitutes bindings has nothing to do.
  bool noScalarAssigned() const { return Assigned.empty(); }

  /// The binding of \p VarId, or null.
  const Expr *lookup(unsigned VarId) const;

  /// False when no binding can apply inside \p E, so substituting the
  /// bindings into it would return it unchanged.
  bool mayRewrite(const Expr *E) const {
    return (E->varMask() & Mask) != 0;
  }

  /// Records the scalar assignment VarId = Rhs.
  void assign(unsigned VarId, const Expr *Rhs);

  /// Enters the body of \p L, the next loop of the walk in preorder.
  void enterLoop(const LoopStmt &L);
  /// Leaves the body of \p L, the innermost loop entered.
  void leaveLoop(const LoopStmt &L);

  /// The binding of \p VarId where the innermost loop entered begins.
  const Expr *entryValue(unsigned VarId) const;
  /// The scalar assignments in the innermost loop entered, as the ids
  /// they assign, in preorder and with repeats.
  std::span<const unsigned> assignedInLoop() const;

private:
  using Binding = std::pair<unsigned, const Expr *>;
  struct Frame {
    /// The bindings where the loop begins.
    std::vector<Binding> Entry;
    uint32_t Begin = 0, End = 0;
  };

  const Program &P;
  /// Sorted by variable id.
  std::vector<Binding> Env;
  /// Bit (id % 64) of every bound variable id.
  uint64_t Mask = 0;
  /// Ids of scalars assigned, in preorder; each loop's body is a range.
  std::vector<unsigned> Assigned;
  /// Per loop in preorder: the loop and its range of Assigned.
  struct LoopRange {
    const LoopStmt *Loop;
    uint32_t Begin, End;
  };
  std::vector<LoopRange> Loops;
  size_t NextLoop = 0;
  /// Frames of the loops entered; their storage is reused across loops.
  std::vector<Frame> Frames;
  size_t Depth = 0;
  /// Loop variables in scope, outermost first.
  std::vector<unsigned> ActiveLoops;

  void index(const std::vector<StmtPtr> &Body);
  bool isRememberable(const Expr *E) const;
  void erase(unsigned VarId);
  void killReferencing(unsigned VarId);
  void recomputeMask();
};

} // namespace edda

#endif // EDDA_OPT_SCALARBINDINGS_H
