//===- analysis/Interp.cpp - LoopLang reference interpreter ---------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Interp.h"

#include "support/IntMath.h"

using namespace edda;

namespace {

class Interpreter {
public:
  Interpreter(const Program &Prog, const InterpOptions &Opts)
      : Prog(Prog), Opts(Opts) {
    Result.VarValues.assign(Prog.numVars(), 0);
    for (const auto &[Var, Value] : Opts.SymbolicValues)
      if (Var < Result.VarValues.size())
        Result.VarValues[Var] = Value;
  }

  InterpResult run() {
    Result.Ok = execBody(Prog.body());
    if (Result.Ok)
      Result.Error.clear();
    return std::move(Result);
  }

private:
  const Program &Prog;
  const InterpOptions &Opts;
  InterpResult Result;
  std::vector<std::pair<const LoopStmt *, int64_t>> LoopStack;
  uint64_t NextSeq = 0;

  bool fail(const std::string &Message) {
    if (Result.Error.empty())
      Result.Error = Message;
    return false;
  }

  bool record(unsigned ArrayId, const AssignStmt *Stmt, int Slot,
              bool IsWrite, std::vector<int64_t> Indices) {
    if (Result.Trace.size() >= Opts.MaxAccesses)
      return fail("access budget exhausted");
    AccessRecord Rec;
    Rec.ArrayId = ArrayId;
    Rec.Stmt = Stmt;
    Rec.Slot = Slot;
    Rec.IsWrite = IsWrite;
    Rec.Indices = std::move(Indices);
    Rec.Iteration = LoopStack;
    Rec.Seq = NextSeq++;
    Result.Trace.push_back(std::move(Rec));
    return true;
  }

  /// Evaluates \p E; array reads are recorded with slots numbered by
  /// \p SlotCounter in the same depth-first order analysis/Refs.h uses.
  std::optional<int64_t> eval(const Expr *E, const AssignStmt *Stmt,
                              int &SlotCounter) {
    switch (E->kind()) {
    case ExprKind::Const:
      return E->constValue();
    case ExprKind::Var:
      return Result.VarValues[E->varId()];
    case ExprKind::Add: {
      std::optional<int64_t> L = eval(E->lhs(), Stmt, SlotCounter);
      std::optional<int64_t> R = eval(E->rhs(), Stmt, SlotCounter);
      if (!L || !R)
        return std::nullopt;
      return checkedAdd(*L, *R);
    }
    case ExprKind::Sub: {
      std::optional<int64_t> L = eval(E->lhs(), Stmt, SlotCounter);
      std::optional<int64_t> R = eval(E->rhs(), Stmt, SlotCounter);
      if (!L || !R)
        return std::nullopt;
      return checkedSub(*L, *R);
    }
    case ExprKind::Mul: {
      std::optional<int64_t> L = eval(E->lhs(), Stmt, SlotCounter);
      std::optional<int64_t> R = eval(E->rhs(), Stmt, SlotCounter);
      if (!L || !R)
        return std::nullopt;
      return checkedMul(*L, *R);
    }
    case ExprKind::Neg: {
      std::optional<int64_t> L = eval(E->lhs(), Stmt, SlotCounter);
      if (!L)
        return std::nullopt;
      return checkedNeg(*L);
    }
    case ExprKind::ArrayRead: {
      int Slot = SlotCounter++;
      std::vector<int64_t> Indices;
      Indices.reserve(E->subscripts().size());
      for (const Expr *Sub : E->subscripts()) {
        std::optional<int64_t> V = eval(Sub, Stmt, SlotCounter);
        if (!V)
          return std::nullopt;
        Indices.push_back(*V);
      }
      if (!record(E->arrayId(), Stmt, Slot, /*IsWrite=*/false, Indices))
        return std::nullopt;
      auto It = Result.Memory.find({E->arrayId(), Indices});
      return It == Result.Memory.end() ? 0 : It->second;
    }
    }
    assert(false && "unknown expression kind");
    return std::nullopt;
  }

  bool execBody(const std::vector<StmtPtr> &Body) {
    for (const StmtPtr &S : Body)
      if (!execStmt(*S))
        return false;
    return true;
  }

  bool execStmt(const Stmt &S) {
    if (S.kind() == StmtKind::Assign) {
      const AssignStmt &A = asAssign(S);
      int SlotCounter = 0;
      if (A.isArrayLhs()) {
        std::vector<int64_t> Indices;
        Indices.reserve(A.lhsSubscripts().size());
        for (const Expr *Sub : A.lhsSubscripts()) {
          std::optional<int64_t> V = eval(Sub, &A, SlotCounter);
          if (!V)
            return fail("arithmetic overflow in subscript");
          Indices.push_back(*V);
        }
        std::optional<int64_t> Value = eval(A.rhs(), &A, SlotCounter);
        if (!Value)
          return fail("arithmetic overflow in expression");
        if (!record(A.lhsArray(), &A, /*Slot=*/-1, /*IsWrite=*/true,
                    Indices))
          return false;
        Result.Memory[{A.lhsArray(), std::move(Indices)}] = *Value;
        return true;
      }
      std::optional<int64_t> Value = eval(A.rhs(), &A, SlotCounter);
      if (!Value)
        return fail("arithmetic overflow in expression");
      Result.VarValues[A.lhsScalar()] = *Value;
      return true;
    }

    const LoopStmt &L = asLoop(S);
    int SlotCounter = 0; // bounds may not contain reads per the grammar,
                         // but stay uniform
    std::optional<int64_t> Lo = eval(L.lo(), nullptr, SlotCounter);
    std::optional<int64_t> Hi = eval(L.hi(), nullptr, SlotCounter);
    if (!Lo || !Hi)
      return fail("arithmetic overflow in loop bound");
    int64_t Step = L.step();
    auto VectorIt = Opts.VectorLoops.find(&L);
    if (VectorIt != Opts.VectorLoops.end() &&
        VectorIt->second.Width > 1)
      return execVectorLoop(L, VectorIt->second, *Lo, *Hi, Step);
    LoopStack.push_back({&L, 0});
    for (int64_t I = *Lo; Step > 0 ? I <= *Hi : I >= *Hi;) {
      Result.VarValues[L.varId()] = I;
      LoopStack.back().second = I;
      if (!execBody(L.body())) {
        LoopStack.pop_back();
        return false;
      }
      std::optional<int64_t> Next = checkedAdd(I, Step);
      if (!Next) {
        LoopStack.pop_back();
        return fail("loop variable overflow");
      }
      I = *Next;
    }
    LoopStack.pop_back();
    return true;
  }

  /// Chunked-lane execution of one loop (see InterpOptions::VectorSpec):
  /// chunks of Width consecutive iterations run serially; inside a
  /// chunk each body statement sweeps all lanes before the next
  /// statement starts. PrivateVars get per-lane copies swapped in
  /// around each lane's statement execution.
  bool execVectorLoop(const LoopStmt &L, const VectorSpec &Spec,
                      int64_t Lo, int64_t Hi, int64_t Step) {
    LoopStack.push_back({&L, 0});
    int64_t I = Lo;
    while (Step > 0 ? I <= Hi : I >= Hi) {
      // Gather this chunk's lane values.
      std::vector<int64_t> Lanes;
      Lanes.reserve(Spec.Width);
      while (Lanes.size() < Spec.Width &&
             (Step > 0 ? I <= Hi : I >= Hi)) {
        Lanes.push_back(I);
        std::optional<int64_t> Next = checkedAdd(I, Step);
        if (!Next) {
          LoopStack.pop_back();
          return fail("loop variable overflow");
        }
        I = *Next;
      }
      // Per-lane private copies, seeded from the live values. The
      // Private classification guarantees write-before-read within an
      // iteration, so the seed never leaks into results; it only keeps
      // uninitialized reads deterministic if the contract is broken.
      std::vector<std::vector<int64_t>> Private(
          Lanes.size(), std::vector<int64_t>(Spec.PrivateVars.size()));
      for (auto &Copies : Private)
        for (size_t P = 0; P < Spec.PrivateVars.size(); ++P)
          Copies[P] = Result.VarValues[Spec.PrivateVars[P]];
      for (const StmtPtr &S : L.body()) {
        for (size_t N = 0; N < Lanes.size(); ++N) {
          size_t Lane = Spec.ReverseLanes ? Lanes.size() - 1 - N : N;
          Result.VarValues[L.varId()] = Lanes[Lane];
          LoopStack.back().second = Lanes[Lane];
          for (size_t P = 0; P < Spec.PrivateVars.size(); ++P)
            std::swap(Result.VarValues[Spec.PrivateVars[P]],
                      Private[Lane][P]);
          bool Ok = execStmt(*S);
          for (size_t P = 0; P < Spec.PrivateVars.size(); ++P)
            std::swap(Result.VarValues[Spec.PrivateVars[P]],
                      Private[Lane][P]);
          if (!Ok) {
            LoopStack.pop_back();
            return false;
          }
        }
      }
      // Serial last-iteration-wins semantics for live-out scalars.
      for (size_t P = 0; P < Spec.PrivateVars.size(); ++P)
        Result.VarValues[Spec.PrivateVars[P]] = Private.back()[P];
      Result.VarValues[L.varId()] = Lanes.back();
    }
    LoopStack.pop_back();
    return true;
  }
};

} // namespace

InterpResult edda::interpret(const Program &Prog,
                             const InterpOptions &Opts) {
  return Interpreter(Prog, Opts).run();
}
