//===- analysis/Refs.cpp - Array reference enumeration --------------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "analysis/Refs.h"

#include "ir/Fingerprint.h"
#include "support/Hashing.h"

#include <optional>
#include <utility>

using namespace edda;

/// Every loop chain, loop summary, subscript summary and summary term of
/// one collection. Never changes after collectReferences returns.
struct edda::ReferenceTables {
  /// The chain of enclosing loops, outermost first, of each loop that
  /// directly holds a reference, ending with the loop itself; the
  /// chains lie back to back.
  std::vector<const LoopStmt *> Chains;
  /// Summaries of Chains, entry for entry.
  std::vector<LoopSummary> ChainInfo;
  /// Every reference's subscript summaries, reference after reference.
  std::vector<AffineSummary> Subs;
  /// The terms of every summary, summary after summary.
  std::vector<SummaryTerm> Terms;
};

namespace {

/// A stretch of one of the tables' vectors.
struct Range {
  uint32_t Begin = 0;
  uint32_t Size = 0;

  template <typename T> std::span<const T> of(const std::vector<T> &V) const {
    return std::span<const T>(V).subspan(Begin, Size);
  }
};

/// One collectReferences call. The tables grow during the walk, so the
/// walk records where each summary's terms and each reference's slices
/// lie, and finish() turns those into spans once nothing moves.
class Collector {
public:
  explicit Collector(const Program &P)
      : P(P), T(std::make_shared<ReferenceTables>()) {}

  std::vector<ArrayReference> run() {
    // Sized once, so the walk never moves a reference and no table
    // regrows.
    Sizes N;
    count(P.body(), 0, N);
    Out.reserve(N.Refs);
    Pending.reserve(N.Refs);
    T->Subs.reserve(N.Subs);
    SubTerms.reserve(N.Subs);
    T->Chains.reserve(N.Chains);
    T->ChainInfo.reserve(N.Chains);
    ChainTerms.reserve(N.Chains);
    T->Terms.reserve(N.Terms);
    collectFrom(P.body());
    return finish();
  }

private:
  /// Where a reference's slices lie in the tables.
  struct PendingRef {
    Range Chain;
    Range Subs;
  };
  /// One open loop: summarized on entry, copied into the chain of every
  /// loop inside it that holds a reference.
  struct OpenLoop {
    const LoopStmt *Loop = nullptr;
    LoopSummary Info;
    Range Lo, Hi; // the terms of Info.Lo and Info.Hi
  };

  const Program &P;
  std::shared_ptr<ReferenceTables> T;
  std::vector<ArrayReference> Out;
  std::vector<PendingRef> Pending; // per element of Out
  std::vector<Range> SubTerms;     // per element of T->Subs
  /// Per element of T->ChainInfo: its Lo and Hi terms.
  std::vector<std::pair<Range, Range>> ChainTerms;

  /// The open loops, outermost first.
  std::vector<OpenLoop> Open;
  /// The innermost open loop's chain, once a reference needed it.
  std::optional<Range> Chain = Range{};
  /// The loop-chain fingerprint of Open.
  uint64_t ChainFp = emptyLoopChain();
  /// The current statement's array reads, in slot order.
  std::vector<const Expr *> Reads;

  /// What the walk appends to each table.
  struct Sizes {
    size_t Refs = 0, Subs = 0;
    size_t Chains = 0; ///< Entries of Chains, ChainInfo and ChainTerms.
    size_t Terms = 0;
  };
  /// Adds to \p N what the walk appends for \p Body, the body of a
  /// loop nest \p Depth deep.
  void count(const std::vector<StmtPtr> &Body, unsigned Depth, Sizes &N);
  /// Sets Reads to \p A's array reads, in slot order.
  void collectReads(const AssignStmt &A);
  void collectFrom(const std::vector<StmtPtr> &Body);
  void addRef(const AssignStmt &A, unsigned ArrayId, int Slot,
              std::span<const Expr *const> Subscripts);
  Range summarize(const Expr *E, AffineSummary &S);
  std::vector<ArrayReference> finish();
};

/// Takes the affine form of \p E into \p S, appending its terms to the
/// tables, and resolves each variable against Open (the outermost loop
/// with that variable); unmatched variables stay variable terms.
Range Collector::summarize(const Expr *E, AffineSummary &S) {
  Range R{static_cast<uint32_t>(T->Terms.size()), 0};
  const AffineForm *Affine = E->affine();
  if (!Affine)
    return R;
  S.Affine = true;
  S.Const = Affine->Constant;
  for (const AffineExpr::Term &Term : Affine->Terms) {
    SummaryTerm &Sum = T->Terms.emplace_back();
    Sum.Var = Term.VarId;
    Sum.Coeff = Term.Coeff;
    for (unsigned L = 0; L < Open.size(); ++L)
      if (Open[L].Loop->varId() == Term.VarId) {
        Sum.Loop = L;
        break;
      }
  }
  R.Size = static_cast<uint32_t>(Affine->Terms.size());
  return R;
}

void Collector::addRef(const AssignStmt &A, unsigned ArrayId, int Slot,
                       std::span<const Expr *const> Subscripts) {
  if (!Chain) {
    Chain = Range{static_cast<uint32_t>(T->Chains.size()),
                  static_cast<uint32_t>(Open.size())};
    for (const OpenLoop &L : Open) {
      T->Chains.push_back(L.Loop);
      T->ChainInfo.push_back(L.Info);
      ChainTerms.emplace_back(L.Lo, L.Hi);
    }
  }

  ArrayReference &Ref = Out.emplace_back();
  Ref.ArrayId = ArrayId;
  Ref.Stmt = &A;
  Ref.Slot = Slot;
  Ref.IsWrite = Slot < 0;
  Ref.Subscripts = Subscripts;

  uint64_t H = hashCombine(0x5EFu, Ref.IsWrite ? 1u : 0u);
  H = hashCombine(H, fingerprintArrayAccess(P, ArrayId, Subscripts));
  Ref.FingerprintNoBounds = H;
  Ref.Fingerprint = hashCombine(H, ChainFp);

  Pending.push_back({*Chain,
                     {static_cast<uint32_t>(T->Subs.size()),
                      static_cast<uint32_t>(Subscripts.size())}});
  for (const Expr *Sub : Subscripts) {
    AffineSummary &S = T->Subs.emplace_back();
    const Range Terms = summarize(Sub, S);
    SubTerms.push_back(Terms);
    if (!S.Affine)
      Ref.Unanalyzable = true;
    for (const SummaryTerm &Term : Terms.of(T->Terms))
      if (Term.Loop == SummaryTerm::NoLoop &&
          P.var(Term.Var).Kind != VarKind::Symbolic)
        Ref.Unanalyzable = true; // A scalar the prepass could not remove.
  }
}

void Collector::collectReads(const AssignStmt &A) {
  Reads.clear();
  if (A.isArrayLhs())
    for (const Expr *Sub : A.lhsSubscripts())
      Sub->collectArrayReads(Reads);
  A.rhs()->collectArrayReads(Reads);
}

void Collector::count(const std::vector<StmtPtr> &Body, unsigned Depth,
                      Sizes &N) {
  // As many terms as summarize() appends for E.
  auto TermsOf = [](const Expr *E) -> size_t {
    const AffineForm *Affine = E->affine();
    return Affine ? Affine->Terms.size() : 0;
  };
  auto AddRef = [&](std::span<const Expr *const> Subscripts) {
    ++N.Refs;
    N.Subs += Subscripts.size();
    for (const Expr *Sub : Subscripts)
      N.Terms += TermsOf(Sub);
  };
  // A loop whose body directly holds a reference gets a chain.
  bool HoldsRef = false;
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Loop) {
      const LoopStmt &L = asLoop(*S);
      N.Terms += TermsOf(L.lo()) + TermsOf(L.hi());
      count(L.body(), Depth + 1, N);
      continue;
    }
    const AssignStmt &A = asAssign(*S);
    if (A.isArrayLhs()) {
      AddRef(A.lhsSubscripts());
      HoldsRef = true;
    }
    collectReads(A);
    for (const Expr *Read : Reads)
      AddRef(Read->subscripts());
    HoldsRef |= !Reads.empty();
  }
  if (HoldsRef)
    N.Chains += Depth;
}

void Collector::collectFrom(const std::vector<StmtPtr> &Body) {
  for (const StmtPtr &S : Body) {
    if (S->kind() == StmtKind::Loop) {
      // Summarize the loop against itself and the loops around it.
      const LoopStmt &L = asLoop(*S);
      OpenLoop &Entry = Open.emplace_back();
      LoopSummary &Info = Entry.Info;
      Entry.Loop = &L;
      Entry.Lo = summarize(L.step() > 0 ? L.lo() : L.hi(), Info.Lo);
      Entry.Hi = summarize(L.step() > 0 ? L.hi() : L.lo(), Info.Hi);
      Info.ConstantEmpty = Info.Lo.Affine && Info.Hi.Affine &&
                           Entry.Lo.Size == 0 && Entry.Hi.Size == 0 &&
                           Info.Lo.Const > Info.Hi.Const;
      Info.UnitStep = L.step() == 1;

      const std::optional<Range> OuterChain =
          std::exchange(Chain, std::nullopt);
      const uint64_t OuterFp =
          std::exchange(ChainFp, extendLoopChain(P, ChainFp, L));
      collectFrom(L.body());
      ChainFp = OuterFp;
      Chain = OuterChain;
      Open.pop_back();
      continue;
    }
    const AssignStmt &A = asAssign(*S);
    if (A.isArrayLhs())
      addRef(A, A.lhsArray(), -1, A.lhsSubscripts());
    collectReads(A);
    for (unsigned I = 0; I < Reads.size(); ++I)
      addRef(A, Reads[I]->arrayId(), static_cast<int>(I),
             Reads[I]->subscripts());
  }
}

std::vector<ArrayReference> Collector::finish() {
  for (size_t S = 0; S < T->Subs.size(); ++S)
    T->Subs[S].Terms = SubTerms[S].of(T->Terms);
  for (size_t K = 0; K < T->ChainInfo.size(); ++K) {
    T->ChainInfo[K].Lo.Terms = ChainTerms[K].first.of(T->Terms);
    T->ChainInfo[K].Hi.Terms = ChainTerms[K].second.of(T->Terms);
  }
  for (size_t R = 0; R < Out.size(); ++R) {
    ArrayReference &Ref = Out[R];
    Ref.Loops = Pending[R].Chain.of(T->Chains);
    Ref.LoopInfo = Pending[R].Chain.of(T->ChainInfo);
    Ref.Subs = Pending[R].Subs.of(T->Subs);
    Ref.Tables = T;
  }
  return std::move(Out);
}

} // namespace

std::vector<ArrayReference> edda::collectReferences(const Program &P) {
  return Collector(P).run();
}

uint64_t edda::pairFingerprint(uint64_t FpA, uint64_t FpB,
                               unsigned NumCommon) {
  return hashCombine(hashCombine(FpA, FpB), NumCommon);
}

std::string edda::refStr(const Program &P, const ArrayReference &Ref) {
  std::string Out = P.array(Ref.ArrayId).Name;
  for (const Expr *Sub : Ref.Subscripts)
    Out += "[" +
           Sub->str([&P](unsigned V) { return P.var(V).Name; }) + "]";
  Out += Ref.IsWrite ? " (write" : " (read";
  Out += " at depth " + std::to_string(Ref.Loops.size()) + ")";
  return Out;
}
