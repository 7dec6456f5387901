//===- deptest/Memo.cpp - Memoization of dependence tests -----------------===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "deptest/Memo.h"

#include "support/Hashing.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>
#include <unordered_set>

using namespace edda;

namespace {

unsigned roundUpPow2(unsigned N) {
  unsigned P = 1;
  while (P < N && P < (1u << 16))
    P <<= 1;
  return P;
}

/// The problem a key serializes, as an index view of the keyed problem:
/// key column J is problem column Cols[J], and key loop L's bounds are
/// the problem's Lo/Hi[Cols[L]]. The improved scheme leaves out unused
/// columns.
struct KeyView {
  unsigned NumLoopsA = 0, NumLoopsB = 0, NumCommon = 0, NumSymbolic = 0;
  std::span<const unsigned> Cols;

  unsigned numLoopVars() const { return NumLoopsA + NumLoopsB; }
};

/// Per-thread scratch for makeKey, kept across calls so keying a
/// problem allocates only the key itself; Key is the key the
/// problem-taking calls make and drop, so they allocate nothing.
struct KeyScratch {
  std::vector<uint64_t> Used;
  std::vector<unsigned> Cols;
  MemoKey Key;
};
thread_local KeyScratch Scratch;

/// Words DependenceProblem::serialize writes for \p P seen through \p V.
size_t serializedSize(const DependenceProblem &P, const KeyView &V) {
  const size_t NumX = V.Cols.size();
  size_t Size = 5 + P.Equations.size() * (1 + NumX);
  for (unsigned L = 0; L < V.numLoopVars(); ++L) {
    Size += P.Lo[V.Cols[L]] ? 2 + NumX : 1;
    Size += P.Hi[V.Cols[L]] ? 2 + NumX : 1;
  }
  return Size;
}

/// Writes the serialization (DependenceProblem::serialize) of \p P as
/// seen through \p V to \p Out, serializedSize words, and returns the
/// length of the no-bounds prefix.
size_t serializeView(const DependenceProblem &P, const KeyView &V,
                     int64_t *Out) {
  int64_t *const Begin = Out;
  *Out++ = V.NumLoopsA;
  *Out++ = V.NumLoopsB;
  *Out++ = V.NumCommon;
  *Out++ = V.NumSymbolic;
  *Out++ = static_cast<int64_t>(P.Equations.size());
  for (const XAffine &Eq : P.Equations) {
    *Out++ = Eq.Const;
    for (unsigned Col : V.Cols)
      *Out++ = Eq.Coeffs[Col];
  }
  const size_t NoBoundsLen = static_cast<size_t>(Out - Begin);

  auto AppendBound = [&](const std::optional<XAffine> &B) {
    if (!B) {
      *Out++ = 0; // absent marker
      return;
    }
    *Out++ = 1;
    *Out++ = B->Const;
    for (unsigned Col : V.Cols)
      *Out++ = B->Coeffs[Col];
  };
  for (unsigned L = 0; L < V.numLoopVars(); ++L)
    AppendBound(P.Lo[V.Cols[L]]);
  for (unsigned L = 0; L < V.numLoopVars(); ++L)
    AppendBound(P.Hi[V.Cols[L]]);
  return NoBoundsLen;
}

} // namespace

DependenceCache::DependenceCache(MemoOptions Opts) : Opts(Opts) {
  unsigned Count = roundUpPow2(std::max(1u, Opts.Shards));
  Shards.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

MemoKey DependenceCache::makeKey(const DependenceProblem &P) const {
  MemoKey K;
  makeKey(P, K);
  return K;
}

const MemoKey &DependenceCache::scratchKey(const DependenceProblem &P) const {
  makeKey(P, Scratch.Key);
  return Scratch.Key;
}

void DependenceCache::makeKey(const DependenceProblem &P, MemoKey &K) const {
  K.Words.clear();
  K.CommonMap.clear();
  appendKey(P, K.Words, K.CommonMap, K);
}

size_t DependenceCache::makeKey(const DependenceProblem &P,
                                MemoKeyPool &Pool) const {
  MemoKeyPool::Stored &S = Pool.Keys.emplace_back();
  S.WordsAt = static_cast<uint32_t>(Pool.Words.size());
  S.CommonAt = static_cast<uint32_t>(Pool.CommonMaps.size());
  appendKey(P, Pool.Words, Pool.CommonMaps, S.Fields);
  S.NumWords = static_cast<uint32_t>(Pool.Words.size() - S.WordsAt);
  S.NumCommonMap = static_cast<uint32_t>(Pool.CommonMaps.size() - S.CommonAt);
  return Pool.Keys.size() - 1;
}

void DependenceCache::appendKey(const DependenceProblem &P,
                                std::vector<int64_t> &Words,
                                std::vector<std::optional<unsigned>> &CommonMap,
                                MemoKeyFields &K) const {
  assert(P.wellFormed() && "keying a malformed problem");
  K.NumCommon = P.NumCommon;

  // The improved scheme keys the problem with its unused columns left
  // out (DependenceProblem::withUnusedLoopsRemoved, without the copy).
  KeyView V;
  std::vector<unsigned> &Cols = Scratch.Cols;
  Cols.clear();
  if (Opts.ImprovedKey) {
    P.usedColumns(Scratch.Used);
    const uint64_t *Used = Scratch.Used.data();
    auto Kept = [Used](unsigned J) { return (Used[J / 64] >> (J % 64)) & 1; };
    for (unsigned J = 0; J < P.numX(); ++J)
      if (Kept(J))
        Cols.push_back(J);
    for (unsigned L = 0; L < P.NumLoopsA; ++L)
      V.NumLoopsA += Kept(L);
    for (unsigned L = 0; L < P.NumLoopsB; ++L)
      V.NumLoopsB += Kept(P.NumLoopsA + L);
    const size_t MapAt = CommonMap.size();
    CommonMap.resize(MapAt + P.NumCommon, std::nullopt);
    for (unsigned C = 0; C < P.NumCommon; ++C)
      if (Kept(P.xOfCommonA(C)))
        CommonMap[MapAt + C] = V.NumCommon++;
  } else {
    for (unsigned J = 0; J < P.numX(); ++J)
      Cols.push_back(J);
    V.NumLoopsA = P.NumLoopsA;
    V.NumLoopsB = P.NumLoopsB;
    V.NumCommon = P.NumCommon;
  }
  V.Cols = Cols;
  V.NumSymbolic =
      static_cast<unsigned>(Cols.size()) - V.NumLoopsA - V.NumLoopsB;

  const size_t At = Words.size();
  Words.resize(At + serializedSize(P, V));
  const std::span<int64_t> Key = std::span<int64_t>(Words).subspan(At);
  K.NoBoundsLen = serializeView(P, V, Key.data());
  std::tie(K.Hash, K.NoBoundsHash) = hashWordsAndPrefix(Key, K.NoBoundsLen);
}

template <typename ResultT>
std::optional<ResultT>
DependenceCache::find(Table<Entry<ResultT>> Shard::*Which,
                      const MemoKeyRef &K) {
  Shard &S = shardFor(K.Hash);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = (S.*Which).find(K.full());
  if (It == (S.*Which).end())
    return std::nullopt;
  if (Opts.TrackRecency)
    It->second.Use = UseTick.fetch_add(1, std::memory_order_relaxed);
  return It->second.Result;
}

template <typename ResultT>
void DependenceCache::insert(Table<Entry<ResultT>> Shard::*Which,
                             const MemoKeyRef &K, ResultT Stored,
                             uint64_t Tag) {
  Shard &S = shardFor(K.Hash);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  Table<Entry<ResultT>> &T = S.*Which;
  // The first entry on a key wins, so concurrent inserters of the same
  // problem converge on one canonical entry. The tag follows the same
  // discipline: it labels the entry that won.
  auto It = T.find(K.full());
  if (It == T.end())
    It = T.emplace(StoredKey{{K.Words.begin(), K.Words.end()}, K.Hash},
                   Entry<ResultT>{std::move(Stored), 0, Tag})
             .first;
  if (Opts.TrackRecency)
    It->second.Use = UseTick.fetch_add(1, std::memory_order_relaxed);
}

std::optional<CascadeResult> DependenceCache::lookupFull(const MemoKeyRef &K) {
  FullQueries.fetch_add(1, std::memory_order_relaxed);
  std::optional<CascadeResult> R = find(&Shard::Full, K);
  if (!R)
    return std::nullopt;
  FullHits.fetch_add(1, std::memory_order_relaxed);
  return R;
}

void DependenceCache::insertFull(const MemoKeyRef &K, const CascadeResult &R,
                                 uint64_t Tag) {
  // The answer without its witness (see the file comment).
  CascadeResult Stored;
  Stored.Answer = R.Answer;
  Stored.DecidedBy = R.DecidedBy;
  Stored.Exact = R.Exact;
  Stored.Widened = R.Widened;
  insert(&Shard::Full, K, std::move(Stored), Tag);
}

std::optional<DirectionResult>
DependenceCache::lookupDirections(const MemoKeyRef &K) {
  DirQueries.fetch_add(1, std::memory_order_relaxed);
  std::optional<DirectionResult> R = find(&Shard::Directions, K);
  if (!R)
    return std::nullopt;
  DirHits.fetch_add(1, std::memory_order_relaxed);
  if (!Opts.ImprovedKey)
    return R;
  // Improved-key entries are stored in the reduced problem's common-loop
  // coordinates; expand to this caller's loops, '*' for removed ones.
  return expandDirections(std::move(*R), K.CommonMap);
}

void DependenceCache::insertDirections(const MemoKeyRef &K,
                                       const DirectionResult &R,
                                       uint64_t Tag) {
  DirectionResult Stored = R;
  if (Opts.ImprovedKey) {
    // Shrink to the reduced problem's coordinates so entries are
    // independent of the surrounding unused loops.
    const std::span<const std::optional<unsigned>> CommonMap = K.CommonMap;
    unsigned ReducedCommon = 0;
    for (const std::optional<unsigned> &C : CommonMap)
      ReducedCommon += C.has_value();
    DirectionResult Shrunk = R;
    Shrunk.Distances.assign(ReducedCommon, std::nullopt);
    Shrunk.Vectors.clear();
    for (unsigned C = 0; C < K.NumCommon; ++C)
      if (CommonMap[C] && C < R.Distances.size())
        Shrunk.Distances[*CommonMap[C]] = R.Distances[C];
    for (const DirVector &Vec : R.Vectors) {
      DirVector Small(ReducedCommon, Dir::Any);
      for (unsigned C = 0; C < K.NumCommon; ++C)
        if (CommonMap[C] && C < Vec.size())
          Small[*CommonMap[C]] = Vec[C];
      Shrunk.Vectors.push_back(std::move(Small));
    }
    Stored = std::move(Shrunk);
  }
  insert(&Shard::Directions, K, std::move(Stored), Tag);
}

uint64_t DependenceCache::invalidateFingerprints(
    const std::vector<uint64_t> &Tags) {
  if (Tags.empty())
    return 0;
  std::unordered_set<uint64_t> Stale(Tags.begin(), Tags.end());
  uint64_t Removed = 0;
  auto Sweep = [&](auto &Table) {
    for (auto It = Table.begin(); It != Table.end();) {
      if (It->second.Tag != 0 && Stale.count(It->second.Tag)) {
        It = Table.erase(It);
        ++Removed;
      } else {
        ++It;
      }
    }
  };
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Sweep(S->Full);
    Sweep(S->Directions);
  }
  return Removed;
}

std::optional<bool> DependenceCache::lookupGcdSolvable(const MemoKeyRef &K) {
  GcdQueries.fetch_add(1, std::memory_order_relaxed);
  Shard &S = shardFor(K.NoBoundsHash);
  bool Solvable;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Gcd.find(K.noBounds());
    if (It == S.Gcd.end())
      return std::nullopt;
    Solvable = It->second;
  }
  GcdHits.fetch_add(1, std::memory_order_relaxed);
  return Solvable;
}

void DependenceCache::insertGcdSolvable(const MemoKeyRef &K, bool Solvable) {
  Shard &S = shardFor(K.NoBoundsHash);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (S.Gcd.find(K.noBounds()) == S.Gcd.end())
    S.Gcd.emplace(StoredKey{std::vector<int64_t>(
                                K.Words.begin(),
                                K.Words.begin() + K.NoBoundsLen),
                            K.NoBoundsHash},
                  Solvable);
}

template <typename TableT>
uint64_t DependenceCache::countEntries(TableT Shard::*Which) const {
  uint64_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += ((*S).*Which).size();
  }
  return Total;
}

uint64_t DependenceCache::uniqueFull() const {
  return countEntries(&Shard::Full);
}
uint64_t DependenceCache::uniqueDirections() const {
  return countEntries(&Shard::Directions);
}
uint64_t DependenceCache::uniqueNoBounds() const {
  return countEntries(&Shard::Gcd);
}

uint64_t DependenceCache::evictOldest(uint64_t TargetEntries) {
  // Collect (stamp, shard, table, key) triples under the shard locks,
  // pick victims oldest-first, then delete them. Entries inserted
  // between the scan and the delete are never victims (they are not
  // in the scan), so a racing insert is at worst briefly over budget.
  struct Victim {
    uint64_t Stamp;
    unsigned ShardIdx;
    bool InDirections;
    StoredKey K;
  };
  std::vector<Victim> All;
  uint64_t Total = 0;
  for (unsigned I = 0; I < Shards.size(); ++I) {
    Shard &S = *Shards[I];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Total += S.Full.size() + S.Directions.size();
    for (const auto &[K, E] : S.Full)
      All.push_back({E.Use, I, false, K});
    for (const auto &[K, E] : S.Directions)
      All.push_back({E.Use, I, true, K});
  }
  if (Total <= TargetEntries)
    return 0;
  uint64_t ToEvict = Total - TargetEntries;
  // Oldest stamps first; full sort is fine at checkpoint frequency.
  std::sort(All.begin(), All.end(), [](const Victim &A, const Victim &B) {
    return A.Stamp < B.Stamp;
  });
  uint64_t Evicted = 0;
  for (const Victim &V : All) {
    if (Evicted >= ToEvict)
      break;
    Shard &S = *Shards[V.ShardIdx];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Evicted += V.InDirections ? S.Directions.erase(V.K) : S.Full.erase(V.K);
  }
  return Evicted;
}

void DependenceCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Full.clear();
    S->Directions.clear();
    S->Gcd.clear();
  }
  FullQueries = FullHits = DirQueries = DirHits = 0;
  GcdQueries = GcdHits = 0;
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

namespace {

void writeVector(std::ostream &Out, const std::vector<int64_t> &V) {
  Out << V.size();
  for (int64_t X : V)
    Out << " " << X;
  Out << "\n";
}

bool readVector(std::istream &In, std::vector<int64_t> &V) {
  size_t Size;
  if (!(In >> Size) || Size > (1u << 20))
    return false;
  V.resize(Size);
  for (size_t I = 0; I < Size; ++I)
    if (!(In >> V[I]))
      return false;
  return true;
}

/// Whether a stored integer names a value of the enum: a file is
/// checked before its entries reach code that indexes by them.
bool validAnswer(int Raw) {
  return Raw >= 0 && Raw <= static_cast<int>(DepAnswer::Unknown);
}
bool validTestKind(int Raw) {
  return Raw >= 0 && Raw < static_cast<int>(NumTestKinds);
}
bool validDir(int Raw) {
  return Raw >= 0 && Raw <= static_cast<int>(Dir::Any);
}

} // namespace

bool DependenceCache::saveToFile(const std::string &Path) const {
  // Serialize each table shard-by-shard under that shard's lock into
  // a memory buffer first: the entry counts written ahead of each
  // section must match the entries that follow even while analyzer
  // threads are inserting concurrently (entries themselves are
  // immutable once inserted, so a per-shard-atomic snapshot is a
  // valid cache).
  std::ostringstream FullBlob;
  size_t FullCount = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    FullCount += S->Full.size();
    for (const auto &[K, E] : S->Full) {
      const CascadeResult &R = E.Result;
      writeVector(FullBlob, K.Words);
      FullBlob << static_cast<int>(R.Answer) << " "
               << static_cast<int>(R.DecidedBy) << " "
               << (R.Exact ? 1 : 0) << " " << (R.Widened ? 1 : 0) << " "
               << E.Tag << "\n";
    }
  }
  std::ostringstream DirBlob;
  size_t DirCount = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    DirCount += S->Directions.size();
    for (const auto &[K, E] : S->Directions) {
      const DirectionResult &R = E.Result;
      writeVector(DirBlob, K.Words);
      DirBlob << static_cast<int>(R.RootAnswer) << " "
              << static_cast<int>(R.RootDecidedBy) << " "
              << (R.Exact ? 1 : 0) << " " << (R.Widened ? 1 : 0) << " "
              << (R.RootWidened ? 1 : 0) << " " << E.Tag << " "
              << R.Vectors.size() << " " << R.Distances.size() << "\n";
      for (const DirVector &V : R.Vectors) {
        DirBlob << V.size();
        for (Dir D : V)
          DirBlob << " " << static_cast<int>(D);
        DirBlob << "\n";
      }
      for (const std::optional<int64_t> &Dist : R.Distances) {
        if (Dist)
          DirBlob << "d " << *Dist << "\n";
        else
          DirBlob << "u\n";
      }
    }
  }
  std::ostringstream GcdBlob;
  size_t GcdCount = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    GcdCount += S->Gcd.size();
    for (const auto &[K, Solvable] : S->Gcd) {
      writeVector(GcdBlob, K.Words);
      GcdBlob << (Solvable ? 1 : 0) << "\n";
    }
  }

  std::ofstream Out(Path);
  if (!Out)
    return false;
  // Version 3: TestKind gained Banerjee before Unanalyzable, changing
  // the DecidedBy integer encoding. Version 4: full entries carry the
  // Widened flag (128-bit retry provenance). Version 5: direction
  // entries carry Widened/RootWidened. Version 6: full and direction
  // entries carry a fingerprint tag (incremental invalidation). Older
  // caches are rejected on load, with their entry counts reported via
  // CacheLoadStats.
  Out << "edda-depcache 6\n";
  Out << FullCount << "\n" << FullBlob.str();
  Out << DirCount << "\n" << DirBlob.str();
  Out << GcdCount << "\n" << GcdBlob.str();
  return static_cast<bool>(Out);
}

namespace {

/// Structural skipping of cache format versions 3-5, enough to count
/// the entries of a rejected file (a full parse is unnecessary: only
/// the counts are reported, so warm-start callers can log what they
/// dropped rather than silently cold-start).
bool skipLegacyFullEntry(std::istream &In, int Version) {
  std::vector<int64_t> K;
  if (!readVector(In, K))
    return false;
  int Ints = Version >= 4 ? 4 : 3; // v4 added the Widened flag.
  int64_t Tmp;
  for (int I = 0; I < Ints; ++I)
    if (!(In >> Tmp))
      return false;
  return true;
}

bool skipLegacyDirEntry(std::istream &In, int Version) {
  std::vector<int64_t> K;
  if (!readVector(In, K))
    return false;
  // v5 added Widened/RootWidened to the Root/RootBy/Exact header.
  int Ints = Version >= 5 ? 5 : 3;
  int64_t Tmp;
  for (int I = 0; I < Ints; ++I)
    if (!(In >> Tmp))
      return false;
  size_t NumVectors, NumDistances;
  if (!(In >> NumVectors >> NumDistances) || NumVectors > (1u << 20) ||
      NumDistances > (1u << 10))
    return false;
  for (size_t V = 0; V < NumVectors; ++V) {
    size_t Len;
    if (!(In >> Len) || Len > (1u << 10))
      return false;
    for (size_t D = 0; D < Len; ++D)
      if (!(In >> Tmp))
        return false;
  }
  for (size_t D = 0; D < NumDistances; ++D) {
    std::string Tag;
    if (!(In >> Tag))
      return false;
    if (Tag == "d") {
      if (!(In >> Tmp))
        return false;
    } else if (Tag != "u") {
      return false;
    }
  }
  return true;
}

uint64_t countLegacyEntries(std::istream &In, int Version) {
  if (Version < 3 || Version > 5)
    return 0; // Unknown shape; nothing trustworthy to count.
  uint64_t Rejected = 0;
  size_t Count;
  if (!(In >> Count) || Count > (1u << 24))
    return Rejected;
  Rejected += Count;
  for (size_t I = 0; I < Count; ++I)
    if (!skipLegacyFullEntry(In, Version))
      return Rejected;
  if (!(In >> Count) || Count > (1u << 24))
    return Rejected;
  Rejected += Count;
  for (size_t I = 0; I < Count; ++I)
    if (!skipLegacyDirEntry(In, Version))
      return Rejected;
  if (!(In >> Count) || Count > (1u << 24))
    return Rejected;
  Rejected += Count; // GCD entries need no skipping: nothing follows.
  return Rejected;
}

} // namespace

bool DependenceCache::loadFromFile(const std::string &Path,
                                   CacheLoadStats *LoadStats) {
  if (LoadStats)
    *LoadStats = CacheLoadStats{};
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Magic;
  int Version;
  if (!(In >> Magic >> Version) || Magic != "edda-depcache")
    return false;
  if (LoadStats)
    LoadStats->FileVersion = Version;
  if (Version != 6) {
    if (LoadStats)
      LoadStats->RejectedEntries = countLegacyEntries(In, Version);
    return false;
  }

  // Read and check the whole file before touching the tables, so a
  // load adds every entry or none.
  std::vector<std::pair<std::vector<int64_t>, Entry<CascadeResult>>> Full;
  std::vector<std::pair<std::vector<int64_t>, Entry<DirectionResult>>> Dirs;
  std::vector<std::pair<std::vector<int64_t>, bool>> Gcd;
  size_t Count;
  if (!(In >> Count))
    return false;
  for (size_t I = 0; I < Count; ++I) {
    std::vector<int64_t> K;
    int Answer, DecidedBy, Exact, Widened;
    uint64_t Tag;
    if (!readVector(In, K) ||
        !(In >> Answer >> DecidedBy >> Exact >> Widened >> Tag) ||
        !validAnswer(Answer) || !validTestKind(DecidedBy))
      return false;
    CascadeResult R;
    R.Answer = static_cast<DepAnswer>(Answer);
    R.DecidedBy = static_cast<TestKind>(DecidedBy);
    R.Exact = Exact != 0;
    R.Widened = Widened != 0;
    Full.emplace_back(std::move(K), Entry<CascadeResult>{std::move(R), 0, Tag});
  }

  if (!(In >> Count))
    return false;
  for (size_t I = 0; I < Count; ++I) {
    std::vector<int64_t> K;
    int Root, RootBy, Exact, Widened, RootWidened;
    uint64_t Tag;
    size_t NumVectors, NumDistances;
    if (!readVector(In, K) ||
        !(In >> Root >> RootBy >> Exact >> Widened >> RootWidened >>
          Tag >> NumVectors >> NumDistances) ||
        NumVectors > (1u << 20) || NumDistances > (1u << 10) ||
        !validAnswer(Root) || !validTestKind(RootBy))
      return false;
    // Key word 2 is the keyed problem's common-loop count, the length
    // of every vector and of the distance list stored under it.
    if (K.size() < 3 || static_cast<uint64_t>(K[2]) != NumDistances)
      return false;
    DirectionResult R;
    R.RootAnswer = static_cast<DepAnswer>(Root);
    R.RootDecidedBy = static_cast<TestKind>(RootBy);
    R.Exact = Exact != 0;
    R.Widened = Widened != 0;
    R.RootWidened = RootWidened != 0;
    for (size_t V = 0; V < NumVectors; ++V) {
      size_t Len;
      if (!(In >> Len) || Len != NumDistances)
        return false;
      DirVector Vec(Len);
      for (size_t D = 0; D < Len; ++D) {
        int Raw;
        if (!(In >> Raw) || !validDir(Raw))
          return false;
        Vec[D] = static_cast<Dir>(Raw);
      }
      R.Vectors.push_back(std::move(Vec));
    }
    for (size_t D = 0; D < NumDistances; ++D) {
      std::string Marker;
      if (!(In >> Marker))
        return false;
      if (Marker == "d") {
        int64_t Value;
        if (!(In >> Value))
          return false;
        R.Distances.push_back(Value);
      } else if (Marker == "u") {
        R.Distances.push_back(std::nullopt);
      } else {
        return false;
      }
    }
    Dirs.emplace_back(std::move(K),
                      Entry<DirectionResult>{std::move(R), 0, Tag});
  }

  if (!(In >> Count))
    return false;
  for (size_t I = 0; I < Count; ++I) {
    std::vector<int64_t> K;
    int Solvable;
    if (!readVector(In, K) || !(In >> Solvable))
      return false;
    Gcd.emplace_back(std::move(K), Solvable != 0);
  }

  auto Insert = [this](auto Shard::*Which, auto &Parsed) {
    for (auto &[K, Value] : Parsed) {
      uint64_t H = hashWords(K);
      (shardFor(H).*Which).emplace(StoredKey{std::move(K), H},
                                   std::move(Value));
    }
  };
  Insert(&Shard::Full, Full);
  Insert(&Shard::Directions, Dirs);
  Insert(&Shard::Gcd, Gcd);
  if (LoadStats)
    LoadStats->LoadedEntries = Full.size() + Dirs.size() + Gcd.size();
  return true;
}
