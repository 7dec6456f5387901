//===- deptest/Memo.h - Memoization of dependence tests --------*- C++ -*-===//
//
// Part of the edda project: a reproduction of Maydan, Hennessy & Lam,
// "Efficient and Exact Data Dependence Analysis", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of dependence tests (paper section 5). Real programs ask
/// the same small set of questions over and over, so results are cached
/// in two hash tables: one keyed without loop bounds (the extended GCD
/// test ignores bounds) and one keyed with them (full answers and
/// direction vectors). There is one key: the problem's words, hashed with
/// a splitmix-based mixer. The paper's "simple" scheme keys the problem
/// verbatim; the "improved" scheme (the default) first removes unused
/// loop variables, merging problems that differ only in irrelevant
/// surrounding loops. The tables hold answers, never witnesses: a
/// witness belongs to the x space of the problem that found it, not to
/// every problem that shares its key. One extension the paper sketches
/// is implemented, persistence across compilations.
///
/// A problem's key is computed once (makeKey) and then handed to every
/// lookup and insert for that problem: the words, both table hashes
/// and the scheme's remapping facts travel together in a MemoKey, so no
/// call re-serializes the problem or re-hashes the words. A caller that
/// keeps many keys appends them to a MemoKeyPool instead; the calls take
/// either through a MemoKeyRef. The tables find entries through a
/// (words, hash) view, so a lookup allocates nothing. The
/// problem-taking calls are wrappers that make the key first.
///
/// The cache is safe for concurrent lookup/insert: the tables are split
/// into independently-locked shards selected by the memo hash of the
/// key, so under the parallel analyzer the hot path takes one
/// uncontended lock. Shard count 1 degenerates to the original
/// single-table behaviour. Sharding never changes which key maps to
/// which entry — only which mutex guards it — so results are identical
/// at every shard count.
///
//===----------------------------------------------------------------------===//

#ifndef EDDA_DEPTEST_MEMO_H
#define EDDA_DEPTEST_MEMO_H

#include "deptest/Cascade.h"
#include "deptest/Direction.h"
#include "deptest/Problem.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace edda {

/// Memoization scheme configuration.
struct MemoOptions {
  /// Remove unused loop variables before keying (the paper's improved
  /// scheme).
  bool ImprovedKey = true;
  /// Number of independently-locked shards (rounded up to a power of
  /// two). 0 = auto: 1 shard for a serial analyzer, a few shards per
  /// thread otherwise (the analyzer resolves this from its thread
  /// count). Sharding affects contention only, never results.
  unsigned Shards = 0;
  /// Maintain a last-use stamp per full/direction entry (updated on
  /// hit and insert, under the shard lock already held) so
  /// evictOldest() can bound a long-lived cache. Off by default: the
  /// batch analyzer never evicts and skips the bookkeeping; edda-serve
  /// turns it on for its size-bounded warm-start checkpoints.
  bool TrackRecency = false;
};

/// Words of a memo key with their table hash: what the tables look up
/// by. Two views are equal when their words are.
struct MemoKeyView {
  std::span<const int64_t> Words;
  uint64_t Hash = 0;

  bool operator==(const MemoKeyView &RHS) const {
    return Hash == RHS.Hash && std::equal(Words.begin(), Words.end(),
                                          RHS.Words.begin(),
                                          RHS.Words.end());
  }
};

/// Hashes a view by its precomputed hash (for maps keyed by views).
struct MemoKeyViewHash {
  size_t operator()(const MemoKeyView &V) const {
    return static_cast<size_t>(V.Hash);
  }
};

/// What makeKey computes of a key besides its words and common-loop
/// map: the prefix length, the hashes and the keyed problem's common
/// loop count.
struct MemoKeyFields {
  /// Words[0, NoBoundsLen) is the without-bounds key.
  size_t NoBoundsLen = 0;
  /// Table hashes (hashWords) of Words and of its prefix.
  uint64_t Hash = 0;
  uint64_t NoBoundsHash = 0;
  /// The keyed problem's common loops, for expanding improved-key
  /// directions back to them.
  unsigned NumCommon = 0;
};

/// One problem's canonical memo key under one cache's options, made by
/// DependenceCache::makeKey in one pass over the problem.
///
/// Words is the with-bounds key; its first NoBoundsLen words are the
/// without-bounds key. The prefix property holds under both schemes
/// (the improved scheme reduces once, with bounds, for both keys), and
/// the analyzer's determinism argument rests on it: equal full keys
/// imply equal no-bounds keys. A key is only meaningful to caches with
/// the same MemoOptions::ImprovedKey as the one that made it.
struct MemoKey : MemoKeyFields {
  std::vector<int64_t> Words;
  /// Improved scheme: the keyed problem's common loop -> common loop of
  /// the reduced problem, std::nullopt for a removed one.
  std::vector<std::optional<unsigned>> CommonMap;

  MemoKeyView full() const { return {Words, Hash}; }
  MemoKeyView noBounds() const {
    return {std::span<const int64_t>(Words.data(), NoBoundsLen),
            NoBoundsHash};
  }
};

/// A memo key as the lookups and inserts read it: a MemoKey's fields,
/// with its words and common-loop map wherever they are stored (a
/// MemoKey or a MemoKeyPool). Valid while that storage is.
struct MemoKeyRef : MemoKeyFields {
  std::span<const int64_t> Words;
  std::span<const std::optional<unsigned>> CommonMap;

  MemoKeyRef(const MemoKeyFields &F, std::span<const int64_t> W,
             std::span<const std::optional<unsigned>> Map)
      : MemoKeyFields(F), Words(W), CommonMap(Map) {}
  MemoKeyRef(const MemoKey &K) : MemoKeyRef(K, K.Words, K.CommonMap) {}

  MemoKeyView full() const { return {Words, Hash}; }
  MemoKeyView noBounds() const {
    return {Words.first(NoBoundsLen), NoBoundsHash};
  }
};

/// Keys stored back to back: every key's words in one vector and every
/// common-loop map in another, so keeping many keys costs a few growing
/// vectors rather than one or two heap blocks per key. Filled by
/// DependenceCache::makeKey; a key's index is its order of making.
class MemoKeyPool {
public:
  /// The key made with index \p I.
  MemoKeyRef operator[](size_t I) const {
    const Stored &K = Keys[I];
    return {K.Fields,
            std::span<const int64_t>(Words).subspan(K.WordsAt, K.NumWords),
            std::span<const std::optional<unsigned>>(CommonMaps)
                .subspan(K.CommonAt, K.NumCommonMap)};
  }

private:
  friend class DependenceCache;
  struct Stored {
    MemoKeyFields Fields;
    uint32_t WordsAt = 0, NumWords = 0;
    uint32_t CommonAt = 0, NumCommonMap = 0;
  };
  std::vector<Stored> Keys;
  std::vector<int64_t> Words;
  std::vector<std::optional<unsigned>> CommonMaps;
};

/// What DependenceCache::loadFromFile saw, for warm-start reporting.
struct CacheLoadStats {
  /// Format version the file declared (0 when the header was
  /// unreadable).
  int FileVersion = 0;
  /// Entries loaded into the tables (current-format files only).
  uint64_t LoadedEntries = 0;
  /// Entries present in the file but dropped because its format version
  /// is not the current one.
  uint64_t RejectedEntries = 0;
};

/// The two-table dependence cache.
class DependenceCache {
public:
  explicit DependenceCache(MemoOptions Opts = {});

  const MemoOptions &options() const { return Opts; }

  /// The resolved shard count (power of two).
  unsigned shardCount() const {
    return static_cast<unsigned>(Shards.size());
  }

  /// \p P's key under this cache's options.
  MemoKey makeKey(const DependenceProblem &P) const;
  /// The same, written into \p K and reusing its storage.
  void makeKey(const DependenceProblem &P, MemoKey &K) const;
  /// The same, appended to \p Pool; returns the key's index there.
  size_t makeKey(const DependenceProblem &P, MemoKeyPool &Pool) const;

  /// Full-answer table (bounds included in the key). \p Tag optionally
  /// labels the entry with a content fingerprint (the analyzer passes
  /// its pair fingerprint); 0 means untagged. First-insert-wins keeps
  /// the first tag on a duplicate key.
  std::optional<CascadeResult> lookupFull(const MemoKeyRef &K);
  void insertFull(const MemoKeyRef &K, const CascadeResult &R,
                  uint64_t Tag = 0);

  /// Direction-vector table (bounds included in the key).
  std::optional<DirectionResult> lookupDirections(const MemoKeyRef &K);
  void insertDirections(const MemoKeyRef &K, const DirectionResult &R,
                        uint64_t Tag = 0);

  /// GCD-solvability table (bounds excluded from the key).
  std::optional<bool> lookupGcdSolvable(const MemoKeyRef &K);
  void insertGcdSolvable(const MemoKeyRef &K, bool Solvable);

  /// The same calls keyed by a problem: each makes the key, then
  /// delegates.
  std::optional<CascadeResult> lookupFull(const DependenceProblem &P) {
    return lookupFull(scratchKey(P));
  }
  void insertFull(const DependenceProblem &P, const CascadeResult &R,
                  uint64_t Tag = 0) {
    insertFull(scratchKey(P), R, Tag);
  }
  std::optional<DirectionResult>
  lookupDirections(const DependenceProblem &P) {
    return lookupDirections(scratchKey(P));
  }
  void insertDirections(const DependenceProblem &P,
                        const DirectionResult &R, uint64_t Tag = 0) {
    insertDirections(scratchKey(P), R, Tag);
  }
  std::optional<bool> lookupGcdSolvable(const DependenceProblem &P) {
    return lookupGcdSolvable(scratchKey(P));
  }
  void insertGcdSolvable(const DependenceProblem &P, bool Solvable) {
    insertGcdSolvable(scratchKey(P), Solvable);
  }

  /// Drops every full/direction entry whose tag is in \p Tags,
  /// returning the number of entries removed. Because memo keys are
  /// content-addressed, entries belonging to edited-away statements are
  /// merely unreachable, never wrong — invalidation bounds the growth
  /// of a long-lived store, it is not needed for correctness. A shared
  /// key first-inserted by a still-live pair may be removed when its
  /// first inserter's tag goes stale; the only effect is a re-miss.
  uint64_t invalidateFingerprints(const std::vector<uint64_t> &Tags);

  /// Accounting for the Table 2 reproduction. Counter reads are exact
  /// once concurrent callers have quiesced.
  uint64_t fullQueries() const { return FullQueries.load(); }
  uint64_t fullHits() const { return FullHits.load(); }
  uint64_t dirQueries() const { return DirQueries.load(); }
  uint64_t dirHits() const { return DirHits.load(); }
  uint64_t uniqueFull() const;
  uint64_t uniqueDirections() const;
  uint64_t gcdQueries() const { return GcdQueries.load(); }
  uint64_t gcdHits() const { return GcdHits.load(); }
  uint64_t uniqueNoBounds() const;

  /// Persistence across compilations (extension, paper section 5):
  /// writes/reads all three tables. Returns false on I/O or format
  /// errors.
  ///
  /// saveToFile() takes each shard's lock while serializing that
  /// shard, so it is safe to checkpoint while analyzer threads insert
  /// concurrently: every entry is immutable once inserted
  /// (first-insert-wins), so the snapshot is some subset of the
  /// entries that exist when the save returns, and reloading it can
  /// only pre-answer questions with the exact results recomputation
  /// would produce. loadFromFile() is not concurrency-safe — call it
  /// before serving starts. A load is all-or-nothing: the whole file
  /// is parsed and checked (every enum in range, every direction vector
  /// and distance list as long as its key's common-loop count) before
  /// any entry enters the tables, so a failed load leaves them as they
  /// were.
  ///
  /// \p LoadStats, when given, reports what happened: on a
  /// format-version mismatch the load still fails (returns false) but
  /// it says which version the file declared and how many entries were
  /// rejected with it, so warm-start callers can log the loss instead
  /// of silently cold-starting.
  bool saveToFile(const std::string &Path) const;
  bool loadFromFile(const std::string &Path,
                    CacheLoadStats *LoadStats = nullptr);

  /// Size-bounded "LRU-ish" eviction for long-lived caches: removes
  /// least-recently-used full/direction entries (per the TrackRecency
  /// stamps; entries never touched count as oldest) until at most
  /// \p TargetEntries remain across both tables. The bounds-free GCD
  /// table is never evicted — it is keyed by equation systems only
  /// and stays small. Returns the number of entries removed. Safe
  /// against concurrent lookup/insert; with inserts racing, the bound
  /// is approximate.
  uint64_t evictOldest(uint64_t TargetEntries);

  void clear();

private:
  /// A table key: the words with their hash, computed once.
  struct StoredKey {
    std::vector<int64_t> Words;
    uint64_t Hash = 0;
    MemoKeyView view() const { return {Words, Hash}; }
  };
  /// Transparent hash and equality, so lookups go by MemoKeyView.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const StoredKey &K) const { return K.Hash; }
    size_t operator()(const MemoKeyView &K) const { return K.Hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const StoredKey &A, const StoredKey &B) const {
      return A.view() == B.view();
    }
    bool operator()(const MemoKeyView &A, const StoredKey &B) const {
      return A == B.view();
    }
    bool operator()(const StoredKey &A, const MemoKeyView &B) const {
      return A.view() == B;
    }
  };
  /// A full or direction entry with its bookkeeping: the last-use stamp
  /// (MemoOptions::TrackRecency; 0 = never touched) and the fingerprint
  /// tag (0 = none) that invalidateFingerprints consumes.
  template <typename ResultT> struct Entry {
    ResultT Result;
    uint64_t Use = 0;
    uint64_t Tag = 0;
  };
  template <typename ValueT>
  using Table = std::unordered_map<StoredKey, ValueT, KeyHash, KeyEq>;

  /// One lock plus its slice of all three tables. Heap-allocated so the
  /// shard array never moves (mutexes are not movable) and adjacent
  /// shards do not false-share.
  struct Shard {
    mutable std::mutex Mutex;
    Table<Entry<CascadeResult>> Full{16};
    Table<Entry<DirectionResult>> Directions{16};
    Table<bool> Gcd{16};
  };

  /// \p P's key, made into this thread's reusable key (valid until the
  /// thread's next scratchKey call), for the problem-taking calls.
  const MemoKey &scratchKey(const DependenceProblem &P) const;
  /// The body of every makeKey: appends \p P's key words to \p Words
  /// and its common-loop map to \p CommonMap, and sets \p K.
  void appendKey(const DependenceProblem &P, std::vector<int64_t> &Words,
                 std::vector<std::optional<unsigned>> &CommonMap,
                 MemoKeyFields &K) const;
  /// Entries in one table, summed over the shards.
  template <typename TableT>
  uint64_t countEntries(TableT Shard::*Which) const;
  Shard &shardFor(uint64_t Hash) {
    return *Shards[Hash & (Shards.size() - 1)];
  }
  /// Lookup/insert bodies shared by the full and direction tables.
  template <typename ResultT>
  std::optional<ResultT> find(Table<Entry<ResultT>> Shard::*Which,
                              const MemoKeyRef &K);
  template <typename ResultT>
  void insert(Table<Entry<ResultT>> Shard::*Which, const MemoKeyRef &K,
              ResultT Stored, uint64_t Tag);

  MemoOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> FullQueries{0};
  std::atomic<uint64_t> FullHits{0};
  std::atomic<uint64_t> DirQueries{0};
  std::atomic<uint64_t> DirHits{0};
  std::atomic<uint64_t> GcdQueries{0};
  std::atomic<uint64_t> GcdHits{0};
  /// Monotone clock driving the TrackRecency stamps.
  std::atomic<uint64_t> UseTick{0};
};

} // namespace edda

#endif // EDDA_DEPTEST_MEMO_H
