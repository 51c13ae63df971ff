#ifndef TDB_CHUNK_CHUNK_CACHE_H_
#define TDB_CHUNK_CHUNK_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "chunk/types.h"
#include "common/metrics.h"
#include "common/slice.h"

namespace tdb::chunk {

/// Why a validated-plaintext entry left the cache. Every mutation site is
/// tagged so hit-ratio math stays trustworthy: before causes were tracked,
/// Stats() only counted capacity evictions and silently missed erasures on
/// deallocation and failed/aborted commits.
enum class EvictCause {
  kCapacity = 0,      // LRU pressure in EvictToFit.
  kDealloc = 1,       // Chunk deallocated by a committed batch.
  kFailedCommit = 2,  // Batch failed/rolled back; ids dropped defensively.
  kRelocation = 3,    // Cleaner relocation. Structurally zero by design:
                      // relocation moves sealed bytes verbatim (same id,
                      // same plaintext), so entries survive; the counter
                      // exists to prove that claim in live stats.
};

/// Per-cause eviction counts, plus the compatibility total.
struct CacheEvictionCounts {
  uint64_t capacity = 0;
  uint64_t dealloc = 0;
  uint64_t failed_commit = 0;
  uint64_t relocation = 0;
  uint64_t total() const {
    return capacity + dealloc + failed_commit + relocation;
  }
};

/// Byte-budgeted LRU cache of validated plaintext chunk payloads.
///
/// Every entry holds bytes that already passed the full read validation
/// (Merkle hash check + decryption) or that the store itself just sealed
/// and committed, so serving a hit skips untrusted-store I/O, record
/// parsing, hashing, and decryption entirely. The cache lives in trusted
/// memory; holding decrypted bytes here does not change the threat model,
/// which only covers state behind the UntrustedStore interface.
///
/// Keyed by ChunkId and always reflecting the LAST COMMITTED state of the
/// chunk: the owning ChunkStore write-throughs commits, erases
/// deallocations, and never populates it from view or snapshot reads
/// (which may see older versions). Cleaner relocation moves sealed bytes verbatim —
/// same id, same plaintext — so cached entries stay valid across Clean.
///
/// Thread-safe behind an internal mutex that is never held across I/O, so
/// cache-hit reads never queue behind an in-flight commit sync (the
/// group-commit read-path requirement). The mutex only covers the map/LRU
/// manipulation.
class ChunkCache {
 public:
  /// `capacity_bytes` = 0 disables the cache (all ops become no-ops).
  explicit ChunkCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Mirrors eviction counts and occupancy into registry instruments (all
  /// may be null). Call before concurrent use; the owning ChunkStore does
  /// so in its constructor.
  void AttachMetrics(common::Counter* evictions[4],
                     common::Gauge* bytes_used);

  bool enabled() const { return capacity_ > 0; }

  /// Versioned hit: shared ownership of the cached payload when the entry's
  /// commit version is <= `max_version`, nullptr otherwise. Because entries
  /// always track a chunk's LAST committed state (commits write through,
  /// deallocations erase), an entry whose version predates a pinned view is
  /// exactly the state that view observes; a current-state read passes
  /// UINT64_MAX. Payloads are immutable once inserted (replacement swaps in
  /// a NEW buffer), so a returned handle stays valid bytes even if the
  /// entry is evicted or replaced a nanosecond later — which is what makes
  /// concurrent readers safe, at one map lookup plus one refcount bump.
  std::shared_ptr<const Buffer> Lookup(ChunkId cid, uint64_t max_version);

  /// Inserts or replaces the entry for `cid`, evicting LRU entries to fit.
  /// Payloads that alone exceed the budget are not cached (but still
  /// replace — i.e. erase — any stale entry under the same id).
  /// `version` is the store's commit version at insertion; it gates
  /// Lookup.
  void Put(ChunkId cid, Slice data, uint64_t version);

  /// Drops the entry for `cid` if present, attributing the eviction to
  /// `cause` (only counted when an entry was actually present).
  void Erase(ChunkId cid, EvictCause cause);

  /// Drops everything.
  void Clear();

  size_t size_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  size_t entry_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  /// All evictions regardless of cause (the pre-cause compatibility view —
  /// which previously undercounted by missing every non-capacity cause).
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_.total();
  }
  CacheEvictionCounts eviction_counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  // Per-entry bookkeeping overhead charged against the budget, so millions
  // of tiny chunks cannot blow past the nominal byte cap.
  static constexpr size_t kEntryOverhead = 64;

  struct Entry {
    // Shared so Lookup can hand out the payload without copying; never
    // mutated after insertion (replacement allocates anew).
    std::shared_ptr<const Buffer> data;
    uint64_t version = 0;
    std::list<ChunkId>::iterator lru_pos;
  };

  size_t Charge(const Buffer& data) const {
    return data.size() + kEntryOverhead;
  }
  void EvictToFit(size_t incoming_charge);      // Requires mu_.
  bool EraseLocked(ChunkId cid);                // Requires mu_.
  void CountEvictionLocked(EvictCause cause);   // Requires mu_.
  void MirrorSizeLocked();                      // Requires mu_.

  mutable std::mutex mu_;
  std::unordered_map<ChunkId, Entry> entries_;
  std::list<ChunkId> lru_;  // Front = most recently used.
  size_t capacity_;
  size_t size_ = 0;
  CacheEvictionCounts counts_;
  common::Counter* evict_metrics_[4] = {nullptr, nullptr, nullptr, nullptr};
  common::Gauge* bytes_used_metric_ = nullptr;
};

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_CHUNK_CACHE_H_
