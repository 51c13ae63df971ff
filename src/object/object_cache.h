#ifndef TDB_OBJECT_OBJECT_CACHE_H_
#define TDB_OBJECT_OBJECT_CACHE_H_

#include <list>
#include <map>
#include <memory>

#include "common/metrics.h"
#include "object/object.h"

namespace tdb::object {

/// In-memory cache of unpickled objects, indexed by object id (§4.2.2).
/// Objects here are "ready for direct access by the application: decrypted,
/// validated, unpickled, and type checked". LRU eviction; entries are
/// exempt while pinned (live Refs) or dirty (no-steal: modified objects
/// stay cached until their transaction commits, §4.2.2).
///
/// Only evictable entries (clean and unpinned) sit on the LRU list; dirty
/// or pinned ones wait on a side list until they become evictable again,
/// when they rejoin at the most-recent end. Eviction therefore pops the
/// LRU tail in O(1) and never rescans a transaction's dirty set, however
/// far that set over-commits the capacity. An entry's recency is the later
/// of its last Get/Put and the moment it last became evictable.
///
/// Not thread-safe; the object store's state mutex serializes access.
class ObjectCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  explicit ObjectCache(size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Mirrors hit/miss/eviction tallies, occupancy, the capacity and the
  /// unevictable (dirty or pinned) bytes into registry instruments (all
  /// may be null). The local Stats struct stays the source of truth for
  /// existing callers; the registry gets the same increments so one
  /// snapshot covers the whole database instance.
  void AttachMetrics(common::Counter* hits, common::Counter* misses,
                     common::Counter* evictions, common::Gauge* bytes_used,
                     common::Gauge* capacity_bytes,
                     common::Gauge* unevictable_bytes);

  /// Inserts (or replaces) the cached instance for `oid`.
  Object* Put(ObjectId oid, std::unique_ptr<Object> object, bool dirty);

  /// Returns the cached instance or nullptr. A hit on an evictable entry
  /// moves it to the LRU head; a dirty or pinned entry moves there when it
  /// becomes evictable.
  Object* Get(ObjectId oid);

  bool Contains(ObjectId oid) const { return entries_.count(oid) > 0; }

  /// Pin/unpin: pinned entries cannot be evicted. Pins come from live Refs.
  /// Pin returns the entry's generation (stamped at Put); Unpin releases
  /// only if the entry still has that generation. An abort can Erase a
  /// pinned entry and a later fetch re-Put the same oid — a stale Ref's
  /// release must not steal the replacement entry's pin.
  uint64_t Pin(ObjectId oid);
  void Unpin(ObjectId oid, uint64_t generation);

  /// Marks an entry dirty (pinned by the no-steal policy) or clean.
  void SetDirty(ObjectId oid, bool dirty);
  bool IsDirty(ObjectId oid) const;

  /// Drops an entry regardless of state (transaction abort path). Pins are
  /// forgotten — callers must not touch the object afterwards.
  void Erase(ObjectId oid);

  /// Evicts least-recent evictable entries until within capacity. The
  /// cache stays over capacity only when every remaining entry is dirty
  /// or pinned (a write set larger than the cache, or leaked pins).
  void EnforceCapacity();

  size_t size_bytes() const { return size_; }
  /// Bytes of dirty or pinned entries, which no eviction can reclaim.
  size_t unevictable_bytes() const { return unevictable_; }
  size_t entry_count() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }
  void CountMiss() {
    stats_.misses++;
    if (misses_metric_ != nullptr) misses_metric_->Increment();
  }

 private:
  struct Entry {
    std::unique_ptr<Object> object;
    size_t charge = 0;
    int pins = 0;
    uint64_t generation = 0;
    bool dirty = false;
    bool evictable = false;  // On lru_ (else on held_).
    std::list<ObjectId>::iterator pos;
  };

  // Splices `entry` between lru_ and held_ if its evictability changed.
  void Relink(Entry& entry);

  void MirrorSize() {
    if (bytes_used_metric_ != nullptr) {
      bytes_used_metric_->Set(static_cast<int64_t>(size_));
    }
  }
  void MirrorUnevictable() {
    if (unevictable_metric_ != nullptr) {
      unevictable_metric_->Set(static_cast<int64_t>(unevictable_));
    }
  }

  std::map<ObjectId, Entry> entries_;
  uint64_t next_generation_ = 0;
  // Evictable entries, front = most recently used. Dirty or pinned entries
  // live on held_ (in no particular order); moving between the two is a
  // splice, so list nodes are allocated once per Put.
  std::list<ObjectId> lru_;
  std::list<ObjectId> held_;
  size_t capacity_;
  size_t size_ = 0;
  size_t unevictable_ = 0;
  Stats stats_;
  common::Counter* hits_metric_ = nullptr;
  common::Counter* misses_metric_ = nullptr;
  common::Counter* evictions_metric_ = nullptr;
  common::Gauge* bytes_used_metric_ = nullptr;
  common::Gauge* unevictable_metric_ = nullptr;
};

}  // namespace tdb::object

#endif  // TDB_OBJECT_OBJECT_CACHE_H_
