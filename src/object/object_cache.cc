#include "object/object_cache.h"

#include "common/check.h"

namespace tdb::object {

void ObjectCache::AttachMetrics(common::Counter* hits,
                                common::Counter* misses,
                                common::Counter* evictions,
                                common::Gauge* bytes_used,
                                common::Gauge* capacity_bytes,
                                common::Gauge* unevictable_bytes) {
  hits_metric_ = hits;
  misses_metric_ = misses;
  evictions_metric_ = evictions;
  bytes_used_metric_ = bytes_used;
  unevictable_metric_ = unevictable_bytes;
  if (capacity_bytes != nullptr) {
    capacity_bytes->Set(static_cast<int64_t>(capacity_));
  }
}

Object* ObjectCache::Put(ObjectId oid, std::unique_ptr<Object> object,
                         bool dirty) {
  Erase(oid);
  Entry entry;
  entry.charge = object->ApproxSize() + 64;  // Entry bookkeeping overhead.
  entry.generation = ++next_generation_;
  entry.object = std::move(object);
  entry.dirty = dirty;
  entry.evictable = !dirty;
  if (dirty) {
    entry.pos = held_.insert(held_.end(), oid);
    unevictable_ += entry.charge;
    MirrorUnevictable();
  } else {
    lru_.push_front(oid);
    entry.pos = lru_.begin();
  }
  size_ += entry.charge;
  Object* raw = entry.object.get();
  entries_.emplace(oid, std::move(entry));
  MirrorSize();
  return raw;
}

Object* ObjectCache::Get(ObjectId oid) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return nullptr;
  stats_.hits++;
  if (hits_metric_ != nullptr) hits_metric_->Increment();
  Entry& entry = it->second;
  if (entry.evictable) lru_.splice(lru_.begin(), lru_, entry.pos);
  return entry.object.get();
}

void ObjectCache::Relink(Entry& entry) {
  const bool evictable = entry.pins == 0 && !entry.dirty;
  if (evictable == entry.evictable) return;
  entry.evictable = evictable;
  if (evictable) {
    lru_.splice(lru_.begin(), held_, entry.pos);
    unevictable_ -= entry.charge;
  } else {
    held_.splice(held_.end(), lru_, entry.pos);
    unevictable_ += entry.charge;
  }
  MirrorUnevictable();
}

uint64_t ObjectCache::Pin(ObjectId oid) {
  auto it = entries_.find(oid);
  TDB_CHECK(it != entries_.end(), "pin of uncached object");
  it->second.pins++;
  Relink(it->second);
  return it->second.generation;
}

void ObjectCache::Unpin(ObjectId oid, uint64_t generation) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return;  // Erased by an abort; nothing to do.
  if (it->second.generation != generation) {
    // Erased by an abort, then re-fetched: the pinned entry is gone and
    // this release must not touch its replacement's pin count.
    return;
  }
  TDB_DCHECK(it->second.pins > 0);
  if (it->second.pins > 0) it->second.pins--;
  Relink(it->second);
}

void ObjectCache::SetDirty(ObjectId oid, bool dirty) {
  auto it = entries_.find(oid);
  TDB_CHECK(it != entries_.end(), "dirty mark of uncached object");
  it->second.dirty = dirty;
  Relink(it->second);
}

bool ObjectCache::IsDirty(ObjectId oid) const {
  auto it = entries_.find(oid);
  return it != entries_.end() && it->second.dirty;
}

void ObjectCache::Erase(ObjectId oid) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  size_ -= entry.charge;
  if (entry.evictable) {
    lru_.erase(entry.pos);
  } else {
    held_.erase(entry.pos);
    unevictable_ -= entry.charge;
    MirrorUnevictable();
  }
  entries_.erase(it);
  MirrorSize();
}

void ObjectCache::EnforceCapacity() {
  if (size_ <= capacity_) return;
  // Everything on lru_ is evictable: pop from the tail, never skip.
  while (size_ > capacity_ && !lru_.empty()) {
    auto entry_it = entries_.find(lru_.back());
    TDB_DCHECK(entry_it != entries_.end());
    size_ -= entry_it->second.charge;
    lru_.pop_back();
    entries_.erase(entry_it);
    stats_.evictions++;
    if (evictions_metric_ != nullptr) evictions_metric_->Increment();
  }
  MirrorSize();
}

}  // namespace tdb::object
