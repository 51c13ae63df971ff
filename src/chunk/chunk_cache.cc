#include "chunk/chunk_cache.h"

namespace tdb::chunk {

void ChunkCache::AttachMetrics(common::Counter* evictions[4],
                               common::Gauge* bytes_used) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < 4; i++) evict_metrics_[i] = evictions[i];
  bytes_used_metric_ = bytes_used;
}

std::shared_ptr<const Buffer> ChunkCache::Lookup(ChunkId cid,
                                                 uint64_t max_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(cid);
  if (it == entries_.end() || it->second.version > max_version) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.data;
}

void ChunkCache::Put(ChunkId cid, Slice data, uint64_t version) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Replace-or-erase: a stale entry under this id must never survive, even
  // when the new payload itself is too large to cache. Replacement is not
  // an eviction — the entry's chunk is still cached (or superseded), so it
  // does not distort the hit-ratio denominators.
  EraseLocked(cid);
  auto payload = std::make_shared<const Buffer>(data.ToBuffer());
  const size_t charge = Charge(*payload);
  if (charge > capacity_) {
    MirrorSizeLocked();
    return;
  }
  EvictToFit(charge);
  lru_.push_front(cid);
  entries_[cid] = Entry{std::move(payload), version, lru_.begin()};
  size_ += charge;
  MirrorSizeLocked();
}

void ChunkCache::Erase(ChunkId cid, EvictCause cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (EraseLocked(cid)) {
    CountEvictionLocked(cause);
    MirrorSizeLocked();
  }
}

bool ChunkCache::EraseLocked(ChunkId cid) {
  auto it = entries_.find(cid);
  if (it == entries_.end()) return false;
  size_ -= Charge(*it->second.data);
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  return true;
}

void ChunkCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  size_ = 0;
  MirrorSizeLocked();
}

void ChunkCache::EvictToFit(size_t incoming_charge) {
  while (size_ + incoming_charge > capacity_ && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    size_ -= Charge(*it->second.data);
    entries_.erase(it);
    lru_.pop_back();
    CountEvictionLocked(EvictCause::kCapacity);
  }
}

void ChunkCache::CountEvictionLocked(EvictCause cause) {
  switch (cause) {
    case EvictCause::kCapacity: counts_.capacity++; break;
    case EvictCause::kDealloc: counts_.dealloc++; break;
    case EvictCause::kFailedCommit: counts_.failed_commit++; break;
    case EvictCause::kRelocation: counts_.relocation++; break;
  }
  common::Counter* c = evict_metrics_[static_cast<int>(cause)];
  if (c != nullptr) c->Increment();
}

void ChunkCache::MirrorSizeLocked() {
  if (bytes_used_metric_ != nullptr) {
    bytes_used_metric_->Set(static_cast<int64_t>(size_));
  }
}

}  // namespace tdb::chunk
