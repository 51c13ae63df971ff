#include "object/lock_manager.h"

namespace tdb::object {

void LockManager::AttachMetrics(common::Counter* acquisitions,
                                common::Counter* waits,
                                common::Counter* timeouts,
                                common::Histogram* wait_us) {
  acquisitions_metric_ = acquisitions;
  waits_metric_ = waits;
  timeouts_metric_ = timeouts;
  wait_us_metric_ = wait_us;
}

bool LockManager::CanGrant(const LockState& state, TxnId txn,
                           bool exclusive) const {
  if (state.exclusive != 0 && state.exclusive != txn) return false;
  if (!exclusive) return true;  // Shared: no foreign exclusive holder.
  // Exclusive: no foreign shared holders either (upgrade allowed only for
  // a sole shared holder).
  for (TxnId holder : state.shared) {
    if (holder != txn) return false;
  }
  return true;
}

void LockManager::Grant(LockState& state, ObjectId oid, TxnId txn,
                        bool exclusive) {
  if (exclusive) {
    state.exclusive = txn;
    state.shared.erase(txn);  // Upgrade consumes the shared lock.
  } else if (state.exclusive != txn) {
    state.shared.insert(txn);
  }
  held_[txn].insert(oid);
  if (acquisitions_metric_ != nullptr) acquisitions_metric_->Increment();
}

Status LockManager::Lock(TxnId txn, ObjectId oid, bool exclusive,
                         std::unique_lock<std::mutex>& state_lock,
                         std::chrono::milliseconds timeout) {
  // The entry outlives this call's wait: ReleaseAll keeps it while it has
  // waiters, and std::map references survive other insertions.
  LockState& state = locks_[oid];
  if (CanGrant(state, txn, exclusive)) {
    Grant(state, oid, txn, exclusive);
    return Status::OK();
  }
  if (waits_metric_ != nullptr) waits_metric_->Increment();
  const uint64_t wait_start_us = common::MonotonicMicros();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  Waiter waiter{txn, exclusive};
  state.waiters.push_back(&waiter);
  // Release the state mutex while waiting (§4.2.3), reacquire on wake. A
  // release grants the lock before waking us (see ReleaseAll).
  while (!waiter.granted &&
         cv_.wait_until(state_lock, deadline) != std::cv_status::timeout) {
  }
  if (wait_us_metric_ != nullptr) {
    wait_us_metric_->Record(
        static_cast<int64_t>(common::MonotonicMicros() - wait_start_us));
  }
  if (waiter.granted) return Status::OK();
  state.waiters.remove(&waiter);
  if (timeouts_metric_ != nullptr) timeouts_metric_->Increment();
  return Status::LockTimeout("lock on object " + std::to_string(oid) +
                             " (possible deadlock)");
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (ObjectId oid : it->second) {
    auto lock_it = locks_.find(oid);
    if (lock_it == locks_.end()) continue;
    LockState& state = lock_it->second;
    state.shared.erase(txn);
    if (state.exclusive == txn) state.exclusive = 0;
    // Hand the freed lock to every blocked request it now admits, oldest
    // first, so no fresh request can take it ahead of them.
    for (auto w = state.waiters.begin(); w != state.waiters.end();) {
      Waiter* waiter = *w;
      if (CanGrant(state, waiter->txn, waiter->exclusive)) {
        Grant(state, oid, waiter->txn, waiter->exclusive);
        waiter->granted = true;
        w = state.waiters.erase(w);
      } else {
        ++w;
      }
    }
    if (state.shared.empty() && state.exclusive == 0 &&
        state.waiters.empty()) {
      locks_.erase(lock_it);
    }
  }
  held_.erase(it);
  cv_.notify_all();
}

bool LockManager::HoldsShared(TxnId txn, ObjectId oid) const {
  auto it = locks_.find(oid);
  return it != locks_.end() && it->second.shared.count(txn) > 0;
}

bool LockManager::HoldsExclusive(TxnId txn, ObjectId oid) const {
  auto it = locks_.find(oid);
  return it != locks_.end() && it->second.exclusive == txn;
}

}  // namespace tdb::object
