#ifndef TDB_OBJECT_LOCK_MANAGER_H_
#define TDB_OBJECT_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <list>
#include <map>
#include <mutex>
#include <set>

#include "common/metrics.h"
#include "common/status.h"
#include "object/object.h"

namespace tdb::object {

using TxnId = uint64_t;

/// Shared/exclusive object locks with strict two-phase locking (§4.2.3):
/// locks are acquired as objects are opened and released only at
/// transaction end. Deadlocks are broken by timeout — "a blocked call
/// raises an exception after a timeout interval" — surfaced here as
/// Status::LockTimeout.
///
/// All methods must be called with the object store's state mutex held (as
/// a unique_lock); waits release it so other threads can make progress,
/// exactly the state-mutex protocol §4.2.3 describes.
///
/// A release hands each freed lock to the blocked requests it now admits,
/// oldest first, before any other thread can run. Without the handoff the
/// releasing thread could retake the lock in its next transaction ahead of
/// the waiter it woke, so two transactions that lock a pair in opposite
/// orders could time each other out indefinitely. A fresh request is
/// still granted whenever it is compatible with the current holders: it
/// never queues behind a blocked request, which would add wait edges (a
/// shared request compatible with the readers must not wait for a blocked
/// upgrader).
class LockManager {
 public:
  /// Wires contention instruments (all may be null). `acquisitions` counts
  /// every granted Lock call (the 2PL work a lock-free snapshot read
  /// avoids — tests assert it stays flat across read transactions),
  /// `waits` counts Lock calls that actually blocked, `timeouts` counts
  /// deadlock-breaking expirations, and `wait_us` records time spent
  /// blocked — only for calls that blocked, so percentiles describe
  /// contention events rather than being drowned by uncontended zero-wait
  /// acquisitions.
  void AttachMetrics(common::Counter* acquisitions, common::Counter* waits,
                     common::Counter* timeouts, common::Histogram* wait_us);

  /// Acquires a shared (read) or exclusive (write) lock on `oid` for
  /// `txn`. Re-entrant: a holder re-requesting a weaker-or-equal mode
  /// succeeds immediately; a sole shared holder upgrades to exclusive.
  Status Lock(TxnId txn, ObjectId oid, bool exclusive,
              std::unique_lock<std::mutex>& state_lock,
              std::chrono::milliseconds timeout);

  /// Releases every lock held by `txn`, grants the freed locks to the
  /// blocked requests they admit and wakes waiters.
  void ReleaseAll(TxnId txn);

  /// Introspection for tests.
  bool HoldsShared(TxnId txn, ObjectId oid) const;
  bool HoldsExclusive(TxnId txn, ObjectId oid) const;

 private:
  // A blocked Lock call; lives on the waiting thread's stack.
  struct Waiter {
    TxnId txn;
    bool exclusive;
    bool granted = false;  // Set by the release that handed the lock over.
  };

  struct LockState {
    std::set<TxnId> shared;
    TxnId exclusive = 0;  // 0 = none.
    std::list<Waiter*> waiters;  // Oldest first.
  };

  bool CanGrant(const LockState& state, TxnId txn, bool exclusive) const;
  void Grant(LockState& state, ObjectId oid, TxnId txn, bool exclusive);

  std::map<ObjectId, LockState> locks_;
  std::map<TxnId, std::set<ObjectId>> held_;
  // One CV for the whole table: DRM workloads have little lock contention
  // (§4.2.3 forgoes granular locking for the same reason).
  std::condition_variable cv_;
  common::Counter* acquisitions_metric_ = nullptr;
  common::Counter* waits_metric_ = nullptr;
  common::Counter* timeouts_metric_ = nullptr;
  common::Histogram* wait_us_metric_ = nullptr;
};

}  // namespace tdb::object

#endif  // TDB_OBJECT_LOCK_MANAGER_H_
