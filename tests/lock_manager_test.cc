// Direct unit tests of the strict-2PL lock manager (§4.2.3); the
// transactional suites cover it end to end, these pin the table mechanics.

#include "object/lock_manager.h"

#include <gtest/gtest.h>

#include <thread>

namespace tdb::object {
namespace {

using namespace std::chrono_literals;

class LockManagerTest : public ::testing::Test {
 protected:
  Status Lock(TxnId txn, ObjectId oid, bool exclusive,
              std::chrono::milliseconds timeout = 50ms) {
    std::unique_lock<std::mutex> guard(mutex_);
    return locks_.Lock(txn, oid, exclusive, guard, timeout);
  }

  std::mutex mutex_;
  LockManager locks_;
};

TEST_F(LockManagerTest, SharedLocksCoexist) {
  ASSERT_TRUE(Lock(1, 100, false).ok());
  ASSERT_TRUE(Lock(2, 100, false).ok());
  EXPECT_TRUE(locks_.HoldsShared(1, 100));
  EXPECT_TRUE(locks_.HoldsShared(2, 100));
}

TEST_F(LockManagerTest, ExclusiveExcludesEverything) {
  ASSERT_TRUE(Lock(1, 100, true).ok());
  EXPECT_TRUE(Lock(2, 100, false).IsLockTimeout());
  EXPECT_TRUE(Lock(2, 100, true).IsLockTimeout());
}

TEST_F(LockManagerTest, SharedBlocksExclusive) {
  ASSERT_TRUE(Lock(1, 100, false).ok());
  EXPECT_TRUE(Lock(2, 100, true).IsLockTimeout());
}

TEST_F(LockManagerTest, ReentrantAndUpgrade) {
  ASSERT_TRUE(Lock(1, 100, false).ok());
  ASSERT_TRUE(Lock(1, 100, false).ok());  // Re-request shared.
  ASSERT_TRUE(Lock(1, 100, true).ok());   // Sole holder upgrades.
  EXPECT_TRUE(locks_.HoldsExclusive(1, 100));
  EXPECT_FALSE(locks_.HoldsShared(1, 100));  // Upgrade consumed it.
  ASSERT_TRUE(Lock(1, 100, false).ok());  // Shared under own exclusive: ok.
  ASSERT_TRUE(Lock(1, 100, true).ok());   // Re-request exclusive: ok.
}

TEST_F(LockManagerTest, UpgradeBlockedByOtherReader) {
  ASSERT_TRUE(Lock(1, 100, false).ok());
  ASSERT_TRUE(Lock(2, 100, false).ok());
  EXPECT_TRUE(Lock(1, 100, true).IsLockTimeout());
}

TEST_F(LockManagerTest, ReleaseAllWakesWaiters) {
  ASSERT_TRUE(Lock(1, 100, true).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(30ms);
    std::lock_guard<std::mutex> guard(mutex_);
    locks_.ReleaseAll(1);
  });
  // Waits under the state mutex, which Lock releases while blocked.
  EXPECT_TRUE(Lock(2, 100, true, 2000ms).ok());
  releaser.join();
  EXPECT_TRUE(locks_.HoldsExclusive(2, 100));
}

// Blocks until `count` Lock calls have blocked. A waiter counts itself and
// joins the queue before it releases the state mutex, so once the count is
// seen, taking the mutex means every such waiter is queued.
void AwaitWaits(const common::Counter& waits, int64_t count) {
  while (waits.value() < count) std::this_thread::sleep_for(1ms);
}

TEST_F(LockManagerTest, ReleaseHandsLockToWaiterBeforeFreshRequests) {
  common::Counter waits;
  locks_.AttachMetrics(nullptr, &waits, nullptr, nullptr);
  ASSERT_TRUE(Lock(1, 100, true).ok());
  Status waited;
  std::thread waiter([&] { waited = Lock(2, 100, true, 5000ms); });
  AwaitWaits(waits, 1);
  {
    std::unique_lock<std::mutex> guard(mutex_);
    locks_.ReleaseAll(1);
    // Txn 1 aborts and retries before the woken waiter runs: the lock is
    // already the waiter's, so the retry cannot barge in.
    EXPECT_TRUE(locks_.HoldsExclusive(2, 100));
    EXPECT_TRUE(locks_.Lock(3, 100, true, guard, 0ms).IsLockTimeout());
  }
  waiter.join();
  EXPECT_TRUE(waited.ok()) << waited.ToString();
}

TEST_F(LockManagerTest, ReleaseGrantsEveryAdmittedWaiter) {
  common::Counter waits;
  locks_.AttachMetrics(nullptr, &waits, nullptr, nullptr);
  ASSERT_TRUE(Lock(1, 100, true).ok());
  Status first, second;
  std::thread reader1([&] { first = Lock(2, 100, false, 5000ms); });
  std::thread reader2([&] { second = Lock(3, 100, false, 5000ms); });
  AwaitWaits(waits, 2);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    locks_.ReleaseAll(1);
    EXPECT_TRUE(locks_.HoldsShared(2, 100));
    EXPECT_TRUE(locks_.HoldsShared(3, 100));
  }
  reader1.join();
  reader2.join();
  EXPECT_TRUE(first.ok());
  EXPECT_TRUE(second.ok());
}

// A shared request compatible with the current readers is granted at once
// even while an upgrader is blocked: queueing it behind the upgrader would
// add a wait edge that can close a deadlock cycle.
TEST_F(LockManagerTest, SharedRequestDoesNotQueueBehindBlockedUpgrader) {
  common::Counter waits;
  locks_.AttachMetrics(nullptr, &waits, nullptr, nullptr);
  ASSERT_TRUE(Lock(1, 100, false).ok());
  ASSERT_TRUE(Lock(2, 100, false).ok());
  Status upgraded;
  std::thread upgrader([&] { upgraded = Lock(2, 100, true, 5000ms); });
  AwaitWaits(waits, 1);
  EXPECT_TRUE(Lock(3, 100, false, 0ms).ok());
  {
    std::lock_guard<std::mutex> guard(mutex_);
    locks_.ReleaseAll(1);
    EXPECT_FALSE(locks_.HoldsExclusive(2, 100));  // Txn 3 still reads.
    locks_.ReleaseAll(3);
    EXPECT_TRUE(locks_.HoldsExclusive(2, 100));
  }
  upgrader.join();
  EXPECT_TRUE(upgraded.ok()) << upgraded.ToString();
}

TEST_F(LockManagerTest, TimedOutWaiterIsNotGrantedLater) {
  ASSERT_TRUE(Lock(1, 100, true).ok());
  EXPECT_TRUE(Lock(2, 100, true, 10ms).IsLockTimeout());
  {
    std::lock_guard<std::mutex> guard(mutex_);
    locks_.ReleaseAll(1);
  }
  EXPECT_FALSE(locks_.HoldsExclusive(2, 100));
  EXPECT_TRUE(Lock(3, 100, true, 0ms).ok());
}

TEST_F(LockManagerTest, ReleaseAllDropsEveryLockOfTxn) {
  ASSERT_TRUE(Lock(1, 100, true).ok());
  ASSERT_TRUE(Lock(1, 101, false).ok());
  {
    std::lock_guard<std::mutex> guard(mutex_);
    locks_.ReleaseAll(1);
  }
  EXPECT_FALSE(locks_.HoldsExclusive(1, 100));
  EXPECT_FALSE(locks_.HoldsShared(1, 101));
  EXPECT_TRUE(Lock(2, 100, true).ok());
  EXPECT_TRUE(Lock(2, 101, true).ok());
}

TEST_F(LockManagerTest, IndependentObjectsDoNotInterfere) {
  ASSERT_TRUE(Lock(1, 100, true).ok());
  EXPECT_TRUE(Lock(2, 200, true).ok());
}

TEST_F(LockManagerTest, ReleaseOfUnknownTxnIsNoop) {
  std::lock_guard<std::mutex> guard(mutex_);
  locks_.ReleaseAll(42);  // Must not crash.
}

}  // namespace
}  // namespace tdb::object
