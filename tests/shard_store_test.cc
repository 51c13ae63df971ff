// Tests for the sharded chunk store (src/shard): routing, the N == 1
// pass-through, config-record layout pinning, two-phase cross-shard
// commit, tamper-evident decision chains, in-doubt recovery, aggregate
// stats, and the object store running unchanged over the router.
#include "shard/sharded_chunk_store.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/random.h"
#include "harness/layer.h"
#include "object/object_store.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/prefix_store.h"
#include "platform/secret_store.h"

namespace tdb::shard {
namespace {

using platform::FaultInjectingStore;
using platform::MemOneWayCounter;
using platform::MemSecretStore;
using platform::MemUntrustedStore;
using platform::PrefixedStore;

chunk::ChunkStoreOptions SmallSegments() {
  chunk::ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 4 * 1024;
  options.map_fanout = 8;
  return options;
}

// N independent shard substrates (the production shape: one device per
// shard) sharing one secret store.
struct ShardedEnv {
  std::vector<std::unique_ptr<MemUntrustedStore>> stores;
  std::vector<std::unique_ptr<MemOneWayCounter>> counters;
  MemSecretStore secrets;

  explicit ShardedEnv(int n) {
    TDB_CHECK(secrets.Provision(Slice("test-master-secret")).ok());
    for (int k = 0; k < n; k++) {
      stores.push_back(std::make_unique<MemUntrustedStore>());
      counters.push_back(std::make_unique<MemOneWayCounter>());
    }
  }

  std::vector<ShardBackend> Backends() {
    std::vector<ShardBackend> backends;
    for (size_t k = 0; k < stores.size(); k++) {
      backends.push_back({stores[k].get(), &secrets, counters[k].get()});
    }
    return backends;
  }

  Result<std::unique_ptr<ShardedChunkStore>> Open(
      chunk::ChunkStoreOptions options = SmallSegments()) {
    return ShardedChunkStore::Open(Backends(), options);
  }
};

// Allocates ids from `router` until one lands on each of shards {0, 1}.
void TwoShardIds(ShardedChunkStore* router, chunk::ChunkId* on0,
                 chunk::ChunkId* on1) {
  *on0 = 0;
  *on1 = 0;
  while (*on0 == 0 || *on1 == 0) {
    chunk::ChunkId cid = router->AllocateChunkId();
    if (router->ShardOf(cid) == 0 && *on0 == 0) *on0 = cid;
    if (router->ShardOf(cid) == 1 && *on1 == 0) *on1 = cid;
  }
}

// ------------------------------------------------------------ pass-through

TEST(ShardedStoreTest, SingleShardImageIsBitIdenticalToPlainStore) {
  // The same op sequence against a plain ChunkStore and a 1-shard router
  // must produce byte-identical images: the router writes no config
  // record and no reserved chunks, and delegates ids to the shard.
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  MemUntrustedStore plain_store, routed_store;
  MemOneWayCounter plain_counter, routed_counter;

  auto run = [&](chunk::ChunkStoreInterface* cs) {
    Random rng(42);
    std::vector<chunk::ChunkId> ids;
    for (int c = 0; c < 8; c++) {
      chunk::WriteBatch batch;
      for (int i = 0; i < 3; i++) {
        chunk::ChunkId cid = cs->AllocateChunkId();
        ids.push_back(cid);
        Buffer data;
        rng.Fill(&data, 64 + 32 * i);
        batch.Write(cid, data);
      }
      if (c == 5) batch.Deallocate(ids[2]);
      ASSERT_TRUE(cs->Commit(batch, c % 2 == 0).ok());
    }
    ASSERT_TRUE(cs->Checkpoint().ok());
    ASSERT_TRUE(cs->Close().ok());
  };

  {
    auto cs =
        chunk::ChunkStore::Open(&plain_store, &secrets, &plain_counter,
                                SmallSegments());
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    run(cs->get());
  }
  {
    auto router = ShardedChunkStore::Open(
        {{&routed_store, &secrets, &routed_counter}}, SmallSegments());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    run(router->get());
  }

  MemUntrustedStore::Image plain = plain_store.SnapshotImage();
  MemUntrustedStore::Image routed = routed_store.SnapshotImage();
  ASSERT_EQ(plain.size(), routed.size());
  for (const auto& [name, bytes] : plain) {
    auto it = routed.find(name);
    ASSERT_TRUE(it != routed.end()) << "missing file " << name;
    EXPECT_TRUE(bytes == it->second) << "file " << name << " differs";
  }
}

// --------------------------------------------------------- config records

TEST(ShardedStoreTest, ReopenWithDifferentShardCountFailsLoudly) {
  ShardedEnv env(2);
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    chunk::ChunkId cid = (*router)->AllocateChunkId();
    ASSERT_TRUE((*router)->Write(cid, Slice("payload"), true).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
  // As one shard: the shard-0 config says count=2.
  {
    auto router = ShardedChunkStore::Open(
        {{env.stores[0].get(), &env.secrets, env.counters[0].get()}},
        SmallSegments());
    ASSERT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  // As three shards (two real, one fresh).
  {
    MemUntrustedStore extra_store;
    MemOneWayCounter extra_counter;
    auto backends = env.Backends();
    backends.push_back({&extra_store, &env.secrets, &extra_counter});
    auto router = ShardedChunkStore::Open(backends, SmallSegments());
    ASSERT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  // Permuted backends: each shard holds the other's image.
  {
    auto backends = env.Backends();
    std::swap(backends[0], backends[1]);
    auto router = ShardedChunkStore::Open(backends, SmallSegments());
    ASSERT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  // Unchanged layout still opens.
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Close().ok());
  }
}

TEST(ShardedStoreTest, ReservedChunkIdsRejectedAtPublicApi) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  const chunk::ChunkId reserved = (1ull << 63) | 7;
  ASSERT_TRUE(ShardedChunkStore::IsRouterChunk(reserved));
  EXPECT_EQ((*router)->Write(reserved, Slice("x"), true).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ((*router)->Read(reserved).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_FALSE(
      ShardedChunkStore::IsRouterChunk((*router)->AllocateChunkId()));
  ASSERT_TRUE((*router)->Close().ok());
}

// ------------------------------------------------------ cross-shard commit

TEST(ShardedStoreTest, CrossShardCommitPersistsAndCounts) {
  ShardedEnv env(2);
  chunk::ChunkId on0 = 0, on1 = 0;
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok());
    TwoShardIds(router->get(), &on0, &on1);
    chunk::WriteBatch batch;
    batch.Write(on0, Slice("shard-zero"));
    batch.Write(on1, Slice("shard-one"));
    ASSERT_TRUE((*router)->Commit(batch, false).ok());  // Upgraded.
    RouterStats rs = (*router)->router_stats();
    EXPECT_EQ(rs.cross_shard_commits, 1u);
    EXPECT_EQ(rs.durability_upgrades, 1u);
    EXPECT_EQ(rs.cross_shard_aborts, 0u);
    ASSERT_TRUE((*router)->Close().ok());
  }
  auto router = env.Open();
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(), "shard-zero");
  EXPECT_EQ(Slice(*(*router)->Read(on1)).ToString(), "shard-one");
  // Committed cleanly: nothing was in doubt at reopen.
  RouterStats rs = (*router)->router_stats();
  EXPECT_EQ(rs.recovered_commits + rs.recovered_aborts, 0u);
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, EmptyBatch2pcWritesNoDecisionRecord) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::WriteBatch empty;
  ASSERT_TRUE((*router)->Commit(empty, true).ok());
  EXPECT_EQ((*router)->router_stats().cross_shard_commits, 0u);
  // No transaction ran: neither shard holds staging or decision chunks.
  for (int k = 0; k < 2; k++) {
    for (uint64_t txn = 1; txn <= 4; txn++) {
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::StagingCid(txn))
                      .status()
                      .IsNotFound());
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::DecisionCid(txn))
                      .status()
                      .IsNotFound());
    }
  }
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, PinnedViewNeverSeesHalfACrossShardCommit) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  chunk::WriteBatch v1;
  v1.Write(on0, Slice("v1"));
  v1.Write(on1, Slice("v1"));
  ASSERT_TRUE((*router)->Commit(v1, true).ok());

  auto view = (*router)->PinView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  chunk::WriteBatch v2;
  v2.Write(on0, Slice("v2"));
  v2.Write(on1, Slice("v2"));
  ASSERT_TRUE((*router)->Commit(v2, true).ok());

  // The pre-commit view serves v1 from both shards; live reads serve v2.
  EXPECT_EQ(Slice(*(*router)->ReadAtView(**view, on0)).ToString(), "v1");
  EXPECT_EQ(Slice(*(*router)->ReadAtView(**view, on1)).ToString(), "v1");
  auto many = (*router)->ReadManyAtView(**view, {on1, on0});
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(Slice((*many)[0]).ToString(), "v1");
  EXPECT_EQ(Slice((*many)[1]).ToString(), "v1");
  EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(), "v2");
  EXPECT_EQ(Slice(*(*router)->Read(on1)).ToString(), "v2");
  ASSERT_TRUE((*router)->Close().ok());
}

// -------------------------------------------------- decision-chain tamper

TEST(ShardedStoreTest, ForgedDecisionRecordDetectedAtRecovery) {
  // Overwrite a committed decision record THROUGH a legitimate chunk-store
  // commit on the shard, so every chunk-layer check (payload hash, commit
  // manifest MAC, counter) passes. Only the router's 2PC decision chain
  // can catch it.
  ShardedEnv env(2);
  chunk::ChunkId on0 = 0, on1 = 0;
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok());
    TwoShardIds(router->get(), &on0, &on1);
    chunk::WriteBatch batch;
    batch.Write(on0, Slice("a"));
    batch.Write(on1, Slice("b"));
    ASSERT_TRUE((*router)->Commit(batch, true).ok());  // txn 1.
    ASSERT_TRUE((*router)->Close().ok());
  }
  const chunk::ChunkId decision = ShardedChunkStore::DecisionCid(1);
  {
    auto cs = chunk::ChunkStore::Open(env.stores[0].get(), &env.secrets,
                                      env.counters[0].get(), SmallSegments());
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    auto record = (*cs)->Read(decision);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    Buffer forged = *record;
    forged[forged.size() / 2] ^= 0x40;
    ASSERT_TRUE((*cs)->Write(decision, Slice(forged), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = ShardedChunkStore::Open(env.Backends(), options);
  ASSERT_FALSE(router.ok());
  EXPECT_TRUE(router.status().IsTamperDetected())
      << router.status().ToString();
  EXPECT_GE(registry->audit().size(), 1u);
}

TEST(ShardedStoreTest, ReplayedDecisionChainDetectedAtRecovery) {
  // Deleting a later decision record (rolling the chain back) must break
  // chain verification too — e.g. via a staging chunk that outlived its
  // decision, or a prepare whose chain link points past the tail.
  ShardedEnv env(2);
  chunk::ChunkId on0 = 0, on1 = 0;
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok());
    TwoShardIds(router->get(), &on0, &on1);
    for (int round = 0; round < 2; round++) {  // txns 1 and 2.
      chunk::WriteBatch batch;
      batch.Write(on0, Slice("round"));
      batch.Write(on1, Slice("round"));
      ASSERT_TRUE((*router)->Commit(batch, true).ok());
    }
    ASSERT_TRUE((*router)->Close().ok());
  }
  {
    auto cs = chunk::ChunkStore::Open(env.stores[0].get(), &env.secrets,
                                      env.counters[0].get(), SmallSegments());
    ASSERT_TRUE(cs.ok());
    // Forge txn 2's decision into a copy of txn 1's (a "replayed"
    // coordinator decision): the chain MAC binds position, so this fails.
    auto first = (*cs)->Read(ShardedChunkStore::DecisionCid(1));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(
        (*cs)
            ->Write(ShardedChunkStore::DecisionCid(2), Slice(*first), true)
            .ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto router = env.Open();
  ASSERT_FALSE(router.ok());
  EXPECT_TRUE(router.status().IsTamperDetected())
      << router.status().ToString();
}

// ----------------------------------------------------- in-doubt recovery

TEST(ShardedStoreTest, InDoubt2pcResolvesAllOrNothing) {
  // Crash at every write index inside a cross-shard commit window (both
  // shards behind ONE fault injector so the index is global) and check
  // the transaction is recovered atomically: both shards or neither.
  bool saw_commit = false, saw_abort = false;
  for (uint64_t point = 0;; point++) {
    MemUntrustedStore base;
    FaultInjectingStore faulty(&base);
    PrefixedStore s0("s0/", &faulty), s1("s1/", &faulty);
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    MemOneWayCounter c0, c1;
    std::vector<ShardBackend> backends = {{&s0, &secrets, &c0},
                                          {&s1, &secrets, &c1}};
    chunk::ChunkId on0 = 0, on1 = 0;
    bool crashed = false;
    // Serial coordinator: the sweep enumerates crash points by the GLOBAL
    // write index, so the 2PC write order must be deterministic (and the
    // fault injector is deliberately unsynchronized).
    chunk::ChunkStoreOptions options = SmallSegments();
    options.txn_coordinator_threads = 0;
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      TwoShardIds(router->get(), &on0, &on1);
      chunk::WriteBatch before;
      before.Write(on0, Slice("base0"));
      before.Write(on1, Slice("base1"));
      ASSERT_TRUE((*router)->Commit(before, true).ok());

      faulty.CrashAtWrite(point, 4, 4);
      chunk::WriteBatch txn;
      txn.Write(on0, Slice("txn0"));
      txn.Write(on1, Slice("txn1"));
      Status status = (*router)->Commit(txn, true);
      crashed = faulty.crashed();
      ASSERT_TRUE(status.ok() || crashed) << status.ToString();
      if (!crashed) {
        // Past the end of the commit's write window: sweep complete.
        EXPECT_TRUE(saw_commit);
        EXPECT_TRUE(saw_abort);
        return;
      }
      (void)router->get();  // Drop without Close.
    }
    faulty.Reboot();
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "crash point " << point << ": " << router.status().ToString();
    auto v0 = (*router)->Read(on0);
    auto v1 = (*router)->Read(on1);
    ASSERT_TRUE(v0.ok() && v1.ok());
    const bool applied0 = Slice(*v0).ToString() == "txn0";
    const bool applied1 = Slice(*v1).ToString() == "txn1";
    EXPECT_EQ(applied0, applied1)
        << "crash point " << point << " tore the cross-shard commit";
    if (!applied0) {
      EXPECT_EQ(Slice(*v0).ToString(), "base0");
      EXPECT_EQ(Slice(*v1).ToString(), "base1");
    }
    RouterStats rs = (*router)->router_stats();
    saw_commit = saw_commit || rs.recovered_commits > 0;
    saw_abort = saw_abort || rs.recovered_aborts > 0;
    if (rs.recovered_commits > 0) {
      EXPECT_TRUE(applied0);
    }
    // A fresh cross-shard commit must work on top of the recovered chain.
    chunk::WriteBatch after;
    after.Write(on0, Slice("after"));
    after.Write(on1, Slice("after"));
    ASSERT_TRUE((*router)->Commit(after, true).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
}

// ----------------------------------------------- coordinator failure paths

// Fails every Write() while armed — a shard device that starts rejecting
// appends mid-2PC. Not thread-safe; pair with txn_coordinator_threads = 0.
class WriteFailStore final : public platform::UntrustedStore {
 public:
  explicit WriteFailStore(platform::UntrustedStore* base) : base_(base) {}
  void Arm() { armed_ = true; }
  void Disarm() { armed_ = false; }

  Status Create(const std::string& name, bool overwrite) override {
    return base_->Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    return base_->Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    if (armed_) return Status::IOError("injected write failure");
    return base_->Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_->Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_->Truncate(name, size);
  }
  Status Sync(const std::string& name) override { return base_->Sync(name); }
  std::vector<std::string> List() const override { return base_->List(); }

 private:
  platform::UntrustedStore* base_;
  bool armed_ = false;
};

// Fails the nth Sync() after arming (1-based), once; everything else passes
// through — a transient device error at durability time. Not thread-safe.
class SyncFailStore final : public platform::UntrustedStore {
 public:
  explicit SyncFailStore(platform::UntrustedStore* base) : base_(base) {}
  void FailNthSync(int n) { remaining_ = n; }

  Status Create(const std::string& name, bool overwrite) override {
    return base_->Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    return base_->Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    return base_->Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_->Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_->Truncate(name, size);
  }
  Status Sync(const std::string& name) override {
    if (remaining_ > 0 && --remaining_ == 0) {
      return Status::IOError("injected sync failure");
    }
    return base_->Sync(name);
  }
  std::vector<std::string> List() const override { return base_->List(); }

 private:
  platform::UntrustedStore* base_;
  int remaining_ = 0;
};

bool HasAuditKind(const common::MetricsRegistry& registry,
                  const std::string& kind) {
  for (const auto& event : registry.audit().Events()) {
    if (event.kind == kind) return true;
  }
  return false;
}

TEST(ShardedStoreTest, MidPrepareFailureAbortsPreparedShardsAtEveryIndex) {
  // Inject a shard Write failure at every prepare index of a 4-shard
  // transaction. Each run must: return the failure, abort the shards that
  // had already prepared, audit the failed prepare, leak no staging
  // chunks across a reopen, and leave every shard at its pre-transaction
  // value.
  constexpr int kN = 4;
  for (int f = 0; f < kN; f++) {
    std::vector<std::unique_ptr<MemUntrustedStore>> bases;
    std::vector<std::unique_ptr<MemOneWayCounter>> counters;
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    for (int k = 0; k < kN; k++) {
      bases.push_back(std::make_unique<MemUntrustedStore>());
      counters.push_back(std::make_unique<MemOneWayCounter>());
    }
    WriteFailStore failing(bases[f].get());
    std::vector<ShardBackend> backends;
    for (int k = 0; k < kN; k++) {
      backends.push_back({k == f ? static_cast<platform::UntrustedStore*>(
                                       &failing)
                                 : bases[k].get(),
                          &secrets, counters[k].get()});
    }
    auto registry = std::make_shared<common::MetricsRegistry>();
    chunk::ChunkStoreOptions options = SmallSegments();
    options.metrics = registry;
    // Serial prepares in ascending shard order: "prepare index f" is then
    // exactly "the f-th participant", and the injected store needs no
    // synchronization.
    options.txn_coordinator_threads = 0;

    chunk::ChunkId ids[kN] = {};
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      int found = 0;
      while (found < kN) {
        chunk::ChunkId cid = (*router)->AllocateChunkId();
        uint32_t k = (*router)->ShardOf(cid);
        if (ids[k] == 0) {
          ids[k] = cid;
          found++;
        }
      }
      chunk::WriteBatch before;
      for (int k = 0; k < kN; k++) before.Write(ids[k], Slice("base"));
      ASSERT_TRUE((*router)->Commit(before, true).ok());  // txn 1.

      failing.Arm();
      chunk::WriteBatch txn;
      for (int k = 0; k < kN; k++) txn.Write(ids[k], Slice("txn"));
      Status status = (*router)->Commit(txn, true);  // txn 2.
      failing.Disarm();
      ASSERT_FALSE(status.ok()) << "prepare index " << f;

      RouterStats rs = (*router)->router_stats();
      EXPECT_EQ(rs.cross_shard_commits, 1u) << "prepare index " << f;
      EXPECT_EQ(rs.cross_shard_aborts, 1u) << "prepare index " << f;
      EXPECT_EQ(rs.cross_shard_commit_failures, 0u) << "prepare index " << f;
      // The failed prepare is audited; the unwind succeeded (every other
      // shard is healthy), so no failed-abort audit.
      EXPECT_TRUE(HasAuditKind(*registry, "txn_prepare_failed"))
          << "prepare index " << f;
      EXPECT_FALSE(HasAuditKind(*registry, "txn_abort_failed"))
          << "prepare index " << f;
      // The coordinator exit path must clear the in-flight marker even on
      // failure, or the health monitor would flag a stuck transaction.
      const std::map<std::string, int64_t> gauges =
          registry->Snapshot().gauges;
      EXPECT_EQ(gauges.at("shard.router.txn_inflight"), 0);
      EXPECT_EQ(gauges.at("shard.router.txn_inflight_since_us"), 0);
      // Drop without Close: recovery gets whatever the abort left behind.
    }

    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "prepare index " << f << ": " << router.status().ToString();
    // No staging leaked: the unwind (or recovery) deallocated every
    // prepared shard's staging chunk.
    for (int k = 0; k < kN; k++) {
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::StagingCid(2))
                      .status()
                      .IsNotFound())
          << "prepare index " << f << " leaked staging on shard " << k;
    }
    for (int k = 0; k < kN; k++) {
      auto value = (*router)->Read(ids[k]);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(Slice(*value).ToString(), "base")
          << "prepare index " << f << " applied shard " << k;
    }
    // The decision chains survive the unwind: fresh cross-shard commits
    // still work.
    chunk::WriteBatch after;
    for (int k = 0; k < kN; k++) after.Write(ids[k], Slice("after"));
    ASSERT_TRUE((*router)->Commit(after, true).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
}

TEST(ShardedStoreTest, Phase2ApplyFailureCountsFailureNotCommit) {
  // A decision-phase apply that fails must not count as a successful
  // cross-shard commit (the pre-fix coordinator incremented the success
  // counter unconditionally): it lands in cross_shard_commit_failures and
  // the caller sees the error.
  MemUntrustedStore base0, base1;
  SyncFailStore failing(&base1);
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  MemOneWayCounter c0, c1;
  std::vector<ShardBackend> backends = {{&base0, &secrets, &c0},
                                        {&failing, &secrets, &c1}};
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  options.txn_coordinator_threads = 0;  // Deterministic sync numbering.

  chunk::ChunkId on0 = 0, on1 = 0;
  {
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    TwoShardIds(router->get(), &on0, &on1);
    chunk::WriteBatch before;
    before.Write(on0, Slice("base0"));
    before.Write(on1, Slice("base1"));
    ASSERT_TRUE((*router)->Commit(before, true).ok());  // txn 1.

    // Shard 1's commit window is two durable syncs: the prepare (staging
    // write) and the decision batch. Failing the second fails the
    // Phase-2 apply after a successful prepare.
    failing.FailNthSync(2);
    chunk::WriteBatch txn;
    txn.Write(on0, Slice("txn0"));
    txn.Write(on1, Slice("txn1"));
    Status status = (*router)->Commit(txn, true);  // txn 2.
    ASSERT_FALSE(status.ok());

    RouterStats rs = (*router)->router_stats();
    EXPECT_EQ(rs.cross_shard_commits, 1u);  // Only txn 1.
    EXPECT_EQ(rs.cross_shard_commit_failures, 1u);
    EXPECT_EQ(rs.cross_shard_aborts, 0u);
    const std::map<std::string, int64_t> gauges = registry->Snapshot().gauges;
    EXPECT_EQ(gauges.at("shard.router.txn_inflight"), 0);
    EXPECT_EQ(gauges.at("shard.router.txn_inflight_since_us"), 0);
    // Drop without Close.
  }

  // The commit decision was durably recorded on shard 0 (and shard 1's
  // log retains it past the failed ack), so recovery must converge both
  // shards to the SAME version — all-or-nothing even on apply failure.
  auto router = ShardedChunkStore::Open(backends, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto v0 = (*router)->Read(on0);
  auto v1 = (*router)->Read(on1);
  ASSERT_TRUE(v0.ok() && v1.ok());
  const bool applied0 = Slice(*v0).ToString() == "txn0";
  const bool applied1 = Slice(*v1).ToString() == "txn1";
  EXPECT_EQ(applied0, applied1) << Slice(*v0).ToString() << " vs "
                                << Slice(*v1).ToString();
  chunk::WriteBatch after;
  after.Write(on0, Slice("after"));
  after.Write(on1, Slice("after"));
  ASSERT_TRUE((*router)->Commit(after, true).ok());
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, InflightGaugeClearsAfterCrossShardCommit) {
  // The in-flight marker pair must read {0, 0} the moment the coordinator
  // returns — a stale since-timestamp (the pre-fix bug) makes the health
  // monitor report a stuck transaction forever.
  ShardedEnv env(2);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  chunk::WriteBatch batch;
  batch.Write(on0, Slice("zero"));
  batch.Write(on1, Slice("one"));
  ASSERT_TRUE((*router)->Commit(batch, true).ok());

  const std::map<std::string, int64_t> gauges = registry->Snapshot().gauges;
  EXPECT_EQ(gauges.at("shard.router.txn_inflight"), 0);
  EXPECT_EQ(gauges.at("shard.router.txn_inflight_since_us"), 0);
  ASSERT_TRUE((*router)->Close().ok());
}

// ------------------------------------------- object-level cross-shard txns

TEST(ShardedStoreTest, ObjectTransferAcrossShardsIsAtomic) {
  // The tentpole scenario end-to-end: two account objects on different
  // shards, one ObjectStore transaction moving value between them, a
  // crash injected at EVERY global write index of the durable commit
  // (which runs the full MAC-chained 2PC underneath). After recovery the
  // transfer must be all-or-nothing: total balance conserved, both
  // accounts from the same version.
  bool saw_old = false, saw_new = false;
  for (uint64_t point = 0;; point++) {
    MemUntrustedStore base;
    FaultInjectingStore faulty(&base);
    PrefixedStore s0("s0/", &faulty), s1("s1/", &faulty);
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    MemOneWayCounter c0, c1;
    std::vector<ShardBackend> backends = {{&s0, &secrets, &c0},
                                          {&s1, &secrets, &c1}};
    chunk::ChunkStoreOptions options = SmallSegments();
    options.txn_coordinator_threads = 0;  // Deterministic write index.

    object::ObjectId acct_a = 0, acct_b = 0;
    bool crashed = false;
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      auto objects = object::ObjectStore::Open(router->get());
      ASSERT_TRUE(objects.ok()) << objects.status().ToString();
      ASSERT_TRUE(harness::RegisterHarnessClasses(objects->get()).ok());
      {
        object::Transaction setup(objects->get());
        auto a = setup.Insert(
            std::make_unique<harness::HarnessBlob>(1, Buffer{100}));
        auto b = setup.Insert(
            std::make_unique<harness::HarnessBlob>(2, Buffer{50}));
        ASSERT_TRUE(a.ok() && b.ok());
        acct_a = *a;
        acct_b = *b;
        ASSERT_NE((*router)->ShardOf(acct_a), (*router)->ShardOf(acct_b))
            << "accounts must land on different shards";
        ASSERT_TRUE(setup.Commit(true).ok());
      }

      faulty.CrashAtWrite(point, 4, 4);
      object::Transaction transfer(objects->get());
      auto a = transfer.OpenWritable<harness::HarnessBlob>(acct_a);
      auto b = transfer.OpenWritable<harness::HarnessBlob>(acct_b);
      Status status;
      if (a.ok() && b.ok()) {
        (*a)->set_bytes(Buffer{90});  // 100 - 10.
        (*b)->set_bytes(Buffer{60});  // 50 + 10.
        status = transfer.Commit(true);
      } else {
        status = a.ok() ? b.status() : a.status();
      }
      crashed = faulty.crashed();
      ASSERT_TRUE(status.ok() || crashed) << status.ToString();
      if (!crashed) {
        EXPECT_TRUE(saw_old) << "sweep never landed before the decision";
        EXPECT_TRUE(saw_new) << "sweep never landed after the decision";
        return;  // Past the commit's write window: sweep complete.
      }
      // Drop objects, then router, without Close.
    }
    faulty.Reboot();
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "crash point " << point << ": " << router.status().ToString();
    auto objects = object::ObjectStore::Open(router->get());
    ASSERT_TRUE(objects.ok()) << objects.status().ToString();
    ASSERT_TRUE(harness::RegisterHarnessClasses(objects->get()).ok());
    object::ReadTransaction read(objects->get());
    auto a = read.Open<harness::HarnessBlob>(acct_a);
    auto b = read.Open<harness::HarnessBlob>(acct_b);
    ASSERT_TRUE(a.ok() && b.ok())
        << "crash point " << point << " lost an account";
    ASSERT_EQ((*a)->bytes().size(), 1u);
    ASSERT_EQ((*b)->bytes().size(), 1u);
    const int balance_a = (*a)->bytes()[0];
    const int balance_b = (*b)->bytes()[0];
    EXPECT_EQ(balance_a + balance_b, 150)
        << "crash point " << point << " tore the transfer: " << balance_a
        << " + " << balance_b;
    EXPECT_TRUE((balance_a == 100 && balance_b == 50) ||
                (balance_a == 90 && balance_b == 60))
        << "crash point " << point << ": " << balance_a << "/" << balance_b;
    saw_old = saw_old || balance_a == 100;
    saw_new = saw_new || balance_a == 90;
    ASSERT_TRUE((*router)->Close().ok());
  }
}

// -------------------------------------------------------------- aggregates

TEST(ShardedStoreTest, StatsAggregateSumsCountersAndMaxesGroupSize) {
  ShardedEnv env(2);
  chunk::ChunkStoreOptions options = SmallSegments();
  options.group_commit = true;
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  // Asymmetric load: shard 0 gets three durable commits, shard 1 one.
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE((*router)->Write(on0, Slice("zero"), true).ok());
  }
  ASSERT_TRUE((*router)->Write(on1, Slice("one"), true).ok());

  chunk::ChunkStoreStats agg = (*router)->Stats();
  chunk::ChunkStoreStats s0 = (*router)->ShardStats(0);
  chunk::ChunkStoreStats s1 = (*router)->ShardStats(1);
  // Counters and byte totals SUM across shards...
  EXPECT_EQ(agg.commits, s0.commits + s1.commits);
  EXPECT_EQ(agg.durable_commits, s0.durable_commits + s1.durable_commits);
  EXPECT_EQ(agg.live_chunks, s0.live_chunks + s1.live_chunks);
  EXPECT_EQ(agg.total_bytes, s0.total_bytes + s1.total_bytes);
  EXPECT_EQ(agg.bytes_appended, s0.bytes_appended + s1.bytes_appended);
  EXPECT_EQ(agg.log_syncs, s0.log_syncs + s1.log_syncs);
  EXPECT_EQ(agg.counter_bumps, s0.counter_bumps + s1.counter_bumps);
  EXPECT_GT(agg.durable_commits, 0u);
  // ...but the group-size high-water mark takes the MAX: a commit group
  // never spans shards, so summing the maxima would claim a group larger
  // than any that existed.
  EXPECT_EQ(agg.max_commits_per_group,
            std::max(s0.max_commits_per_group, s1.max_commits_per_group));
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, PerShardMetricsCarryShardPrefix) {
  ShardedEnv env(2);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  ASSERT_TRUE((*router)->Write(on0, Slice("zero"), true).ok());
  ASSERT_TRUE((*router)->Write(on1, Slice("one"), true).ok());

  const std::map<std::string, int64_t> values =
      registry->Snapshot().counters;
  EXPECT_EQ(values.count("shard0.chunk.commits"), 1u);
  EXPECT_EQ(values.count("shard1.chunk.commits"), 1u);
  EXPECT_EQ(values.count("chunk.commits"), 0u);  // No unprefixed twin.
  EXPECT_GT(values.at("shard0.chunk.commits"), 0);
  EXPECT_GT(values.at("shard1.chunk.commits"), 0);
  EXPECT_EQ(values.count("shard.router.single_shard_commits"), 1u);
  EXPECT_EQ(values.at("shard.router.single_shard_commits"), 2);
  ASSERT_TRUE((*router)->Close().ok());
}

// -------------------------------------------------------------- layering

TEST(ShardedStoreTest, ObjectStoreRunsUnchangedOverRouter) {
  ShardedEnv env(4);
  auto router = env.Open();
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto objects = object::ObjectStore::Open(router->get());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ASSERT_TRUE((*objects)
                  ->SetNamedRoot("shard-test-root", object::ObjectId{42})
                  .ok());
  auto root = (*objects)->GetNamedRoot("shard-test-root");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, object::ObjectId{42});
  ASSERT_TRUE((*router)->Close().ok());

  auto reopened = env.Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto objects2 = object::ObjectStore::Open(reopened->get());
  ASSERT_TRUE(objects2.ok()) << objects2.status().ToString();
  auto root2 = (*objects2)->GetNamedRoot("shard-test-root");
  ASSERT_TRUE(root2.ok());
  EXPECT_EQ(*root2, object::ObjectId{42});
  ASSERT_TRUE((*reopened)->Close().ok());
}

// ------------------------------------------------------------ concurrency

TEST(ShardedStoreTest, ConcurrentCommitsAcrossShards) {
  // Exercised under --tsan: parallel single-shard commits (independent
  // group windows), cross-shard 2PC, pinned composite views, and reads.
  ShardedEnv env(4);
  chunk::ChunkStoreOptions options = SmallSegments();
  options.group_commit = true;
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedChunkStore* router = opened->get();

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::vector<std::vector<chunk::ChunkId>> ids(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < 2; i++) ids[t].push_back(router->AllocateChunkId());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; r++) {
        chunk::WriteBatch batch;
        const std::string value =
            "t" + std::to_string(t) + "r" + std::to_string(r);
        if (r % 3 == 0) {
          batch.Write(ids[t][0], Slice(value));  // Usually single-shard.
        } else {
          batch.Write(ids[t][0], Slice(value));
          batch.Write(ids[t][1], Slice(value));
        }
        if (!router->Commit(batch, r % 2 == 0).ok()) failures++;
        auto view = router->PinView();
        if (!view.ok() ||
            !router->ReadAtView(**view, ids[t][0]).ok()) {
          failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  uint64_t checked = 0;
  EXPECT_TRUE(router->VerifyIntegrity(&checked).ok());
  for (int t = 0; t < kThreads; t++) {
    auto value = router->Read(ids[t][0]);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(Slice(*value).ToString(),
              "t" + std::to_string(t) + "r" + std::to_string(kRounds - 1));
  }
  ASSERT_TRUE(router->Close().ok());
}

}  // namespace
}  // namespace tdb::shard
