#ifndef TDB_SHARD_SHARDED_CHUNK_STORE_H_
#define TDB_SHARD_SHARDED_CHUNK_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "platform/untrusted_store.h"

namespace tdb::shard {

/// The backing devices of one shard. Each shard is a fully independent
/// ChunkStore: its own segmented log, anchor pair, one-way counter,
/// cache, cleaner, and group-commit window. Counters and secret stores
/// may be shared between shards or distinct; the 2PC record-chain key is
/// derived from backend 0's secret.
struct ShardBackend {
  platform::UntrustedStore* store = nullptr;
  platform::SecretStore* secrets = nullptr;
  platform::OneWayCounter* counter = nullptr;
};

/// Router-level tallies on top of the per-shard ChunkStoreStats.
struct RouterStats {
  uint64_t single_shard_commits = 0;  // Commits routed without coordination.
  uint64_t cross_shard_commits = 0;   // Two-phase commits fully applied.
  uint64_t cross_shard_aborts = 0;    // 2PC aborted during prepare.
  uint64_t cross_shard_commit_failures = 0;  // Decision-phase apply failed.
  uint64_t durability_upgrades = 0;   // Nondurable commits upgraded by 2PC.
  uint64_t recovered_commits = 0;     // In-doubt txns resolved commit at open.
  uint64_t recovered_aborts = 0;      // In-doubt txns resolved abort at open.
};

/// Routes the single-store chunk API across N independent ChunkStores.
///
/// Routing: chunk id `cid` lives on shard `cid % N`. Ids are allocated by
/// a router-level counter, so consecutive allocations round-robin the
/// shards. Ids with the top bit set are reserved for router-internal
/// records (per-shard config, 2PC staging and decision chunks) and are
/// rejected at the public API.
///
/// Commit semantics:
///  - A batch touching ONE shard commits on that shard with zero
///    cross-shard coordination — independent logs, counters, and group
///    windows scale durable commits across cores.
///  - A batch touching MULTIPLE shards runs a two-phase commit. Prepare:
///    the batch's per-shard ops are serialized into a staging chunk and
///    durably committed on each participant (MAC'd, hash-chained, and
///    counter-stamped by the shard's own log machinery — a torn or
///    replayed prepare is just a torn/replayed shard commit). Decision:
///    each participant atomically commits {real ops, a decision record,
///    staging dealloc} in one shard-level batch. Decision records carry an
///    HMAC over their fields plus the previous decision's MAC on that
///    shard, forming a per-shard decision chain keyed separately from the
///    chunk layer, so a forged or reordered coordinator decision —
///    even one written through legitimate chunk commits — fails
///    verification at recovery. Multi-shard commits are always durable
///    (prepares must persist); nondurable requests are upgraded.
///  - A durable commit covers earlier nondurable commits ON THE SAME
///    SHARDS only; an empty durable batch syncs every shard.
///
/// Recovery (Open): after each shard self-recovers, the router scans the
/// reserved id range, verifies the decision chains and prepare MACs, and
/// resolves in-doubt transactions deterministically: a transaction whose
/// prepare survived on EVERY participant (or with a commit decision on
/// any) is redone from its staged batches; any other is aborted and its
/// staging deallocated. Both outcomes append chained decision records.
///
/// Cross-shard read consistency: PinView serializes against the 2PC
/// apply phase, so a pinned composite view never observes half of a
/// multi-shard transaction. Plain Read()s are per-chunk and may observe a
/// cross-shard transaction's shards at different times, exactly like
/// independent stores.
///
/// With N == 1 the router is a strict pass-through: no config record, no
/// reserved-range writes — the shard's on-disk image is bit-identical to
/// a plain ChunkStore's.
class ShardedChunkStore final : public chunk::ChunkStoreInterface {
 public:
  /// `options` applies to every shard; `options.metrics` (or a fresh
  /// registry) is shared across shards with per-shard "shard<k>." metric
  /// prefixes. At most 64 shards. Reopening an existing sharded image
  /// with a different shard count — or with shard backends permuted —
  /// fails with InvalidArgument.
  static Result<std::unique_ptr<ShardedChunkStore>> Open(
      const std::vector<ShardBackend>& backends,
      const chunk::ChunkStoreOptions& options);

  ~ShardedChunkStore() override;
  ShardedChunkStore(const ShardedChunkStore&) = delete;
  ShardedChunkStore& operator=(const ShardedChunkStore&) = delete;

  chunk::ChunkId AllocateChunkId() override;
  Result<Buffer> Read(chunk::ChunkId cid) override;
  Status Commit(const chunk::WriteBatch& batch, bool durable) override;
  Result<chunk::CommitHandle> CommitBuffered(const chunk::WriteBatch& batch,
                                             bool durable) override;
  Status WaitDurable(chunk::CommitHandle& handle) override;
  Status Checkpoint() override;
  Status Clean(int max_segments) override;
  /// Scrubs every shard concurrently (one thread per shard); failures are
  /// reported for the lowest failing shard index.
  Status VerifyIntegrity(uint64_t* chunks_checked) override;
  Result<std::shared_ptr<chunk::Snapshot>> PinView() override;
  Result<std::shared_ptr<const Buffer>> ReadAtViewShared(
      const chunk::Snapshot& view, chunk::ChunkId cid) override;
  Result<std::vector<Buffer>> ReadManyAtView(
      const chunk::Snapshot& view,
      const std::vector<chunk::ChunkId>& cids) override;

  /// Aggregate across shards: counters and gauges sum; the group-size
  /// high-water mark is the max of the per-shard maxima (a group never
  /// spans shards, so summing would overstate it).
  chunk::ChunkStoreStats Stats() const override;
  const std::shared_ptr<common::MetricsRegistry>& metrics() const override {
    return metrics_;
  }
  uint64_t next_chunk_id() const override;
  Status Close() override;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int ShardOf(chunk::ChunkId cid) const {
    return static_cast<int>(cid % shards_.size());
  }
  /// Direct access to one shard (tests, tools; bypasses routing guards).
  chunk::ChunkStore* shard(int k) { return shards_[k].get(); }
  /// Per-shard breakdown of the Stats() aggregate.
  chunk::ChunkStoreStats ShardStats(int k) const {
    return shards_[k]->Stats();
  }
  RouterStats router_stats() const;

  /// Reserved-id helpers (exposed for tests and the harness).
  static bool IsRouterChunk(chunk::ChunkId cid);
  static chunk::ChunkId StagingCid(uint64_t txn_id);
  static chunk::ChunkId DecisionCid(uint64_t txn_id);

 private:
  struct PrepareRecord {
    uint64_t txn_id = 0;
    uint32_t shard_index = 0;
    uint64_t participants = 0;  // Bitmask over shard indexes.
    chunk::WriteBatch ops;
    crypto::Digest prev_mac;
    crypto::Digest mac;
  };
  struct DecisionRecord {
    uint64_t txn_id = 0;
    uint32_t shard_index = 0;
    uint64_t participants = 0;
    bool commit = false;
    crypto::Digest prepare_mac;
    crypto::Digest prev_mac;
    crypto::Digest mac;
  };

  ShardedChunkStore() = default;

  // Record codecs. Encode returns the payload and fills *mac with the
  // record's own MAC (empty when security is disabled).
  Buffer EncodePrepare(uint64_t txn_id, uint64_t participants,
                       uint32_t shard_index, const chunk::WriteBatch& ops,
                       const crypto::Digest& prev_mac,
                       crypto::Digest* mac) const;
  Buffer EncodeDecision(uint64_t txn_id, uint64_t participants,
                        uint32_t shard_index, bool commit,
                        const crypto::Digest& prepare_mac,
                        const crypto::Digest& prev_mac,
                        crypto::Digest* mac) const;
  Status DecodePrepare(Slice payload, PrepareRecord* out) const;
  Status DecodeDecision(Slice payload, DecisionRecord* out) const;
  crypto::Digest MacOf(Slice mac_input) const;

  // Requires txn_mu_. The two-phase commit driver; `parts` maps shard
  // index -> that shard's sub-batch. Both phases fan out across txn_pool_
  // (participants touch disjoint shards), but txn_mu_ stays held for the
  // whole transaction: each shard's decision chain is linear in txn id, so
  // a second coordinator interleaving its decisions between this txn's
  // prepare (which embeds chain_mac_[k]) and its decision would break the
  // chain linkage recovery verifies.
  Status CommitCrossShardLocked(const std::map<int, chunk::WriteBatch>& parts,
                                bool durable);
  // Requires txn_mu_ (held by the coordinator). Durably commits {decision
  // record, staging dealloc} (plus `ops` when committing) on shard `k` and
  // advances its chain. Safe to call concurrently for DISTINCT shard
  // indexes: each call touches only shard-k state (chain_mac_[k],
  // shards_[k]).
  Status ApplyDecisionLocked(int k, uint64_t txn_id, uint64_t participants,
                             bool commit, const chunk::WriteBatch* ops,
                             const crypto::Digest& prepare_mac);

  // Open-time helpers (single-threaded: before the store is published).
  Status CheckConfig();
  Status RecoverCrossShard();
  void AuditTxn(const char* kind, const std::string& location,
                const std::string& message);

  std::vector<std::unique_ptr<chunk::ChunkStore>> shards_;
  std::shared_ptr<common::MetricsRegistry> metrics_;
  crypto::HashKind mac_hash_ = crypto::HashKind::kSha256;
  Buffer mac_key_;  // Empty when security is disabled (no MACs/chains).

  std::atomic<uint64_t> next_id_{1};  // App chunk ids (N > 1 only).

  // Serializes cross-shard transactions and composite PinView against the
  // 2PC apply window. Single-shard commits and reads never take it.
  mutable std::mutex txn_mu_;
  uint64_t next_txn_id_ = 1;                // Requires txn_mu_.
  std::vector<crypto::Digest> chain_mac_;   // Last decision MAC per shard.

  // Coordinator fan-out pool (N > 1 only); 0 workers when
  // txn_coordinator_threads <= 1, in which case ParallelFor degenerates to
  // an in-order serial loop on the caller.
  std::unique_ptr<ThreadPool> txn_pool_;

  common::Counter* single_commits_ = nullptr;
  common::Counter* cross_commits_ = nullptr;
  common::Counter* cross_aborts_ = nullptr;
  common::Counter* cross_commit_failures_ = nullptr;
  common::Counter* upgrades_ = nullptr;
  common::Counter* recovered_commits_ = nullptr;
  common::Counter* recovered_aborts_ = nullptr;

  // Health-monitor inputs: >0 while a 2PC prepare/decision window is open
  // (requires txn_mu_), with the monotonic time it opened. A wedged or
  // leaked window shows up as an aged txn_inflight violation.
  common::Gauge* txn_inflight_ = nullptr;
  common::Gauge* txn_inflight_since_us_ = nullptr;

  // Per-shard span names ("shard<k>.2pc.prepare" / ".decision"), interned
  // once at Open so TraceEvents referencing them can never dangle.
  std::vector<const char*> prepare_span_names_;
  std::vector<const char*> decision_span_names_;
};

}  // namespace tdb::shard

#endif  // TDB_SHARD_SHARDED_CHUNK_STORE_H_
