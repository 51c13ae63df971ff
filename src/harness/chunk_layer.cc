// layer=chunk and layer=shard: the trace as WriteBatches committed straight
// to the chunk-level store — one ChunkStore, or the ShardedChunkStore
// router whose multi-shard batches run two-phase commit.
#include <algorithm>
#include <map>
#include <set>

#include "harness/layer.h"

namespace tdb::harness {

namespace {

class ChunkLayer final : public Layer {
 public:
  ChunkLayer(const TraceSpec& spec, uint32_t shards)
      : trace_(GenerateTrace(spec)), shards_(shards) {}

  Status Open(chunk::ChunkStoreInterface* chunks, bool /*create*/) override {
    chunks_ = chunks;
    return Status::OK();
  }

  void Drop() override { chunks_ = nullptr; }

  Status Run(std::vector<StateOracle>* oracles, InFlight* inflight) override {
    const uint32_t n = static_cast<uint32_t>(oracles->size());
    std::map<uint32_t, chunk::ChunkId> slot_ids;
    for (size_t c = 0; c < trace_.size(); c++) {
      const TraceCommit& commit = trace_[c];
      chunk::WriteBatch batch;
      for (StateOracle& oracle : *oracles) oracle.BeginCommit();
      std::set<int> participants;
      for (const TraceOp& op : commit.ops) {
        auto it = slot_ids.find(op.slot);
        if (op.kind == TraceOp::Kind::kWrite) {
          const chunk::ChunkId cid = it != slot_ids.end()
                                         ? it->second
                                         : chunks_->AllocateChunkId();
          slot_ids[op.slot] = cid;
          Buffer payload = SlotPayload(op.payload_seed, op.size);
          batch.Write(cid, payload);
          participants.insert(static_cast<int>(cid % n));
          (*oracles)[cid % n].PendingWrite(cid, std::move(payload));
        } else if (it != slot_ids.end()) {
          batch.Deallocate(it->second);
          participants.insert(static_cast<int>(it->second % n));
          (*oracles)[it->second % n].PendingRemove(it->second);
          slot_ids.erase(it);
        }
      }
      Status status = chunks_->Commit(batch, commit.durable);
      EndCommit(oracles, participants, commit.durable, status, c, inflight);
      TDB_RETURN_IF_ERROR(status);
      if (commit.checkpoint_after) {
        TDB_RETURN_IF_ERROR(chunks_->Checkpoint());
        for (StateOracle& oracle : *oracles) oracle.MarkAllDurable();
      }
    }
    return Status::OK();
  }

  Status ReadBack(const std::set<uint64_t>& ids,
                  StateOracle::State* out) override {
    for (uint64_t id : ids) {
      Result<Buffer> read = chunks_->Read(id);
      if (read.ok()) {
        (*out)[id] = std::move(read).value();
      } else if (!read.status().IsNotFound()) {
        return read.status();
      }
    }
    return Status::OK();
  }

  // A durable batch that spans every shard (at least two chunks), so on the
  // router it drives a fresh 2PC on top of the recovered decision chains.
  Status Probe() override {
    chunk::WriteBatch batch;
    std::vector<chunk::ChunkId> ids;
    for (uint32_t k = 0; k < std::max<uint32_t>(2, shards_); k++) {
      ids.push_back(chunks_->AllocateChunkId());
      batch.Write(ids.back(), Slice("post-recovery-probe"));
    }
    TDB_RETURN_IF_ERROR(chunks_->Commit(batch, true));
    for (chunk::ChunkId cid : ids) {
      Result<Buffer> read = chunks_->Read(cid);
      if (!read.ok() || Slice(read.value()) != Slice("post-recovery-probe")) {
        return Status::Corruption("probe readback mismatch");
      }
    }
    return Status::OK();
  }

 private:
  const std::vector<TraceCommit> trace_;
  const uint32_t shards_;
  chunk::ChunkStoreInterface* chunks_ = nullptr;
};

}  // namespace

std::unique_ptr<Layer> MakeChunkLayer(const TraceSpec& spec, uint32_t shards) {
  return std::make_unique<ChunkLayer>(spec, shards);
}

}  // namespace tdb::harness
