// layer=object and layer=objshard: each trace commit group is one
// ObjectStore transaction (insert / open-writable update / remove) of
// HarnessBlobs, over one ChunkStore or over the sharded router — where a
// transaction whose objects land on different shards (oid % shards) runs
// the MAC-chained 2PC. Checkpoint flags are ignored at this layer.
#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "harness/layer.h"

namespace tdb::harness {

void HarnessBlob::Pickle(object::Pickler* pickler) const {
  pickler->PutUint64(key_);
  pickler->PutBytes(bytes_);
}

Status HarnessBlob::UnpickleFrom(object::Unpickler* unpickler) {
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&key_));
  return unpickler->GetBytes(&bytes_);
}

Status RegisterHarnessClasses(object::ObjectStore* os) {
  return os->registry().Register<HarnessBlob>(HarnessBlob::kClassId);
}

Buffer BlobImage(uint64_t key, const Buffer& bytes) {
  Buffer image;
  image.reserve(8 + bytes.size());
  for (int i = 0; i < 8; i++) {
    image.push_back(static_cast<uint8_t>(key >> (8 * i)));
  }
  image.insert(image.end(), bytes.begin(), bytes.end());
  return image;
}

namespace {

class ObjectLayer final : public Layer {
 public:
  ObjectLayer(const TraceSpec& spec, uint32_t shards)
      : trace_(GenerateTrace(spec)), shards_(shards) {}

  Status Open(chunk::ChunkStoreInterface* chunks, bool /*create*/) override {
    TDB_ASSIGN_OR_RETURN(objects_, object::ObjectStore::Open(chunks));
    return RegisterHarnessClasses(objects_.get());
  }

  void Drop() override { objects_.reset(); }

  Status Run(std::vector<StateOracle>* oracles, InFlight* inflight) override {
    const uint32_t n = static_cast<uint32_t>(oracles->size());
    slot_oids_.clear();
    for (size_t c = 0; c < trace_.size(); c++) {
      const TraceCommit& commit = trace_[c];
      object::Transaction txn(objects_.get());
      for (StateOracle& oracle : *oracles) oracle.BeginCommit();
      Effects fx;
      Status op_status = ApplyOps(commit, &txn, &fx);
      if (!op_status.ok()) {
        // No chunk commit was attempted, so nothing is in flight; the
        // transaction's destructor aborts it.
        for (StateOracle& oracle : *oracles) {
          oracle.EndCommit(false, commit.durable);
        }
        return op_status;
      }
      std::set<int> participants;
      for (auto& [oid, image] : fx.writes) {
        participants.insert(static_cast<int>(oid % n));
        (*oracles)[oid % n].PendingWrite(oid, std::move(image));
      }
      for (object::ObjectId oid : fx.removed) {
        if (fx.inserted.count(oid) != 0) continue;  // Never reached the store.
        participants.insert(static_cast<int>(oid % n));
        (*oracles)[oid % n].PendingRemove(oid);
      }
      Status status = txn.Commit(commit.durable);
      EndCommit(oracles, participants, commit.durable, status, c, inflight);
      TDB_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  Status ReadBack(const std::set<uint64_t>& ids,
                  StateOracle::State* out) override {
    object::Transaction txn(objects_.get());
    for (uint64_t oid : ids) {
      Result<object::ReadonlyRef<HarnessBlob>> ref =
          txn.OpenReadonly<HarnessBlob>(oid);
      if (ref.ok()) {
        (*out)[oid] = BlobImage(ref.value()->key(), ref.value()->bytes());
      } else if (!ref.status().IsNotFound()) {
        return ref.status();
      }
    }
    return txn.Abort();
  }

  // A durable transaction inserting one blob per shard (at least two):
  // consecutive oids round-robin the shards, so on the router this drives
  // a fresh 2PC on top of the recovered decision chains.
  Status Probe() override {
    const uint64_t kProbeKey = 0xF00D0000ull;
    std::vector<object::ObjectId> oids;
    object::Transaction txn(objects_.get());
    for (uint32_t k = 0; k < std::max<uint32_t>(2, shards_); k++) {
      TDB_ASSIGN_OR_RETURN(
          object::ObjectId oid,
          txn.Insert(std::make_unique<HarnessBlob>(
              kProbeKey + k, Buffer{0xAA, 0xBB, static_cast<uint8_t>(k)})));
      oids.push_back(oid);
    }
    TDB_RETURN_IF_ERROR(txn.Commit(true));
    object::Transaction check(objects_.get());
    for (size_t i = 0; i < oids.size(); i++) {
      Result<object::ReadonlyRef<HarnessBlob>> ref =
          check.OpenReadonly<HarnessBlob>(oids[i]);
      if (!ref.ok() || ref.value()->key() != kProbeKey + i) {
        return Status::Corruption("probe readback mismatch");
      }
    }
    return check.Abort();
  }

 private:
  // The chunk ops one transaction emits, modeled exactly — a write of an
  // object removed in the same transaction, and the removal of one
  // inserted in it, cancel out — so the participant set (and with it the
  // router's durability upgrade) matches the real batch.
  struct Effects {
    std::map<object::ObjectId, Buffer> writes;  // oid -> BlobImage.
    std::set<object::ObjectId> removed;
    std::set<object::ObjectId> inserted;
  };

  Status ApplyOps(const TraceCommit& commit, object::Transaction* txn,
                  Effects* fx) {
    for (const TraceOp& op : commit.ops) {
      auto it = slot_oids_.find(op.slot);
      if (op.kind == TraceOp::Kind::kWrite) {
        Buffer payload = SlotPayload(op.payload_seed, op.size);
        object::ObjectId oid;
        if (it == slot_oids_.end()) {
          TDB_ASSIGN_OR_RETURN(oid, txn->Insert(std::make_unique<HarnessBlob>(
                                        op.slot, payload)));
          slot_oids_[op.slot] = oid;
          fx->inserted.insert(oid);
        } else {
          oid = it->second;
          TDB_ASSIGN_OR_RETURN(object::WritableRef<HarnessBlob> ref,
                               txn->OpenWritable<HarnessBlob>(oid));
          ref->set_bytes(payload);
        }
        fx->writes[oid] = BlobImage(op.slot, payload);
      } else if (it != slot_oids_.end()) {
        TDB_RETURN_IF_ERROR(txn->Remove(it->second));
        fx->removed.insert(it->second);
        fx->writes.erase(it->second);
        slot_oids_.erase(it);
      }
    }
    return Status::OK();
  }

  const std::vector<TraceCommit> trace_;
  const uint32_t shards_;
  std::unique_ptr<object::ObjectStore> objects_;
  std::map<uint32_t, object::ObjectId> slot_oids_;  // Trace slot -> object.
};

}  // namespace

std::unique_ptr<Layer> MakeObjectLayer(const TraceSpec& spec,
                                       uint32_t shards) {
  return std::make_unique<ObjectLayer>(spec, shards);
}

}  // namespace tdb::harness
