// layer=collection: the full stack (collection -> object -> chunk). Each
// trace commit group is one CTransaction over one int-keyed B-tree
// collection of HarnessBlobs (key = slot): insert / iterator-update /
// iterator-remove. Read-back scans the collection, keyed by slot.
#include <memory>
#include <set>

#include "collection/collection.h"
#include "collection/indexer.h"
#include "collection/key.h"
#include "harness/layer.h"

namespace tdb::harness {

namespace {

constexpr const char* kCollectionName = "harness";
constexpr const char* kIndexName = "by-key";

class CollectionLayer final : public Layer {
 public:
  explicit CollectionLayer(const TraceSpec& spec)
      : trace_(GenerateTrace(spec)) {}

  Status Open(chunk::ChunkStoreInterface* chunks, bool create) override {
    TDB_ASSIGN_OR_RETURN(objects_, object::ObjectStore::Open(chunks));
    TDB_RETURN_IF_ERROR(RegisterHarnessClasses(objects_.get()));
    TDB_ASSIGN_OR_RETURN(collections_,
                         collection::CollectionStore::Open(objects_.get()));
    indexer_ = std::make_shared<
        collection::Indexer<HarnessBlob, collection::IntKey>>(
        kIndexName, collection::Uniqueness::kUnique,
        collection::IndexKind::kBTree,
        [](const HarnessBlob& blob) {
          return collection::IntKey(static_cast<int64_t>(blob.key()));
        },
        collection::KeyMutability::kImmutable);
    TDB_RETURN_IF_ERROR(
        collections_->RegisterIndexer(kCollectionName, indexer_));
    if (!create) return Status::OK();
    collection::CTransaction ct(collections_.get());
    TDB_RETURN_IF_ERROR(
        ct.CreateCollection(kCollectionName, indexer_).status());
    return ct.Commit(true);
  }

  void Drop() override {
    collections_.reset();
    objects_.reset();
  }

  Status Run(std::vector<StateOracle>* oracles, InFlight*) override {
    StateOracle& oracle = (*oracles)[0];
    for (const TraceCommit& commit : trace_) {
      collection::CTransaction ct(collections_.get());
      oracle.BeginCommit();
      Status status = ApplyOps(commit, &ct, &oracle);
      if (status.ok()) status = ct.Commit(commit.durable);
      oracle.EndCommit(status.ok(), commit.durable);
      TDB_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  Status ReadBack(const std::set<uint64_t>&,
                  StateOracle::State* out) override {
    collection::CTransaction ct(collections_.get());
    TDB_ASSIGN_OR_RETURN(object::ReadonlyRef<collection::Collection> coll,
                         ct.ReadCollection(kCollectionName));
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<collection::Iterator> it,
                         coll->Query(&ct, *indexer_));
    for (; !it->end(); it->Next()) {
      TDB_ASSIGN_OR_RETURN(object::ReadonlyRef<HarnessBlob> blob,
                           it->Read<HarnessBlob>());
      // Not a store detection: a duplicate the store let through must
      // fail the case, never count as caught.
      if (!out->emplace(blob->key(), blob->bytes()).second) {
        return Status::InvalidArgument("duplicate key " +
                                       std::to_string(blob->key()) +
                                       " in the collection scan");
      }
    }
    TDB_RETURN_IF_ERROR(it->Close());
    return ct.Abort();
  }

  // Full-stack cases are heavy: half-write tear steps only.
  TearBuckets Tears(Preset) const override { return {{0, 2, 4}, 4}; }

 private:
  Status ApplyOps(const TraceCommit& commit, collection::CTransaction* ct,
                  StateOracle* oracle) {
    TDB_ASSIGN_OR_RETURN(object::WritableRef<collection::Collection> coll,
                         ct->WriteCollection(kCollectionName));
    for (const TraceOp& op : commit.ops) {
      TDB_ASSIGN_OR_RETURN(
          std::unique_ptr<collection::Iterator> it,
          coll->Query(ct, *indexer_,
                      collection::IntKey(static_cast<int64_t>(op.slot))));
      Status status;
      if (op.kind == TraceOp::Kind::kWrite) {
        Buffer payload = SlotPayload(op.payload_seed, op.size);
        if (it->end()) {
          status = coll->Insert(ct, std::make_unique<HarnessBlob>(op.slot,
                                                                  payload))
                       .status();
        } else {
          Result<object::WritableRef<HarnessBlob>> ref =
              it->Write<HarnessBlob>();
          if (ref.ok()) ref.value()->set_bytes(payload);
          status = ref.status();
        }
        if (status.ok()) oracle->PendingWrite(op.slot, std::move(payload));
      } else {
        if (!it->end()) status = it->RemoveCurrent();
        if (status.ok()) oracle->PendingRemove(op.slot);
      }
      Status closed = it->Close();
      TDB_RETURN_IF_ERROR(status);
      TDB_RETURN_IF_ERROR(closed);
    }
    return Status::OK();
  }

  const std::vector<TraceCommit> trace_;
  std::unique_ptr<object::ObjectStore> objects_;
  std::unique_ptr<collection::CollectionStore> collections_;
  std::shared_ptr<collection::GenericIndexer> indexer_;
};

}  // namespace

std::unique_ptr<Layer> MakeCollectionLayer(const TraceSpec& spec) {
  return std::make_unique<CollectionLayer>(spec);
}

}  // namespace tdb::harness
