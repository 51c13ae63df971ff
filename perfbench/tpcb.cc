// TPC-B at 1/10 of the paper's scale (§7.1; the same tables, record layout
// and transaction as bench/workload/tpcb.cc): every transaction updates one
// random account, teller and branch by a random delta, appends a history
// row, and commits durably. The object cache is smaller than the records,
// so this is the workload that runs the whole write path: hash lookups,
// cache misses, sealing, the commit record, the counter bump on the
// simulated disk, and cleaner relocation.
#include <optional>
#include <sstream>
#include <vector>

#include "bench.h"
#include "common/random.h"

namespace perfbench {

namespace {

using tdb::Status;
namespace collection = tdb::collection;
namespace object = tdb::object;

constexpr object::ClassId kTpcbRecordClass = 200;
constexpr size_t kPadSize = 80;  // 4-byte id + 8-byte balance + pad ~ 100 B.
constexpr int kAccounts = 10000;
constexpr int kTellers = 100;
constexpr int kBranches = 10;
constexpr int kHistoryInit = 25200;
constexpr int kRecordBytes = 100;
constexpr int kLoadBatch = 1000;
constexpr int kTailTxns = 2000;

const char* const kTables[] = {"account", "teller", "branch", "history"};
const int kInitialRows[] = {kAccounts, kTellers, kBranches, kHistoryInit};

class TpcbRecord : public object::Object {
 public:
  TpcbRecord() = default;
  TpcbRecord(int32_t id, int64_t balance)
      : id_(id), balance_(balance), pad_(kPadSize, 0x20) {}

  object::ClassId class_id() const override { return kTpcbRecordClass; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt32(id_);
    p->PutInt64(balance_);
    p->PutBytes(pad_);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt32(&id_));
    TDB_RETURN_IF_ERROR(u->GetInt64(&balance_));
    return u->GetBytes(&pad_);
  }
  size_t ApproxSize() const override { return sizeof(*this) + pad_.size(); }

  int32_t id_ = 0;
  int64_t balance_ = 0;
  tdb::Buffer pad_;
};

using RecordIndexer = collection::Indexer<TpcbRecord, collection::IntKey>;

class Tpcb final : public Workload {
 public:
  explicit Tpcb(uint64_t seed)
      : seed_(seed),
        rng_(seed),
        indexer_(std::make_shared<RecordIndexer>(
            "by-id", collection::Uniqueness::kUnique,
            collection::IndexKind::kHashTable,
            [](const TpcbRecord& r) { return collection::IntKey(r.id_); })) {}

  StackOptions stack_options() const override {
    StackOptions o;
    o.chunk.security = tdb::crypto::SecurityConfig::PaperTdbS();
    o.chunk.segment_size = 256 * 1024;
    o.chunk.max_utilization = 0.6;
    o.chunk.checkpoint_interval_bytes = 48ull * 1024 * 1024;
    o.object.cache_capacity_bytes = 256 * 1024;
    o.object.locking_enabled = false;
    o.counter_on_disk = true;
    o.collections = true;
    o.register_classes = [](object::ObjectStore* objects) {
      return objects->registry().Register<TpcbRecord>(kTpcbRecordClass);
    };
    return o;
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "{\"accounts\": " << kAccounts << ", \"tellers\": " << kTellers
        << ", \"branches\": " << kBranches
        << ", \"history_rows\": " << kHistoryInit
        << ", \"record_bytes\": " << kRecordBytes
        << ", \"index\": \"hash\", \"durable\": true, \"clients\": 1"
        << ", \"tail_txns\": " << kTailTxns << "}";
    return out.str();
  }

  Status Populate(Stack* stack) override {
    rng_ = tdb::Random(seed_);
    acked_ = 0;
    sum_delta_ = 0;
    next_history_id_ = kHistoryInit;
    collection::CollectionStore* colls = stack->collections();
    for (int t = 0; t < 4; t++) {
      collection::CTransaction ddl(colls);
      TDB_RETURN_IF_ERROR(ddl.CreateCollection(kTables[t], indexer_).status());
      TDB_RETURN_IF_ERROR(ddl.Commit(false));
      int next_id = 0;
      while (next_id < kInitialRows[t]) {
        collection::CTransaction load(colls);
        TDB_ASSIGN_OR_RETURN(auto coll, load.WriteCollection(kTables[t]));
        const int end = std::min(kInitialRows[t], next_id + kLoadBatch);
        for (; next_id < end; next_id++) {
          TDB_RETURN_IF_ERROR(
              coll->Insert(&load, std::make_unique<TpcbRecord>(next_id, 0))
                  .status());
        }
        TDB_RETURN_IF_ERROR(load.Commit(next_id == kInitialRows[t]));
      }
    }
    return Status::OK();
  }

  Status Op(Stack* stack, int, bool* write, CheckLog* checks) override {
    *write = true;
    return Txn(stack, checks);
  }

  Status Tail(Stack* stack, CheckLog* checks) override {
    for (int i = 0; i < kTailTxns; i++) {
      TDB_RETURN_IF_ERROR(Txn(stack, checks));
    }
    return Status::OK();
  }

  void CheckState(Stack* stack, bool, CheckLog* checks) override {
    // Every transaction is durable, so a recovered store must hold exactly
    // what the live one did.
    const int64_t rows[] = {kAccounts, kTellers, kBranches,
                            kHistoryInit + static_cast<int64_t>(acked_)};
    for (int t = 0; t < 4; t++) {
      int64_t count = 0;
      int64_t sum = 0;
      std::vector<bool> seen(rows[t], false);
      collection::CTransaction txn(stack->collections());
      auto coll = txn.ReadCollection(kTables[t]);
      if (!coll.ok()) {
        checks->Fail(std::string("tpcb: open ") + kTables[t] + ": " +
                     coll.status().ToString());
        continue;
      }
      auto it = (*coll)->Query(&txn, *indexer_);
      if (!it.ok()) {
        checks->Fail("tpcb: scan: " + it.status().ToString());
        continue;
      }
      for (; !(*it)->end(); (*it)->Next()) {
        auto rec = (*it)->Read<TpcbRecord>();
        if (!rec.ok()) {
          checks->Fail("tpcb: read: " + rec.status().ToString());
          break;
        }
        const int32_t id = (*rec)->id_;
        if (id < 0 || id >= rows[t] || seen[id]) {
          checks->Fail(std::string("tpcb: ") + kTables[t] +
                       " has an unexpected or repeated id " +
                       std::to_string(id));
        } else {
          seen[id] = true;
        }
        count++;
        sum += (*rec)->balance_;
      }
      (*it)->Close();
      txn.Commit(false);
      if (count != rows[t]) {
        checks->Fail(std::string("tpcb: ") + kTables[t] + " has " +
                     std::to_string(count) + " rows, expected " +
                     std::to_string(rows[t]));
      }
      if (sum != sum_delta_) {
        checks->Fail(std::string("tpcb: ") + kTables[t] + " balances sum to " +
                     std::to_string(sum) + ", history deltas to " +
                     std::to_string(sum_delta_));
      }
    }
  }

  double live_payload_bytes() const override {
    return static_cast<double>(kAccounts + kTellers + kBranches +
                               kHistoryInit + acked_) *
           kRecordBytes;
  }

  // Cleaner stalls hit well under 1% of the transactions; p99.9 is where
  // they show.
  double tail_percentile() const override { return 0.999; }

 private:
  // One TPC-B transaction. The ReadCollection / Query / iterator calls are
  // the collection API; CTransaction begin, commit and end are spans of the
  // object layer, whose transaction they forward to.
  Status Txn(Stack* stack, CheckLog* checks) {
    static const char* const kUpdated[] = {"account", "teller", "branch"};
    static const int kLimits[] = {kAccounts, kTellers, kBranches};
    std::optional<collection::CTransaction> txn;
    Traced(Kind::kObject, "ctxn.begin",
           [&] { txn.emplace(stack->collections()); });
    const int64_t delta = static_cast<int64_t>(rng_.Uniform(1000)) - 500;
    for (int t = 0; t < 3; t++) {
      auto coll = Traced(Kind::kCollection, "collection.read_collection",
                         [&] { return txn->ReadCollection(kUpdated[t]); });
      if (!coll.ok()) return coll.status();
      const int64_t id = static_cast<int64_t>(rng_.Uniform(kLimits[t]));
      collection::IntKey key(id);
      auto it = Traced(Kind::kCollection, "collection.query", [&] {
        return (*coll)->Query(&*txn, *indexer_, key);
      });
      if (!it.ok()) return it.status();
      if ((*it)->end()) {
        checks->Fail("tpcb: no record with id " + std::to_string(id));
        return Status::NotFound("tpcb record");
      }
      auto rec = Traced(Kind::kCollection, "collection.iterator_write",
                        [&] { return (*it)->Write<TpcbRecord>(); });
      if (!rec.ok()) return rec.status();
      if ((*rec)->id_ != id) {
        checks->Fail("tpcb: lookup of id " + std::to_string(id) +
                     " returned id " + std::to_string((*rec)->id_));
      }
      (*rec)->balance_ += delta;
      TDB_RETURN_IF_ERROR(Traced(Kind::kCollection, "collection.iterator_close",
                                 [&] { return (*it)->Close(); }));
      Traced(Kind::kCollection, "collection.iterator_destroy",
             [&] { (*it).reset(); });
    }
    auto history = Traced(Kind::kCollection, "collection.write_collection",
                          [&] { return txn->WriteCollection("history"); });
    if (!history.ok()) return history.status();
    TDB_RETURN_IF_ERROR(
        Traced(Kind::kCollection, "collection.insert", [&] {
          return (*history)->Insert(
              &*txn, std::make_unique<TpcbRecord>(next_history_id_, delta));
        }).status());
    TDB_RETURN_IF_ERROR(Traced(Kind::kObject, "ctxn.commit",
                               [&] { return txn->Commit(true); }));
    Traced(Kind::kObject, "ctxn.end", [&] { txn.reset(); });
    acked_++;
    sum_delta_ += delta;
    next_history_id_++;
    return Status::OK();
  }

  uint64_t seed_;
  tdb::Random rng_;
  std::shared_ptr<RecordIndexer> indexer_;
  uint64_t acked_ = 0;
  int64_t sum_delta_ = 0;
  int32_t next_history_id_ = kHistoryInit;
};

}  // namespace

std::unique_ptr<Workload> MakeTpcb(uint64_t seed) {
  return std::make_unique<Tpcb>(seed);
}

}  // namespace perfbench
