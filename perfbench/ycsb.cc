// YCSB-style workloads over 10,000 records of 128 B.
//
//  ycsb_b: read-mostly licence and meter checks. 95% point reads in an
//  object::ReadTransaction, 5% updates in an object::Transaction (a quarter
//  of them durable), scrambled-zipfian keys, several client threads. The
//  whole live set fits the default caches, so the MVCC view, cache and
//  concurrency path do most of the work; the writes run beside the reads
//  so that a read-path gain which slows commits shows.
//
//  ycsb_e: short range scans. 95% scans of 1-16 records from a zipfian
//  start key over a B-tree collection, 5% durable inserts of new keys, one
//  client. The collection layer does almost all the work.
//
// Values are a pure function of (seed, key, version), so every read is
// checked against the exact bytes written for that key.
#include <atomic>
#include <cstring>
#include <optional>
#include <sstream>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "workload/key_chooser.h"

namespace perfbench {

namespace {

using tdb::Status;
namespace collection = tdb::collection;
namespace object = tdb::object;

constexpr object::ClassId kKvRecordClass = 201;
constexpr size_t kValueBytes = 128;
constexpr int64_t kRecords = 10000;
constexpr int kLoadBatch = 1000;
// Every 20th operation of a client is a write (5%), and every 4th write of
// ycsb_b is durable. A fixed schedule rather than a coin flip keeps the mix
// exact in every run, so per-operation costs do not move with it.
constexpr uint64_t kWriteEvery = 20;
constexpr uint64_t kDurableEvery = 4;

class KvRecord : public object::Object {
 public:
  KvRecord() = default;
  KvRecord(int64_t key, uint32_t version, tdb::Buffer value)
      : key_(key), version_(version), value_(std::move(value)) {}

  object::ClassId class_id() const override { return kKvRecordClass; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt64(key_);
    p->PutUint32(version_);
    p->PutBytes(value_);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt64(&key_));
    TDB_RETURN_IF_ERROR(u->GetUint32(&version_));
    return u->GetBytes(&value_);
  }
  size_t ApproxSize() const override { return sizeof(*this) + value_.size(); }

  int64_t key_ = 0;
  uint32_t version_ = 0;
  tdb::Buffer value_;
};

Status RegisterKv(object::ObjectStore* objects) {
  return objects->registry().Register<KvRecord>(kKvRecordClass);
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

tdb::Buffer MakeValue(uint64_t seed, int64_t key, uint32_t version) {
  uint64_t state = seed ^ (static_cast<uint64_t>(key) * 0xd6e8feb86659fd93ULL) ^
                   (static_cast<uint64_t>(version) << 40);
  tdb::Buffer value(kValueBytes);
  for (size_t i = 0; i < kValueBytes; i += 8) {
    const uint64_t word = SplitMix(&state);
    std::memcpy(value.data() + i, &word, 8);
  }
  return value;
}

bool ValueMatches(uint64_t seed, int64_t key, uint32_t version,
                  const tdb::Buffer& value) {
  return value == MakeValue(seed, key, version);
}

uint64_t ClientSeed(uint64_t seed, int client) {
  uint64_t state = seed + 0x51ed2705ULL * static_cast<uint64_t>(client + 1);
  return SplitMix(&state);
}

// A record as an operation saw it, copied out for the deferred check.
struct Seen {
  int64_t key = 0;
  uint32_t version = 0;
  tdb::Buffer value;
};

// --- ycsb_b ----------------------------------------------------------------

class YcsbB final : public Workload {
 public:
  YcsbB(uint64_t seed, int clients)
      : seed_(seed),
        clients_(clients),
        chooser_(kRecords),
        committed_(kRecords),
        durable_(kRecords),
        state_(clients) {}

  StackOptions stack_options() const override {
    StackOptions o;
    o.chunk.security = tdb::crypto::SecurityConfig::Modern();
    o.register_classes = RegisterKv;
    return o;
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "{\"records\": " << kRecords << ", \"value_bytes\": " << kValueBytes
        << ", \"keys\": \"scrambled zipfian, theta 0.99\""
        << ", \"read_share\": 0.95, \"update_share\": 0.05"
        << ", \"durable_update_share\": 0.25"
        << ", \"mix\": \"every 20th op of a client updates\""
        << ", \"clients\": " << clients_
        << ", \"tail_updates\": " << kTailUpdates << "}";
    return out.str();
  }

  int clients() const override { return clients_; }

  Status Populate(Stack* stack) override {
    oids_.assign(kRecords, object::kInvalidObjectId);
    for (int64_t k = 0; k < kRecords; k++) {
      committed_[k].store(1);
      durable_[k].store(1);
    }
    for (int c = 0; c < clients_; c++) {
      state_[c].rng = tdb::Random(ClientSeed(seed_, c));
      state_[c].ops = 0;
    }
    tail_rng_ = tdb::Random(ClientSeed(seed_, clients_));
    for (int64_t k = 0; k < kRecords;) {
      object::Transaction txn(stack->objects());
      const int64_t end = std::min(kRecords, k + kLoadBatch);
      for (; k < end; k++) {
        TDB_ASSIGN_OR_RETURN(oids_[k],
                             txn.Insert(std::make_unique<KvRecord>(
                                 k, 1, MakeValue(seed_, k, 1))));
      }
      TDB_RETURN_IF_ERROR(txn.Commit(k == kRecords));
    }
    return Status::OK();
  }

  Status Op(Stack* stack, int client, bool* write, CheckLog*) override {
    ClientState& st = state_[client];
    const int64_t key = static_cast<int64_t>(chooser_.Next(&st.rng));
    st.checked = false;
    *write = ++st.ops % kWriteEvery == 0;
    if (*write) {
      return Update(stack, key, st.ops % (kWriteEvery * kDurableEvery) == 0);
    }
    std::optional<object::ReadTransaction> rt;
    Traced(Kind::kObject, "object.read_txn_begin",
           [&] { rt.emplace(stack->objects()); });
    auto ref = Traced(Kind::kObject, "object.read_txn_open",
                      [&] { return rt->Open<KvRecord>(oids_[key]); });
    if (!ref.ok()) return ref.status();
    st.expected_key = key;
    st.seen.key = (*ref)->key_;
    st.seen.version = (*ref)->version_;
    st.seen.value = (*ref)->value_;
    st.checked = true;
    Traced(Kind::kObject, "object.read_txn_end", [&] { rt->End(); });
    return Status::OK();
  }

  void CheckOp(int client, CheckLog* checks) override {
    ClientState& st = state_[client];
    if (!st.checked) return;
    const Seen& s = st.seen;
    if (s.key != st.expected_key) {
      checks->Fail("ycsb_b: read of key " + std::to_string(st.expected_key) +
                   " returned key " + std::to_string(s.key));
    } else if (s.version > committed_[s.key].load() ||
               !ValueMatches(seed_, s.key, s.version, s.value)) {
      checks->Fail("ycsb_b: key " + std::to_string(s.key) +
                   " holds a value never written for it (version " +
                   std::to_string(s.version) + ")");
    }
  }

  Status Tail(Stack* stack, CheckLog*) override {
    for (int i = 1; i <= kTailUpdates; i++) {
      const int64_t key = static_cast<int64_t>(chooser_.Next(&tail_rng_));
      TDB_RETURN_IF_ERROR(Update(stack, key, i % kDurableEvery == 0));
    }
    return Status::OK();
  }

  void CheckState(Stack* stack, bool recovered, CheckLog* checks) override {
    object::ReadTransaction rt(stack->objects());
    for (int64_t k = 0; k < kRecords; k++) {
      auto ref = rt.Open<KvRecord>(oids_[k]);
      if (!ref.ok()) {
        checks->Fail("ycsb_b: key " + std::to_string(k) + ": " +
                     ref.status().ToString());
        continue;
      }
      const uint32_t v = (*ref)->version_;
      // Live: the last committed version. Recovered: anything from the
      // last durably acknowledged version up to the last committed one.
      const uint32_t lo = recovered ? durable_[k].load() : committed_[k].load();
      if ((*ref)->key_ != k || v < lo || v > committed_[k].load() ||
          !ValueMatches(seed_, k, v, (*ref)->value_)) {
        checks->Fail("ycsb_b: key " + std::to_string(k) + " holds version " +
                     std::to_string(v) + ", expected " + std::to_string(lo) +
                     ".." + std::to_string(committed_[k].load()));
      }
    }
  }

  double live_payload_bytes() const override {
    return static_cast<double>(kRecords) * kValueBytes;
  }

 private:
  static constexpr int kTailUpdates = 10000;

  struct alignas(64) ClientState {
    tdb::Random rng{0};
    uint64_t ops = 0;
    bool checked = false;
    int64_t expected_key = 0;
    Seen seen;
  };

  Status Update(Stack* stack, int64_t key, bool durable) {
    std::optional<object::Transaction> txn;
    Traced(Kind::kObject, "object.txn_begin",
           [&] { txn.emplace(stack->objects()); });
    auto ref = Traced(Kind::kObject, "object.open_writable",
                      [&] { return txn->OpenWritable<KvRecord>(oids_[key]); });
    if (!ref.ok()) return ref.status();
    // Versions are drawn under the exclusive lock, so they rise in commit
    // order for each key.
    const uint32_t version = committed_[key].fetch_add(1) + 1;
    (*ref)->version_ = version;
    (*ref)->value_ = MakeValue(seed_, key, version);
    TDB_RETURN_IF_ERROR(Traced(Kind::kObject, "object.commit",
                               [&] { return txn->Commit(durable); }));
    Traced(Kind::kObject, "object.txn_end", [&] { txn.reset(); });
    if (durable) {
      uint32_t cur = durable_[key].load();
      while (cur < version && !durable_[key].compare_exchange_weak(cur, version)) {
      }
    }
    return Status::OK();
  }

  uint64_t seed_;
  int clients_;
  tdb::workload::ScrambledZipfianChooser chooser_;
  std::vector<object::ObjectId> oids_;
  std::vector<std::atomic<uint32_t>> committed_;   // Last version committed.
  std::vector<std::atomic<uint32_t>> durable_;  // Last durably acked.
  std::vector<ClientState> state_;
  tdb::Random tail_rng_{0};
};

// --- ycsb_e ----------------------------------------------------------------

using KvIndexer = collection::Indexer<KvRecord, collection::IntKey>;

class YcsbE final : public Workload {
 public:
  explicit YcsbE(uint64_t seed)
      : seed_(seed),
        rng_(seed),
        chooser_(kRecords),
        indexer_(std::make_shared<KvIndexer>(
            "by-key", collection::Uniqueness::kUnique,
            collection::IndexKind::kBTree,
            [](const KvRecord& r) { return collection::IntKey(r.key_); })) {}

  StackOptions stack_options() const override {
    StackOptions o;
    o.chunk.security = tdb::crypto::SecurityConfig::Modern();
    o.collections = true;
    o.register_classes = RegisterKv;
    return o;
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "{\"records\": " << kRecords << ", \"value_bytes\": " << kValueBytes
        << ", \"index\": \"btree\", \"scan_share\": 0.95"
        << ", \"insert_share\": 0.05, \"mix\": \"every 20th op inserts\""
        << ", \"scan_length\": \"uniform 1..16\""
        << ", \"start_key\": \"scrambled zipfian, theta 0.99\""
        << ", \"scan_max_key\": \"open-ended\", \"durable_inserts\": true"
        << ", \"clients\": 1, \"load_batch\": " << kLoadBatch
        << ", \"tail_inserts\": " << kTailInserts << "}";
    return out.str();
  }

  Status Populate(Stack* stack) override {
    rng_ = tdb::Random(seed_);
    chooser_ = tdb::workload::ScrambledZipfianChooser(kRecords);
    records_ = 0;
    ops_ = 0;
    collection::CollectionStore* colls = stack->collections();
    {
      collection::CTransaction ddl(colls);
      TDB_RETURN_IF_ERROR(ddl.CreateCollection(kTable, indexer_).status());
      TDB_RETURN_IF_ERROR(ddl.Commit(false));
    }
    // Batched: one transaction over the whole table is far slower (a known
    // defect this benchmark does not measure).
    while (records_ < kRecords) {
      collection::CTransaction load(colls);
      TDB_ASSIGN_OR_RETURN(auto coll, load.WriteCollection(kTable));
      const int64_t end = std::min(kRecords, records_ + kLoadBatch);
      for (; records_ < end; records_++) {
        TDB_RETURN_IF_ERROR(
            coll->Insert(&load, std::make_unique<KvRecord>(
                                    records_, 1, MakeValue(seed_, records_, 1)))
                .status());
      }
      TDB_RETURN_IF_ERROR(load.Commit(records_ == kRecords));
    }
    return Status::OK();
  }

  Status Op(Stack* stack, int, bool* write, CheckLog*) override {
    scan_.clear();
    checked_ = false;
    *write = ++ops_ % kWriteEvery == 0;
    if (*write) return Insert(stack);
    start_ = static_cast<int64_t>(chooser_.Next(&rng_));
    length_ = static_cast<int64_t>(rng_.Range(1, 16));
    records_at_scan_ = records_;

    std::optional<collection::CTransaction> txn;
    Traced(Kind::kObject, "ctxn.begin",
           [&] { txn.emplace(stack->collections()); });
    auto coll = Traced(Kind::kCollection, "collection.read_collection",
                       [&] { return txn->ReadCollection(kTable); });
    if (!coll.ok()) return coll.status();
    collection::IntKey min(start_);
    auto it = Traced(Kind::kCollection, "collection.query_range", [&] {
      return (*coll)->Query(&*txn, *indexer_, &min, nullptr);
    });
    if (!it.ok()) return it.status();
    for (int64_t i = 0; i < length_ && !(*it)->end(); i++) {
      auto rec = Traced(Kind::kCollection, "collection.iterator_read",
                        [&] { return (*it)->Read<KvRecord>(); });
      if (!rec.ok()) return rec.status();
      scan_.push_back(Seen{(*rec)->key_, (*rec)->version_, (*rec)->value_});
      (*it)->Next();
    }
    TDB_RETURN_IF_ERROR(Traced(Kind::kCollection, "collection.iterator_close",
                               [&] { return (*it)->Close(); }));
    Traced(Kind::kCollection, "collection.iterator_destroy",
           [&] { (*it).reset(); });
    TDB_RETURN_IF_ERROR(Traced(Kind::kObject, "ctxn.commit",
                               [&] { return txn->Commit(false); }));
    Traced(Kind::kObject, "ctxn.end", [&] { txn.reset(); });
    checked_ = true;
    return Status::OK();
  }

  void CheckOp(int, CheckLog* checks) override {
    if (!checked_) return;
    // Keys are dense (0..records-1), so an ascending scan with no gaps from
    // `start_` is exactly start_, start_+1, ... for min(length, rest).
    const int64_t want = std::min(length_, records_at_scan_ - start_);
    if (static_cast<int64_t>(scan_.size()) != want) {
      checks->Fail("ycsb_e: scan from " + std::to_string(start_) +
                   " of length " + std::to_string(length_) + " returned " +
                   std::to_string(scan_.size()) + " records, expected " +
                   std::to_string(want));
      return;
    }
    for (size_t i = 0; i < scan_.size(); i++) {
      const Seen& s = scan_[i];
      if (s.key != start_ + static_cast<int64_t>(i) || s.version != 1 ||
          !ValueMatches(seed_, s.key, 1, s.value)) {
        checks->Fail("ycsb_e: scan from " + std::to_string(start_) +
                     " returned key " + std::to_string(s.key) +
                     " at position " + std::to_string(i));
        return;
      }
    }
  }

  Status Tail(Stack* stack, CheckLog*) override {
    for (int i = 0; i < kTailInserts; i++) TDB_RETURN_IF_ERROR(Insert(stack));
    return Status::OK();
  }

  void CheckState(Stack* stack, bool, CheckLog* checks) override {
    // Inserts are durable, so a recovered store must match the live one.
    collection::CTransaction txn(stack->collections());
    auto coll = txn.ReadCollection(kTable);
    if (!coll.ok()) {
      checks->Fail("ycsb_e: open: " + coll.status().ToString());
      return;
    }
    auto it = (*coll)->Query(&txn, *indexer_);
    if (!it.ok()) {
      checks->Fail("ycsb_e: scan: " + it.status().ToString());
      return;
    }
    int64_t next = 0;
    for (; !(*it)->end(); (*it)->Next(), next++) {
      auto rec = (*it)->Read<KvRecord>();
      if (!rec.ok() || (*rec)->key_ != next ||
          !ValueMatches(seed_, next, 1, (*rec)->value_)) {
        checks->Fail("ycsb_e: full scan diverges at position " +
                     std::to_string(next));
        return;
      }
    }
    (*it)->Close();
    txn.Commit(false);
    if (next != records_) {
      checks->Fail("ycsb_e: " + std::to_string(next) + " records, expected " +
                   std::to_string(records_));
    }
  }

  double live_payload_bytes() const override {
    return static_cast<double>(records_) * kValueBytes;
  }

 private:
  static constexpr const char* kTable = "usertable";
  static constexpr int kTailInserts = 2000;

  Status Insert(Stack* stack) {
    const int64_t key = records_;
    std::optional<collection::CTransaction> txn;
    Traced(Kind::kObject, "ctxn.begin",
           [&] { txn.emplace(stack->collections()); });
    auto coll = Traced(Kind::kCollection, "collection.write_collection",
                       [&] { return txn->WriteCollection(kTable); });
    if (!coll.ok()) return coll.status();
    TDB_RETURN_IF_ERROR(Traced(Kind::kCollection, "collection.insert", [&] {
                          return (*coll)->Insert(
                              &*txn, std::make_unique<KvRecord>(
                                         key, 1, MakeValue(seed_, key, 1)));
                        }).status());
    TDB_RETURN_IF_ERROR(Traced(Kind::kObject, "ctxn.commit",
                               [&] { return txn->Commit(true); }));
    Traced(Kind::kObject, "ctxn.end", [&] { txn.reset(); });
    records_++;
    chooser_.Grow(static_cast<uint64_t>(records_));
    return Status::OK();
  }

  uint64_t seed_;
  tdb::Random rng_;
  tdb::workload::ScrambledZipfianChooser chooser_;
  std::shared_ptr<KvIndexer> indexer_;
  int64_t records_ = 0;
  uint64_t ops_ = 0;
  // The last scan, for CheckOp.
  bool checked_ = false;
  int64_t start_ = 0;
  int64_t length_ = 0;
  int64_t records_at_scan_ = 0;
  std::vector<Seen> scan_;
};

}  // namespace

std::unique_ptr<Workload> MakeYcsbB(uint64_t seed, int clients) {
  return std::make_unique<YcsbB>(seed, clients);
}

std::unique_ptr<Workload> MakeYcsbE(uint64_t seed) {
  return std::make_unique<YcsbE>(seed);
}

}  // namespace perfbench
