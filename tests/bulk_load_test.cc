// Bulk load: many records in ONE transaction under a small object cache.
//
// The object cache is no-steal (§4.2.2): a transaction's dirty objects stay
// cached until it commits, so a load transaction's write set can be many
// times the cache's capacity. Every open and every commit enforces the
// capacity; if that ever rescans the dirty set again, a 20,000-record load
// turns quadratic and this test runs into its ctest TIMEOUT instead of
// finishing in seconds.

#include <gtest/gtest.h>

#include <vector>

#include "collection/btree_index.h"
#include "collection/collection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::collection {
namespace {

constexpr object::ClassId kRowClass = 300;
constexpr int kRows = 20000;
constexpr size_t kCacheBytes = 256 * 1024;

class Row : public object::Object {
 public:
  Row() = default;
  Row(int64_t id, int64_t balance) : id_(id), balance_(balance) {}

  object::ClassId class_id() const override { return kRowClass; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt64(id_);
    p->PutInt64(balance_);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt64(&id_));
    return u->GetInt64(&balance_);
  }
  size_t ApproxSize() const override { return sizeof(*this); }

  int64_t id_ = 0;
  int64_t balance_ = 0;
};

std::shared_ptr<GenericIndexer> ById(IndexKind kind) {
  return std::make_shared<Indexer<Row, IntKey>>(
      "by-id", Uniqueness::kUnique, kind,
      [](const Row& r) { return IntKey(r.id_); });
}

struct Env {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;
  std::unique_ptr<CollectionStore> collections;

  Env() {
    TDB_CHECK(secrets.Provision(Slice("bulk-secret")).ok());
    Open();
  }

  void Open() {
    collections.reset();
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 256 * 1024;
    chunks = std::move(chunk::ChunkStore::Open(&store, &secrets, &counter,
                                               copts))
                 .value();
    object::ObjectStoreOptions oopts;
    oopts.cache_capacity_bytes = kCacheBytes;
    objects = std::move(object::ObjectStore::Open(chunks.get(), oopts))
                  .value();
    TDB_CHECK(objects->registry().Register<Row>(kRowClass).ok());
    collections = std::move(CollectionStore::Open(objects.get())).value();
  }

  void Restart() {
    TDB_CHECK(chunks->Close().ok());
    Open();
  }
};

class BulkLoadTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(BulkLoadTest, TwentyThousandRowsInOneTransaction) {
  Env env;
  auto indexer = ById(GetParam());
  {
    CTransaction txn(env.collections.get());
    auto coll = txn.CreateCollection("rows", indexer);
    ASSERT_TRUE(coll.ok()) << coll.status().ToString();
    for (int i = 0; i < kRows; i++) {
      auto oid = (*coll)->Insert(&txn, std::make_unique<Row>(i, 3 * i));
      ASSERT_TRUE(oid.ok()) << i << ": " << oid.status().ToString();
    }
    // The whole write set is pinned by no-steal, far over the capacity.
    EXPECT_GT(env.objects->cache_size_bytes(), kCacheBytes);
    ASSERT_TRUE(txn.Commit(/*durable=*/true).ok());
  }
  EXPECT_LE(env.objects->cache_size_bytes(), kCacheBytes);

  env.Restart();
  CTransaction txn(env.collections.get());
  auto coll = txn.ReadCollection("rows");
  ASSERT_TRUE(coll.ok()) << coll.status().ToString();
  auto it = (*coll)->Query(&txn, *indexer);
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  std::vector<bool> seen(kRows, false);
  int count = 0;
  for (; !(*it)->end(); (*it)->Next()) {
    auto row = (*it)->Read<Row>();
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    const int64_t id = (*row)->id_;
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kRows);
    EXPECT_FALSE(seen[id]) << "row " << id << " seen twice";
    EXPECT_EQ((*row)->balance_, 3 * id);
    seen[id] = true;
    count++;
  }
  ASSERT_TRUE((*it)->Close().ok());
  EXPECT_EQ(count, kRows);
  if (GetParam() == IndexKind::kBTree) {
    Status valid =
        BTreeIndex::Validate(txn.txn(), *indexer, (*coll)->indexes()[0].root);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
  // Point lookups through the index find their rows too.
  for (int i = 0; i < kRows; i += 997) {
    auto hit = (*coll)->Query(&txn, *indexer, IntKey(i));
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_FALSE((*hit)->end()) << "row " << i;
    EXPECT_EQ((*(*hit)->Read<Row>())->id_, i);
    ASSERT_TRUE((*hit)->Close().ok());
  }
  ASSERT_TRUE(txn.Commit(false).ok());
}

INSTANTIATE_TEST_SUITE_P(Kinds, BulkLoadTest,
                         ::testing::Values(IndexKind::kBTree,
                                           IndexKind::kHashTable),
                         [](const auto& info) {
                           return info.param == IndexKind::kBTree ? "BTree"
                                                                  : "Hash";
                         });

}  // namespace
}  // namespace tdb::collection
