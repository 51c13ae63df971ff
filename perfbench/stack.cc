#include "bench.h"

namespace perfbench {

using tdb::Status;

Stack::Stack(const StackOptions& options, bool traced)
    : options_(options), traced_(traced), disk_(&mem_) {
  Wire();
}

Stack::Stack(const StackOptions& options,
             tdb::platform::MemUntrustedStore::Image image,
             uint64_t counter_value)
    : options_(options), traced_(false), disk_(&mem_) {
  mem_.RestoreImage(std::move(image));
  Wire();
  if (!options_.counter_on_disk) {
    for (uint64_t i = 0; i < counter_value; i++) counter_->Increment();
  }
}

void Stack::Wire() {
  store_ = &disk_;
  if (traced_) {
    traced_store_ = std::make_unique<TracedStore>(&disk_);
    store_ = traced_store_.get();
  }
  if (options_.counter_on_disk) {
    counter_ = std::make_unique<tdb::platform::StoreBackedCounter>(store_);
  } else {
    counter_ = std::make_unique<tdb::platform::MemOneWayCounter>();
  }
  if (traced_) traced_counter_ = std::make_unique<TracedCounter>(counter_.get());
}

uint64_t Stack::counter_value() const {
  auto v = counter_->Read();
  return v.ok() ? *v : 0;
}

Status Stack::Open() {
  TDB_RETURN_IF_ERROR(secrets_.Provision(tdb::Slice("perfbench-secret")));
  tdb::platform::OneWayCounter* counter = counter_.get();
  if (traced_counter_) counter = traced_counter_.get();
  TDB_ASSIGN_OR_RETURN(chunks_, tdb::chunk::ChunkStore::Open(
                                    store_, &secrets_, counter, options_.chunk));
  tdb::chunk::ChunkStoreInterface* chunks = chunks_.get();
  if (traced_) {
    traced_chunks_ = std::make_unique<TracedChunkStore>(chunks_.get());
    chunks = traced_chunks_.get();
  }
  TDB_ASSIGN_OR_RETURN(objects_,
                       tdb::object::ObjectStore::Open(chunks, options_.object));
  if (options_.register_classes) {
    TDB_RETURN_IF_ERROR(options_.register_classes(objects_.get()));
  }
  if (options_.collections) {
    TDB_ASSIGN_OR_RETURN(colls_,
                         tdb::collection::CollectionStore::Open(objects_.get()));
  }
  return Status::OK();
}

Status Stack::Close() {
  if (chunks_ == nullptr) return Status::OK();
  return chunks_->Close();
}

void CheckLog::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  count_++;
  if (first_.size() < 8) first_.push_back(what);
}

uint64_t CheckLog::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::vector<std::string> CheckLog::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

}  // namespace perfbench
