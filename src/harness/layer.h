#ifndef TDB_HARNESS_LAYER_H_
#define TDB_HARNESS_LAYER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/result.h"
#include "harness/oracle.h"
#include "harness/trace.h"
#include "object/object.h"
#include "object/object_store.h"

namespace tdb::harness {

/// The commit a crash interrupted, for the cross-shard all-or-nothing
/// check: its trace commit index (-1 = none) and the shards it touched.
struct InFlight {
  int commit = -1;
  std::vector<int> participants;
};

/// Torn-write fractions enumerated per crash point: nums[i] / den.
struct TearBuckets {
  std::vector<uint32_t> nums;
  uint32_t den = 4;
};

/// One layer of the stack as the sweep engine (engine.h) drives it; named
/// by the repro token `layer=`. The engine owns the stores, the chunk-level
/// store at the bottom of the stack, every crash and tamper, and every
/// check; a layer only turns the case's workload into calls on its own API
/// and reads the result back the same way.
class Layer {
 public:
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  virtual ~Layer() = default;

  /// Builds the layer on an open chunk-level store. `create` also runs the
  /// setup that precedes the workload (e.g. creating a collection); its
  /// writes are not crash points.
  virtual Status Open(chunk::ChunkStoreInterface* chunks, bool create) = 0;

  /// Releases what Open built, without a clean close.
  virtual void Drop() = 0;

  /// Runs the workload, mirroring every commit attempt into `oracles` (one
  /// per shard; an id belongs to shard id % oracles->size(); every commit
  /// seals a boundary on every oracle). A failed commit that touched
  /// several shards is reported in `inflight`. Returns the first failure.
  virtual Status Run(std::vector<StateOracle>* oracles,
                     InFlight* inflight) = 0;

  /// Reads every oracle id back through the layer's own API. Absent ids
  /// are left out of `out`; any other failure is returned.
  virtual Status ReadBack(const std::set<uint64_t>& ids,
                          StateOracle::State* out) = 0;

  /// Checks that a recovered stack accepts new durable work.
  virtual Status Probe() { return Status::OK(); }

  /// Torn fractions per crash point: n/4 for n in 0..4, or n/8 under
  /// group commit, where a merged multi-commit append spans more sectors
  /// and coarser fractions would skip its interior commit boundaries.
  virtual TearBuckets Tears(Preset preset) const {
    if (preset == Preset::kGroup) return {{0, 1, 2, 3, 4, 5, 6, 7, 8}, 8};
    return {{0, 1, 2, 3, 4}, 4};
  }
};

/// Closes trace commit `index` on every oracle (after its Pending* calls)
/// under the router's durability rule: a commit that touches several
/// shards is upgraded to durable, and a durable commit covers only the
/// shards it touches, except an empty one, which syncs every shard. A
/// failed commit is reported in `inflight`.
void EndCommit(std::vector<StateOracle>* oracles,
               const std::set<int>& participants, bool durable,
               const Status& status, size_t index, InFlight* inflight);

/// The adapter for `repro.layer`; `shards` oracles (one for the
/// single-store layers).
std::unique_ptr<Layer> MakeChunkLayer(const TraceSpec& spec, uint32_t shards);
std::unique_ptr<Layer> MakeObjectLayer(const TraceSpec& spec,
                                       uint32_t shards);
std::unique_ptr<Layer> MakeCollectionLayer(const TraceSpec& spec);
/// "ycsb" | "timeseries" | "largeobject".
std::unique_ptr<Layer> MakeScenarioLayer(const std::string& scenario,
                                         const TraceSpec& spec);

/// The harness's persistent test object: an immutable logical key (the
/// trace slot that created it) plus a mutable payload.
class HarnessBlob final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = 0x48424C42;  // "HBLB"

  HarnessBlob() = default;
  HarnessBlob(uint64_t key, Buffer bytes)
      : key_(key), bytes_(std::move(bytes)) {}

  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override { return 48 + bytes_.size(); }

  uint64_t key() const { return key_; }
  const Buffer& bytes() const { return bytes_; }
  void set_bytes(Buffer bytes) { bytes_ = std::move(bytes); }

 private:
  uint64_t key_ = 0;
  Buffer bytes_;
};

/// Registers HarnessBlob with a freshly opened store's class registry.
Status RegisterHarnessClasses(object::ObjectStore* os);

/// The oracle value of a blob: key and payload folded into one buffer, so
/// a key corruption is as detectable as a payload corruption.
Buffer BlobImage(uint64_t key, const Buffer& bytes);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_LAYER_H_
