// layer=ycsb|timeseries|largeobject: the reusable workload drivers
// (src/workload) instead of a synthetic trace, over the full stack. The
// TraceSpec's serialized fields map deterministically onto the scenario
// specs below — seed picks the YCSB mix (seed % 6) and all payloads,
// commits sizes the operation count, slots the record count or retention
// window — so a repro line replays bit-exactly. The oracle is keyed by
// logical scenario key: record key, timestamp, or large-object tag.
#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "harness/layer.h"
#include "workload/large_objects.h"
#include "workload/timeseries.h"
#include "workload/ycsb.h"

namespace tdb::harness {

namespace {

workload::YcsbSpec YcsbSpecFor(const TraceSpec& spec) {
  workload::YcsbSpec y;
  y.mix = workload::MixFromIndex(spec.seed);
  y.records = spec.slots;
  y.ops = spec.commits;
  y.value_bytes = 64;
  y.max_scan_len = 8;
  y.seed = spec.seed;
  y.p_durable = 0.5;
  y.max_inserts = spec.commits;  // Bounded keyspace growth.
  return y;
}

workload::TimeSeriesSpec TimeSeriesSpecFor(const TraceSpec& spec) {
  workload::TimeSeriesSpec t;
  t.seed = spec.seed;
  t.batches = spec.commits;
  t.points_per_batch = 4;
  t.value_bytes = 48;
  t.start_ts = 1000;
  t.ts_stride = 10;
  // Roughly `slots` points stay live; everything older is retention-fed
  // to the cleaner.
  t.retention_window = t.ts_stride * std::max<uint64_t>(1, spec.slots);
  t.retention_every = 3;
  t.scan_every = 2;
  t.p_durable = 0.5;
  return t;
}

workload::LargeObjectSpec LargeObjectSpecFor(const TraceSpec& spec) {
  workload::LargeObjectSpec l;
  l.seed = spec.seed;
  l.ops = spec.commits;
  l.part_bytes = 64;  // Small parts: every object spans several chunks.
  l.max_parts = 3;
  l.p_durable = 0.5;
  l.remove_every = 4;
  l.read_every = 2;
  return l;
}

/// Bridges the workload drivers' CommitHook onto the harness oracle.
class OracleHook final : public workload::CommitHook {
 public:
  explicit OracleHook(StateOracle* oracle) : oracle_(oracle) {}
  void BeginCommit() override { oracle_->BeginCommit(); }
  void PendingWrite(uint64_t id, Buffer image) override {
    oracle_->PendingWrite(id, std::move(image));
  }
  void PendingRemove(uint64_t id) override { oracle_->PendingRemove(id); }
  void EndCommit(bool acked, bool durable) override {
    oracle_->EndCommit(acked, durable);
  }

 private:
  StateOracle* oracle_;
};

class ScenarioLayer final : public Layer {
 public:
  ScenarioLayer(std::string scenario, const TraceSpec& spec)
      : scenario_(std::move(scenario)), spec_(spec) {}

  // Every scenario's classes are registered whichever one runs, so all
  // reopen paths are identical. The scenario creates its own structures
  // in Run, so its load commits are crash points too.
  Status Open(chunk::ChunkStoreInterface* chunks, bool /*create*/) override {
    TDB_ASSIGN_OR_RETURN(objects_, object::ObjectStore::Open(chunks));
    TDB_RETURN_IF_ERROR(workload::RegisterYcsbClasses(objects_.get()));
    TDB_RETURN_IF_ERROR(workload::RegisterTimeSeriesClasses(objects_.get()));
    TDB_RETURN_IF_ERROR(
        workload::RegisterLargeObjectWorkloadClasses(objects_.get()));
    TDB_ASSIGN_OR_RETURN(collections_,
                         collection::CollectionStore::Open(objects_.get()));
    return Status::OK();
  }

  void Drop() override {
    collections_.reset();
    objects_.reset();
  }

  Status Run(std::vector<StateOracle>* oracles, InFlight*) override {
    OracleHook hook(&(*oracles)[0]);
    if (scenario_ == "ycsb") {
      TDB_ASSIGN_OR_RETURN(
          std::unique_ptr<workload::YcsbDriver> driver,
          workload::YcsbDriver::Open(objects_.get(), collections_.get(),
                                     YcsbSpecFor(spec_), /*create=*/true,
                                     &hook));
      return driver->Run(/*stream=*/0, &hook);
    }
    if (scenario_ == "timeseries") {
      TDB_ASSIGN_OR_RETURN(std::unique_ptr<workload::TimeSeriesDriver> driver,
                           workload::TimeSeriesDriver::Open(
                               collections_.get(), TimeSeriesSpecFor(spec_),
                               /*create=*/true));
      return driver->Run(&hook);
    }
    TDB_ASSIGN_OR_RETURN(
        std::unique_ptr<workload::LargeObjectDriver> driver,
        workload::LargeObjectDriver::Open(objects_.get(),
                                          LargeObjectSpecFor(spec_),
                                          /*create=*/true));
    return driver->Run(&hook);
  }

  // Re-attaches the scenario driver and scans its committed state.
  Status ReadBack(const std::set<uint64_t>&,
                  StateOracle::State* out) override {
    if (scenario_ == "ycsb") {
      TDB_ASSIGN_OR_RETURN(
          std::unique_ptr<workload::YcsbDriver> driver,
          workload::YcsbDriver::Open(objects_.get(), collections_.get(),
                                     YcsbSpecFor(spec_), /*create=*/false));
      return driver->Scan(out);
    }
    if (scenario_ == "timeseries") {
      TDB_ASSIGN_OR_RETURN(std::unique_ptr<workload::TimeSeriesDriver> driver,
                           workload::TimeSeriesDriver::Open(
                               collections_.get(), TimeSeriesSpecFor(spec_),
                               /*create=*/false));
      return driver->ScanAll(out);
    }
    TDB_ASSIGN_OR_RETURN(
        std::unique_ptr<workload::LargeObjectDriver> driver,
        workload::LargeObjectDriver::Open(objects_.get(),
                                          LargeObjectSpecFor(spec_),
                                          /*create=*/false));
    return driver->ScanAll(out);
  }

  // Full-stack cases are heavy: half-write tear steps only.
  TearBuckets Tears(Preset) const override { return {{0, 2, 4}, 4}; }

 private:
  const std::string scenario_;
  const TraceSpec spec_;
  std::unique_ptr<object::ObjectStore> objects_;
  std::unique_ptr<collection::CollectionStore> collections_;
};

}  // namespace

std::unique_ptr<Layer> MakeScenarioLayer(const std::string& scenario,
                                         const TraceSpec& spec) {
  return std::make_unique<ScenarioLayer>(scenario, spec);
}

}  // namespace tdb::harness
