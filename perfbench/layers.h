// Per-layer tracing for the end-to-end benchmark, applied from outside the
// library: forwarding decorators at the stack's public virtual boundaries
// (chunk::ChunkStoreInterface, platform::UntrustedStore,
// platform::OneWayCounter) plus ScopedSpan around the benchmark's own
// calls into the collection and object APIs.
//
// Spans live in a per-thread OpTrace owned by the client thread that runs
// the operation. A span is recorded only while that thread has a traced
// operation open; calls from any other thread (or between operations)
// pass straight through. Timestamps are steady_clock nanoseconds, so the
// self-time arithmetic never rounds.
#ifndef TDB_PERFBENCH_LAYERS_H_
#define TDB_PERFBENCH_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/trace.h"
#include "platform/one_way_counter.h"
#include "platform/sim_disk.h"
#include "platform/untrusted_store.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span covers. The layer of a kind is LayerOf(kind).
enum class Kind : uint8_t {
  kOp,            // One benchmark operation (the root of its tree).
  kCollection,    // A benchmark call into the collection API.
  kObject,        // A benchmark call into the object API.
  kChunkRead,     // Read / ReadAtView / ReadAtViewShared / ReadManyAtView.
  kChunkView,     // PinView.
  kChunkCommit,   // Commit / CommitBuffered / WaitDurable / Write / Deallocate.
  kChunkOther,    // Checkpoint, Clean, VerifyIntegrity, ...
  kStoreRead,
  kStoreWrite,
  kStoreSync,
  kStoreOther,    // Create, Remove, Size, Truncate, Exists, List.
  kCounter,       // One-way counter Increment.
  kCounterRead,   // One-way counter Read.
  kNumKinds,
};
constexpr size_t kNumKinds = static_cast<size_t>(Kind::kNumKinds);

enum class Layer : uint8_t { kBench, kCollection, kObject, kChunk, kPlatform };
constexpr size_t kNumLayers = 5;
Layer LayerOf(Kind kind);

/// File classes of the untrusted store, by name: log segments ("seg-*"),
/// the two anchor slots ("anchor-*"), the one-way counter file, the rest.
enum class FileClass : uint8_t { kLog, kAnchor, kCounter, kOther };
constexpr size_t kNumFileClasses = 4;
FileClass ClassifyFile(const std::string& name);

struct SpanRecord {
  const char* name;
  Kind kind;
  int32_t parent;  // Index into the op's span list; -1 for the root.
  int64_t start_ns;
  int64_t end_ns;
  FileClass file;       // Store spans only.
  uint64_t bytes;       // Store writes: bytes handed to the store.
  int64_t modeled_ns;   // Store writes: simulated-disk time charged.
};

/// Totals over the traced operations of one client thread; merged across
/// threads at the end of the run.
struct TraceTotals {
  uint64_t ops = 0;
  int64_t op_ns = 0;  // Sum of root-span durations.
  std::array<int64_t, kNumKinds> self_ns{};
  std::array<int64_t, kNumKinds> incl_ns{};
  std::array<uint64_t, kNumKinds> calls{};
  std::array<uint64_t, kNumFileClasses> write_bytes{};
  std::array<int64_t, kNumFileClasses> modeled_ns{};
  // Layer-sum check: per operation, |sum of self times - the operation's
  // latency| against the stated tolerance. They differ only when spans
  // overlap or escape their parent.
  uint64_t sum_violations = 0;
  double max_sum_error_ratio = 0;
  // Nesting check: every child span lies inside its parent.
  uint64_t nesting_violations = 0;

  void Merge(const TraceTotals& other);
};

/// Tolerance of the layer-sum check: 1% of the operation's latency or 2 us,
/// whichever is larger.
constexpr double kLayerSumTolerance = 0.01;
constexpr int64_t kLayerSumSlackNs = 2000;

/// Spans of operations on one client thread.
class OpTrace {
 public:
  /// `thread_index` makes trace and span ids unique across threads;
  /// `keep_ops` bounds the operations whose spans are kept for export.
  OpTrace(uint32_t thread_index, size_t keep_ops);

  /// Installs this trace as the calling thread's current one (or removes
  /// it with nullptr).
  static void Install(OpTrace* trace);
  static OpTrace* Current();

  /// Opens the root span of an operation at `start_ns` (the client loop's
  /// own clock reading); spans record until EndOp.
  void BeginOp(int64_t start_ns);
  /// Closes the root at `end_ns`, folds the op's self times into
  /// totals(), and checks that they add up to its latency.
  void EndOp(int64_t end_ns);
  bool active() const { return active_; }

  int32_t Begin(Kind kind, const char* name);
  void End(int32_t index);
  SpanRecord& span(int32_t index) { return spans_[index]; }

  const TraceTotals& totals() const { return totals_; }
  /// Spans of the kept operations, one tree (trace id) per operation.
  const std::vector<tdb::common::TraceEvent>& kept() const { return kept_; }
  size_t kept_ops() const { return kept_ops_; }

 private:
  void Keep();

  uint32_t thread_index_;
  size_t keep_ops_;
  bool active_ = false;
  int32_t open_ = -1;
  uint64_t op_seq_ = 0;
  uint64_t next_span_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> self_;
  std::vector<int64_t> covered_to_;  // Per span: end of its covered prefix.
  TraceTotals totals_;
  std::vector<tdb::common::TraceEvent> kept_;
  size_t kept_ops_ = 0;
};

/// Records [construction, destruction) as a span of the calling thread's
/// open operation, or does nothing when there is none.
class ScopedSpan {
 public:
  ScopedSpan(Kind kind, const char* name) {
    OpTrace* t = OpTrace::Current();
    if (t != nullptr && t->active()) {
      trace_ = t;
      index_ = t->Begin(kind, name);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The open record, or nullptr when not recording.
  SpanRecord* record() {
    return trace_ != nullptr ? &trace_->span(index_) : nullptr;
  }

 private:
  OpTrace* trace_ = nullptr;
  int32_t index_ = -1;
};

/// Runs `f` inside a span and returns its result.
template <typename F>
auto Traced(Kind kind, const char* name, F&& f) {
  ScopedSpan span(kind, name);
  return std::forward<F>(f)();
}

/// Forwarding decorator over the chunk store.
class TracedChunkStore final : public tdb::chunk::ChunkStoreInterface {
 public:
  explicit TracedChunkStore(tdb::chunk::ChunkStoreInterface* inner)
      : inner_(inner) {}

  tdb::chunk::ChunkId AllocateChunkId() override;
  tdb::Result<tdb::Buffer> Read(tdb::chunk::ChunkId cid) override;
  tdb::Status Commit(const tdb::chunk::WriteBatch& batch,
                     bool durable) override;
  tdb::Result<tdb::chunk::CommitHandle> CommitBuffered(
      const tdb::chunk::WriteBatch& batch, bool durable) override;
  tdb::Status WaitDurable(tdb::chunk::CommitHandle& handle) override;
  tdb::Status Write(tdb::chunk::ChunkId cid, tdb::Slice data,
                    bool durable) override;
  tdb::Status Deallocate(tdb::chunk::ChunkId cid, bool durable) override;
  tdb::Status Checkpoint() override;
  tdb::Status Clean(int max_segments) override;
  tdb::Status VerifyIntegrity(uint64_t* chunks_checked) override;
  tdb::Result<std::shared_ptr<tdb::chunk::Snapshot>> PinView() override;
  tdb::Result<tdb::Buffer> ReadAtView(const tdb::chunk::Snapshot& view,
                                      tdb::chunk::ChunkId cid) override;
  tdb::Result<std::shared_ptr<const tdb::Buffer>> ReadAtViewShared(
      const tdb::chunk::Snapshot& view, tdb::chunk::ChunkId cid) override;
  tdb::Result<std::vector<tdb::Buffer>> ReadManyAtView(
      const tdb::chunk::Snapshot& view,
      const std::vector<tdb::chunk::ChunkId>& cids) override;
  tdb::chunk::ChunkStoreStats Stats() const override;
  const std::shared_ptr<tdb::common::MetricsRegistry>& metrics()
      const override;
  uint64_t next_chunk_id() const override;
  tdb::Status Close() override;

 private:
  tdb::chunk::ChunkStoreInterface* inner_;
};

/// Forwarding decorator over the simulated disk. Each write's simulated
/// time is attributed to the file class written.
class TracedStore final : public tdb::platform::UntrustedStore {
 public:
  explicit TracedStore(tdb::platform::SimulatedDiskStore* disk)
      : inner_(disk) {}

  tdb::Status Create(const std::string& name, bool overwrite) override;
  tdb::Status Remove(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  tdb::Status Read(const std::string& name, uint64_t offset, size_t n,
                   tdb::Buffer* out) const override;
  tdb::Status Write(const std::string& name, uint64_t offset,
                    tdb::Slice data) override;
  tdb::Result<uint64_t> Size(const std::string& name) const override;
  tdb::Status Truncate(const std::string& name, uint64_t size) override;
  tdb::Status Sync(const std::string& name) override;
  std::vector<std::string> List() const override;

 private:
  tdb::platform::SimulatedDiskStore* inner_;
};

/// Forwarding decorator over the one-way counter.
class TracedCounter final : public tdb::platform::OneWayCounter {
 public:
  explicit TracedCounter(tdb::platform::OneWayCounter* inner)
      : inner_(inner) {}

  tdb::Result<uint64_t> Read() const override;
  tdb::Result<uint64_t> Increment() override;

 private:
  tdb::platform::OneWayCounter* inner_;
};

}  // namespace perfbench

#endif  // TDB_PERFBENCH_LAYERS_H_
