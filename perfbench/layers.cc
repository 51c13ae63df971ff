#include "layers.h"

#include <algorithm>
#include <cstdlib>

namespace perfbench {

namespace {
thread_local OpTrace* tl_trace = nullptr;

// Span ids: thread index in the top 16 bits, a per-thread sequence below.
// Trace ids use the same layout with the operation sequence.
constexpr int kThreadShift = 48;
}  // namespace

using tdb::Buffer;
using tdb::Result;
using tdb::Slice;
using tdb::Status;
namespace chunk = tdb::chunk;

Layer LayerOf(Kind kind) {
  switch (kind) {
    case Kind::kOp:
      return Layer::kBench;
    case Kind::kCollection:
      return Layer::kCollection;
    case Kind::kObject:
      return Layer::kObject;
    case Kind::kChunkRead:
    case Kind::kChunkView:
    case Kind::kChunkCommit:
    case Kind::kChunkOther:
      return Layer::kChunk;
    default:
      return Layer::kPlatform;
  }
}

FileClass ClassifyFile(const std::string& name) {
  if (name.rfind("seg-", 0) == 0) return FileClass::kLog;
  if (name.rfind("anchor-", 0) == 0) return FileClass::kAnchor;
  if (name == "one-way-counter") return FileClass::kCounter;
  return FileClass::kOther;
}

void TraceTotals::Merge(const TraceTotals& other) {
  ops += other.ops;
  op_ns += other.op_ns;
  for (size_t i = 0; i < kNumKinds; i++) {
    self_ns[i] += other.self_ns[i];
    incl_ns[i] += other.incl_ns[i];
    calls[i] += other.calls[i];
  }
  for (size_t i = 0; i < kNumFileClasses; i++) {
    write_bytes[i] += other.write_bytes[i];
    modeled_ns[i] += other.modeled_ns[i];
  }
  sum_violations += other.sum_violations;
  max_sum_error_ratio = std::max(max_sum_error_ratio, other.max_sum_error_ratio);
  nesting_violations += other.nesting_violations;
}

OpTrace::OpTrace(uint32_t thread_index, size_t keep_ops)
    : thread_index_(thread_index), keep_ops_(keep_ops) {
  spans_.reserve(256);
}

void OpTrace::Install(OpTrace* trace) { tl_trace = trace; }
OpTrace* OpTrace::Current() { return tl_trace; }

void OpTrace::BeginOp(int64_t start_ns) {
  spans_.clear();
  open_ = -1;
  active_ = true;
  Begin(Kind::kOp, "op");
  spans_[0].start_ns = start_ns;
}

int32_t OpTrace::Begin(Kind kind, const char* name) {
  int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(SpanRecord{name, kind, open_, NowNs(), 0,
                              FileClass::kOther, 0, 0});
  open_ = index;
  return index;
}

void OpTrace::End(int32_t index) {
  spans_[index].end_ns = NowNs();
  open_ = spans_[index].parent;
}

void OpTrace::EndOp(int64_t end_ns) {
  End(0);
  spans_[0].end_ns = end_ns;
  active_ = false;
  op_seq_++;

  // Self time = duration minus the part of it that child spans cover
  // (their union, clipped to the parent). Spans are in start order, so
  // each parent's children arrive sorted and merge in one pass.
  const size_t n = spans_.size();
  self_.assign(n, 0);
  covered_to_.assign(n, 0);
  for (size_t i = 0; i < n; i++) {
    const SpanRecord& s = spans_[i];
    self_[i] += s.end_ns - s.start_ns;
    covered_to_[i] = s.start_ns;
    if (s.parent < 0) continue;
    const SpanRecord& p = spans_[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      totals_.nesting_violations++;
    }
    const int64_t from = std::max({s.start_ns, p.start_ns,
                                   covered_to_[s.parent]});
    const int64_t to = std::min(s.end_ns, p.end_ns);
    if (to > from) {
      self_[s.parent] -= to - from;
      covered_to_[s.parent] = to;
    }
  }
  int64_t sum = 0;
  for (size_t i = 0; i < n; i++) {
    const SpanRecord& s = spans_[i];
    const size_t k = static_cast<size_t>(s.kind);
    totals_.self_ns[k] += self_[i];
    totals_.incl_ns[k] += s.end_ns - s.start_ns;
    totals_.calls[k]++;
    if (s.kind == Kind::kStoreWrite) {
      totals_.write_bytes[static_cast<size_t>(s.file)] += s.bytes;
      totals_.modeled_ns[static_cast<size_t>(s.file)] += s.modeled_ns;
    }
    sum += self_[i];
  }
  const int64_t latency = spans_[0].end_ns - spans_[0].start_ns;
  totals_.ops++;
  totals_.op_ns += latency;

  const int64_t error = std::llabs(sum - latency);
  const double ratio =
      latency > 0 ? static_cast<double>(error) / latency : 0;
  totals_.max_sum_error_ratio = std::max(totals_.max_sum_error_ratio, ratio);
  if (error > std::max<int64_t>(
                  kLayerSumSlackNs,
                  static_cast<int64_t>(kLayerSumTolerance * latency))) {
    totals_.sum_violations++;
  }
  if (kept_ops_ < keep_ops_) Keep();
}

void OpTrace::Keep() {
  const uint64_t trace_id =
      (static_cast<uint64_t>(thread_index_ + 1) << kThreadShift) | op_seq_;
  const uint64_t first = next_span_;
  auto span_id = [&](int32_t i) {
    return (static_cast<uint64_t>(thread_index_ + 1) << kThreadShift) |
           (first + static_cast<uint64_t>(i) + 1);
  };
  for (size_t i = 0; i < spans_.size(); i++) {
    const SpanRecord& s = spans_[i];
    tdb::common::TraceEvent e;
    e.name = s.name;
    e.trace_id = trace_id;
    e.span_id = span_id(static_cast<int32_t>(i));
    e.parent_span_id = s.parent >= 0 ? span_id(s.parent) : 0;
    e.start_us = static_cast<uint64_t>(s.start_ns / 1000);
    e.duration_us = static_cast<uint64_t>((s.end_ns - s.start_ns) / 1000);
    e.thread_id = thread_index_;
    kept_.push_back(e);
  }
  next_span_ += spans_.size();
  kept_ops_++;
}

// --- TracedChunkStore --------------------------------------------------

chunk::ChunkId TracedChunkStore::AllocateChunkId() {
  return inner_->AllocateChunkId();
}

Result<Buffer> TracedChunkStore::Read(chunk::ChunkId cid) {
  ScopedSpan span(Kind::kChunkRead, "chunk.read");
  return inner_->Read(cid);
}

Status TracedChunkStore::Commit(const chunk::WriteBatch& batch,
                                bool durable) {
  ScopedSpan span(Kind::kChunkCommit, "chunk.commit");
  return inner_->Commit(batch, durable);
}

Result<chunk::CommitHandle> TracedChunkStore::CommitBuffered(
    const chunk::WriteBatch& batch, bool durable) {
  ScopedSpan span(Kind::kChunkCommit, "chunk.commit_buffered");
  return inner_->CommitBuffered(batch, durable);
}

Status TracedChunkStore::WaitDurable(chunk::CommitHandle& handle) {
  ScopedSpan span(Kind::kChunkCommit, "chunk.wait_durable");
  return inner_->WaitDurable(handle);
}

Status TracedChunkStore::Write(chunk::ChunkId cid, Slice data, bool durable) {
  ScopedSpan span(Kind::kChunkCommit, "chunk.write");
  return inner_->Write(cid, data, durable);
}

Status TracedChunkStore::Deallocate(chunk::ChunkId cid, bool durable) {
  ScopedSpan span(Kind::kChunkCommit, "chunk.deallocate");
  return inner_->Deallocate(cid, durable);
}

Status TracedChunkStore::Checkpoint() {
  ScopedSpan span(Kind::kChunkOther, "chunk.checkpoint");
  return inner_->Checkpoint();
}

Status TracedChunkStore::Clean(int max_segments) {
  ScopedSpan span(Kind::kChunkOther, "chunk.clean");
  return inner_->Clean(max_segments);
}

Status TracedChunkStore::VerifyIntegrity(uint64_t* chunks_checked) {
  ScopedSpan span(Kind::kChunkOther, "chunk.verify");
  return inner_->VerifyIntegrity(chunks_checked);
}

Result<std::shared_ptr<chunk::Snapshot>> TracedChunkStore::PinView() {
  ScopedSpan span(Kind::kChunkView, "chunk.pin_view");
  return inner_->PinView();
}

Result<Buffer> TracedChunkStore::ReadAtView(const chunk::Snapshot& view,
                                            chunk::ChunkId cid) {
  ScopedSpan span(Kind::kChunkRead, "chunk.read_at_view");
  return inner_->ReadAtView(view, cid);
}

Result<std::shared_ptr<const Buffer>> TracedChunkStore::ReadAtViewShared(
    const chunk::Snapshot& view, chunk::ChunkId cid) {
  ScopedSpan span(Kind::kChunkRead, "chunk.read_at_view_shared");
  return inner_->ReadAtViewShared(view, cid);
}

Result<std::vector<Buffer>> TracedChunkStore::ReadManyAtView(
    const chunk::Snapshot& view, const std::vector<chunk::ChunkId>& cids) {
  ScopedSpan span(Kind::kChunkRead, "chunk.read_many_at_view");
  return inner_->ReadManyAtView(view, cids);
}

chunk::ChunkStoreStats TracedChunkStore::Stats() const {
  return inner_->Stats();
}

const std::shared_ptr<tdb::common::MetricsRegistry>&
TracedChunkStore::metrics() const {
  return inner_->metrics();
}

uint64_t TracedChunkStore::next_chunk_id() const {
  return inner_->next_chunk_id();
}

Status TracedChunkStore::Close() {
  ScopedSpan span(Kind::kChunkOther, "chunk.close");
  return inner_->Close();
}

// --- TracedStore ---------------------------------------------------------

Status TracedStore::Create(const std::string& name, bool overwrite) {
  ScopedSpan span(Kind::kStoreOther, "store.create");
  return inner_->Create(name, overwrite);
}

Status TracedStore::Remove(const std::string& name) {
  ScopedSpan span(Kind::kStoreOther, "store.remove");
  return inner_->Remove(name);
}

bool TracedStore::Exists(const std::string& name) const {
  ScopedSpan span(Kind::kStoreOther, "store.exists");
  return inner_->Exists(name);
}

Status TracedStore::Read(const std::string& name, uint64_t offset, size_t n,
                         Buffer* out) const {
  ScopedSpan span(Kind::kStoreRead, "store.read");
  return inner_->Read(name, offset, n, out);
}

Status TracedStore::Write(const std::string& name, uint64_t offset,
                          Slice data) {
  ScopedSpan span(Kind::kStoreWrite, "store.write");
  const FileClass file = ClassifyFile(name);
  const double before = inner_->simulated_seconds();
  Status s = inner_->Write(name, offset, data);
  const double after = inner_->simulated_seconds();
  if (SpanRecord* r = span.record()) {
    r->file = file;
    r->bytes = data.size();
    r->modeled_ns = static_cast<int64_t>((after - before) * 1e9);
  }
  return s;
}

Result<uint64_t> TracedStore::Size(const std::string& name) const {
  ScopedSpan span(Kind::kStoreOther, "store.size");
  return inner_->Size(name);
}

Status TracedStore::Truncate(const std::string& name, uint64_t size) {
  ScopedSpan span(Kind::kStoreOther, "store.truncate");
  return inner_->Truncate(name, size);
}

Status TracedStore::Sync(const std::string& name) {
  ScopedSpan span(Kind::kStoreSync, "store.sync");
  return inner_->Sync(name);
}

std::vector<std::string> TracedStore::List() const {
  ScopedSpan span(Kind::kStoreOther, "store.list");
  return inner_->List();
}

// --- TracedCounter -------------------------------------------------------

Result<uint64_t> TracedCounter::Read() const {
  ScopedSpan span(Kind::kCounterRead, "counter.read");
  return inner_->Read();
}

Result<uint64_t> TracedCounter::Increment() {
  ScopedSpan span(Kind::kCounter, "counter.increment");
  return inner_->Increment();
}

}  // namespace perfbench
