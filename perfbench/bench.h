// Shared pieces of the end-to-end benchmark: the storage stack a workload
// runs on and the workload interface the runner drives.
#ifndef TDB_PERFBENCH_BENCH_H_
#define TDB_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "collection/collection.h"
#include "layers.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/secret_store.h"
#include "platform/sim_disk.h"

namespace perfbench {

/// How a workload wants its stack built.
struct StackOptions {
  StackOptions() {
    // Sealing runs on the thread that commits, so that thread's CPU time
    // is all of a commit's work. With the default pool (4 threads) a commit
    // of four or more writes hands its sealing to pool threads and waits
    // for them, and its time follows how soon the host's scheduler runs
    // them: on a shared host tpcb's wall-time spread between runs was a
    // third to a half of its median.
    chunk.crypto_threads = 1;
  }

  tdb::chunk::ChunkStoreOptions chunk;
  tdb::object::ObjectStoreOptions object;
  /// true: the counter is a file on the simulated disk (StoreBackedCounter,
  /// the paper's §7.2 emulation); false: MemOneWayCounter.
  bool counter_on_disk = false;
  /// Open a CollectionStore on top of the object store.
  bool collections = false;
  /// Registers the workload's persistent classes (runs right after the
  /// object store opens, before anything is read).
  std::function<tdb::Status(tdb::object::ObjectStore*)> register_classes;
};

/// One TDB instance: MemUntrustedStore under SimulatedDiskStore (a virtual
/// clock only; nothing sleeps), a one-way counter, and the chunk, object
/// and collection stores. With `traced`, the three decorators of layers.h
/// sit at the chunk, store and counter boundaries.
class Stack {
 public:
  /// A fresh, empty instance.
  Stack(const StackOptions& options, bool traced);
  /// An untraced instance over a copy of a crash image. `counter_value` is
  /// the in-memory counter's value at the image (ignored when the counter is
  /// a file, which the image already holds).
  Stack(const StackOptions& options,
        tdb::platform::MemUntrustedStore::Image image, uint64_t counter_value);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Provisions the secret, then opens (or recovers) the chunk, object and
  /// collection stores.
  tdb::Status Open();

  /// The crash image: every store file, taken without Close().
  tdb::platform::MemUntrustedStore::Image CrashImage() const {
    return mem_.SnapshotImage();
  }
  uint64_t counter_value() const;

  tdb::chunk::ChunkStore* chunk_store() { return chunks_.get(); }
  tdb::object::ObjectStore* objects() { return objects_.get(); }
  tdb::collection::CollectionStore* collections() { return colls_.get(); }
  const tdb::platform::MemUntrustedStore& mem() const { return mem_; }
  const tdb::platform::SimulatedDiskStore& disk() const { return disk_; }

  tdb::Status Close();

 private:
  void Wire();

  StackOptions options_;
  bool traced_;
  tdb::platform::MemUntrustedStore mem_;
  tdb::platform::SimulatedDiskStore disk_;
  std::unique_ptr<TracedStore> traced_store_;
  tdb::platform::UntrustedStore* store_ = nullptr;  // What the chunk store sees.
  std::unique_ptr<tdb::platform::OneWayCounter> counter_;
  std::unique_ptr<TracedCounter> traced_counter_;
  tdb::platform::MemSecretStore secrets_;
  // Destroyed in reverse order: collection, object, then chunk store.
  std::unique_ptr<tdb::chunk::ChunkStore> chunks_;
  std::unique_ptr<TracedChunkStore> traced_chunks_;
  std::unique_ptr<tdb::object::ObjectStore> objects_;
  std::unique_ptr<tdb::collection::CollectionStore> colls_;
};

/// Output-check failures seen by any thread. A run with any is incorrect.
class CheckLog {
 public:
  void Fail(const std::string& what);
  uint64_t count() const;
  std::vector<std::string> first() const;

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  std::vector<std::string> first_;  // Up to 8 messages.
};

/// A closed-loop workload. The runner calls Populate once per set-up, then
/// Op in a loop on clients() threads, then the checks.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual StackOptions stack_options() const = 0;
  /// The workload's own options (data, mix, clients), as a JSON object for
  /// the provenance line; the stack options are printed from
  /// stack_options().
  virtual std::string describe() const = 0;
  virtual int clients() const { return 1; }

  /// Loads the initial data into a freshly opened stack and resets every
  /// piece of workload state (the oracle) to match it.
  virtual tdb::Status Populate(Stack* stack) = 0;

  /// Runs one operation for `client` and sets `*write` when it was a write
  /// transaction. A non-OK status is a failed operation; wrong output goes
  /// to `checks`.
  virtual tdb::Status Op(Stack* stack, int client, bool* write,
                         CheckLog* checks) = 0;
  /// Checks the output of `client`'s last Op. The runner calls it after
  /// the op's latency is taken, so checking costs no latency.
  virtual void CheckOp(int client, CheckLog* checks) {
    (void)client;
    (void)checks;
  }

  /// Runs a fixed number of write operations on one thread, untimed, right
  /// after a checkpoint: the residual log a crash-image recovery replays.
  virtual tdb::Status Tail(Stack* stack, CheckLog* checks) = 0;

  /// Full-state output check against the oracle. `recovered` relaxes what
  /// a crash may legitimately lose (nondurable commits).
  virtual void CheckState(Stack* stack, bool recovered, CheckLog* checks) = 0;

  /// Live user payload bytes (the denominator of space_amp).
  virtual double live_payload_bytes() const = 0;

  /// The percentile op_ref_tail_us reports. p99 by default: p99.9 of a
  /// scan-bound run has only about ten samples beyond it, and on the
  /// four-client read mix it mostly shows the host scheduler.
  virtual double tail_percentile() const { return 0.99; }
};

std::unique_ptr<Workload> MakeTpcb(uint64_t seed);
std::unique_ptr<Workload> MakeYcsbB(uint64_t seed, int clients);
std::unique_ptr<Workload> MakeYcsbE(uint64_t seed);

}  // namespace perfbench

#endif  // TDB_PERFBENCH_BENCH_H_
