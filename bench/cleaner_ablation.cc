// Ablation A2 (§3.2.1): log-cleaning cost. Measures commit latency and
// cleaner work for an overwrite-heavy workload across utilization targets,
// and shows that idle-time cleaning (the paper's DRM workload assumption)
// removes cleaning from the commit path.

#include <chrono>
#include <cstdio>

#include "chunk/chunk_store.h"
#include "common/random.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

int main() {
  using namespace tdb;
  using namespace tdb::chunk;
  using Clock = std::chrono::steady_clock;

  std::printf("=== Cleaner ablation: overwrite workload, 30k commits ===\n");
  std::printf("%-22s %12s %14s %12s %12s\n", "mode", "avg us/txn",
              "cleaned segs", "reloc MB", "final util");

  auto run = [&](const char* label, double max_util, bool idle_clean) {
    platform::MemUntrustedStore store;
    platform::MemSecretStore secrets;
    platform::MemOneWayCounter counter;
    (void)secrets.Provision(Slice("s")).ok();
    ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Disabled();
    options.segment_size = 64 * 1024;
    options.max_utilization = max_util;
    auto chunks = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                             options))
                      .value();
    Random rng(9);
    std::vector<ChunkId> cids;
    for (int i = 0; i < 2000; i++) {
      ChunkId cid = chunks->AllocateChunkId();
      Buffer data;
      rng.Fill(&data, 150);
      (void)chunks->Write(cid, data, false).ok();
      cids.push_back(cid);
    }
    (void)chunks->Checkpoint().ok();

    const int kTxns = 30000;
    auto start = Clock::now();
    for (int i = 0; i < kTxns; i++) {
      Buffer data;
      rng.Fill(&data, 150);
      (void)chunks->Write(cids[rng.Uniform(cids.size())], data,
                          i % 16 == 0)
          .ok();
      if (idle_clean && i % 256 == 0) {
        // "Idle period": clean outside the measured commit path (we still
        // count it in wall time here; the point is bounded commit cost).
        (void)chunks->Clean(2).ok();
      }
    }
    double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        kTxns;
    const ChunkStoreStats stats = chunks->Stats();
    std::printf("%-22s %12.2f %14llu %12.1f %12.2f\n", label, us,
                static_cast<unsigned long long>(stats.cleaned_segments),
                stats.relocated_bytes / (1024.0 * 1024.0),
                stats.utilization());
    (void)chunks->Close().ok();
  };

  run("util 0.5", 0.5, false);
  run("util 0.7", 0.7, false);
  run("util 0.9", 0.9, false);
  run("util 0.9 + idle clean", 0.9, true);
  return 0;
}
