#ifndef TDB_BENCH_WORKLOAD_TPCB_H_
#define TDB_BENCH_WORKLOAD_TPCB_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "crypto/cipher_suite.h"

namespace tdb::bench {

/// TPC-B configuration per the paper's §7.1: four tables of 100-byte
/// records with 4-byte unique ids; each transaction updates one random
/// Account, Teller and Branch record and inserts a History record.
///
/// The paper's sizes (Figure 9) are Account 100,000 / Teller 1,000 /
/// Branch 100 / History 252,000 with 200,000 transactions. Defaults here
/// are scaled by 1/10 so every bench binary finishes in seconds; set
/// scale = 10 (or env TPCB_SCALE=10) for the paper's full sizes.
struct TpcbConfig {
  int scale = 1;  // 1 => 1/10th of the paper's table sizes.
  int accounts() const { return 10000 * scale; }
  int tellers() const { return 100 * scale; }
  int branches() const { return 10 * scale; }
  int history_init() const { return 25200 * scale; }

  int txns = 10000;  // Response time is averaged over the later half.

  crypto::SecurityConfig security = crypto::SecurityConfig::Disabled();
  double max_utilization = 0.6;  // TDB only (the paper's default, §7.3).
  /// The paper gives both systems 4 MB of cache at its table sizes
  /// (scale 10 here); the cache scales with the workload so the paper's
  /// cache-pressure regime is preserved at reduced scale.
  uint64_t cache_bytes() const {
    uint64_t scaled = 4ull * 1024 * 1024 * scale / 10;
    return scaled < 256 * 1024 ? 256 * 1024 : scaled;
  }
  uint64_t seed = 42;

  /// Applies TPCB_SCALE / TPCB_TXNS environment overrides.
  void ApplyEnv();
};

struct TpcbResult {
  double avg_response_us = 0;     // Later-half average per transaction.
  double bytes_per_txn = 0;       // Store bytes written per txn, later half.
  uint64_t db_size_bytes = 0;     // Final database size.
  double utilization = 0;         // TDB only: final live/total.
  uint64_t txns = 0;
  double setup_seconds = 0;
  /// TDB only: the store's metrics registry at the end of the run (byte
  /// breakdown by record kind, segment census, cache and commit counters).
  common::MetricsSnapshot metrics;
};

/// Runs TPC-B against TDB (collection store over the full trusted stack)
/// using an in-memory untrusted store.
TpcbResult RunTdbTpcb(const TpcbConfig& config);

/// Runs TPC-B against the Berkeley-DB-style baseline engine.
TpcbResult RunBaselineTpcb(const TpcbConfig& config);

/// Prints a result row: "<label>  <avg us>  <bytes/txn>  <db MB>".
void PrintTpcbRow(const std::string& label, const TpcbResult& result);

}  // namespace tdb::bench

#endif  // TDB_BENCH_WORKLOAD_TPCB_H_
