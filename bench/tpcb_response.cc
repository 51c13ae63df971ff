// Reproduces the paper's Figure 9 (TPC-B table sizes) and Figure 10
// (average TPC-B response time: Berkeley DB vs TDB vs TDB-S).
//
// Paper numbers (733 MHz P3, EIDE disk, WRITE_THROUGH):
//   BerkeleyDB 6.8 ms, TDB 3.8 ms (~56%), TDB-S 5.8 ms (~85%);
//   bytes written per transaction: BDB ~1100 vs TDB ~523.
// Absolute times differ on modern hardware with an in-memory store; the
// SHAPE to check is TDB < TDB-S < Baseline and TDB writing roughly half
// the bytes per transaction of the baseline.
//
//   tpcb_response [--metrics-json=FILE]
//
// --metrics-json writes the TDB-S run's metrics registry to FILE; render
// it with `tdbstat --snapshot FILE` (bytes by record kind, segment census,
// cache and commit counters).

#include <cstdio>
#include <fstream>
#include <string>

#include "workload/tpcb.h"

int main(int argc, char** argv) {
  using namespace tdb::bench;

  std::string metrics_path;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(sizeof("--metrics-json=") - 1);
    } else {
      std::fprintf(stderr, "usage: %s [--metrics-json=FILE]\n", argv[0]);
      return 2;
    }
  }

  TpcbConfig config;
  config.ApplyEnv();

  std::printf("=== Figure 9: TPC-B collections and sizes (scale %d) ===\n",
              config.scale);
  std::printf("%-12s %10s   (paper, scale 10)\n", "Collection", "Size");
  std::printf("%-12s %10d   (100000)\n", "Account", config.accounts());
  std::printf("%-12s %10d   (1000)\n", "Teller", config.tellers());
  std::printf("%-12s %10d   (100)\n", "Branch", config.branches());
  std::printf("%-12s %10d   (252000)\n", "History", config.history_init());
  std::printf("\n");

  std::printf(
      "=== Figure 10: avg TPC-B response time (%d txns, later half "
      "measured) ===\n",
      config.txns);
  std::printf("%-12s %12s %14s %13s\n", "system", "avg us/txn", "bytes/txn",
              "db size");

  TpcbResult baseline = RunBaselineTpcb(config);
  PrintTpcbRow("BaselineDB", baseline);

  TpcbConfig tdb_config = config;
  tdb_config.security = tdb::crypto::SecurityConfig::Disabled();
  TpcbResult tdb = RunTdbTpcb(tdb_config);
  PrintTpcbRow("TDB", tdb);

  TpcbConfig tdbs_config = config;
  tdbs_config.security = tdb::crypto::SecurityConfig::PaperTdbS();
  TpcbResult tdbs = RunTdbTpcb(tdbs_config);
  PrintTpcbRow("TDB-S", tdbs);
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    out << tdbs.metrics.ToJson() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }

  TpcbConfig modern_config = config;
  modern_config.security = tdb::crypto::SecurityConfig::Modern();
  TpcbResult modern = RunTdbTpcb(modern_config);
  PrintTpcbRow("TDB-S/AES", modern);

  std::printf("\n--- shape vs paper ---\n");
  std::printf("TDB / Baseline response ratio:   %.2f   (paper: 0.56)\n",
              tdb.avg_response_us / baseline.avg_response_us);
  std::printf("TDB-S / Baseline response ratio: %.2f   (paper: 0.85)\n",
              tdbs.avg_response_us / baseline.avg_response_us);
  std::printf("TDB / Baseline bytes per txn:    %.2f   (paper: 523/1100 = 0.48)\n",
              tdb.bytes_per_txn / baseline.bytes_per_txn);
  bool shape_ok = tdb.avg_response_us < tdbs.avg_response_us &&
                  tdb.bytes_per_txn < baseline.bytes_per_txn;
  std::printf("shape (TDB < TDB-S, TDB bytes < Baseline bytes): %s\n",
              shape_ok ? "HOLDS" : "VIOLATED");
  return shape_ok ? 0 : 1;
}
