// End-to-end TDB benchmark: one closed-loop workload per run, against the
// public library API, with its outputs checked.
//
//   tdb_perfbench --workload tpcb|ycsb_b|ycsb_e --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR] [--revision REV]
//
// A run sets the store up at least three times and for at least three
// seconds (setup_s is the median). The first set-up store then takes a
// checkpoint and a fixed tail of writes, and its crash image (taken without
// Close()) is reopened in four batches over the run (recovery_s is the
// median reopen). The last set-up store is measured for S seconds, then
// scrubbed (VerifyIntegrity) and checked against the workload's oracle,
// and so is the store recovered from its own crash image.
//
// --trace 0 wires the stack directly and prints the end-to-end metrics.
// Their times are reference CPU times: the CPU time of the thread that does
// the work, divided by how much slower than a reference host the host ran
// meanwhile (see SpeedProbe). CPU time is the CPU half of the paper's TPC-B
// response time (Figure 10; modeled_io_ms_per_op is the disk half). The
// raw CPU and wall-clock figures go to the summary line.
// --trace 1 wires the layer decorators in, alternates untraced and traced
// slices of the measured phase, and prints the per-layer metrics; spans of
// the first operations go to DIR as Chrome trace-event JSON.
//
// The last stdout line is the result object; lines before it carry the
// provenance and a human-readable summary. Exit code 0 only when the run
// completed (the result's "correct" says whether every check passed).
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/trace_export.h"

namespace perfbench {
namespace {

using tdb::Status;

// Short set-ups and reopens are repeated until they add up to a few
// tenths of a second or more, so their statistics rest on many samples.
constexpr int kSetups = 3;
constexpr double kMinSetupSeconds = 3;
constexpr double kRecoveryBatchSeconds = 0.5;
constexpr size_t kKeepOpsPerThread = 200;
constexpr int64_t kSliceNs = 200'000'000;  // Traced/untraced alternation.
// Throughput and latency percentiles are medians over windows of the
// measured phase, so a burst of load from outside the benchmark moves them
// less (see WindowedPercentileUs).
constexpr int64_t kWindowNs = 1'000'000'000;

int64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

int BuildOptimized() {
#ifdef __OPTIMIZE__
  return 1;
#else
  return 0;
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--revision") {
      args->revision = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "tdb_perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of sorted nanoseconds, in microseconds.
double PercentileUs(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1] / 1000.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); i++) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// The p-th percentile of the latencies in `windows`, as the median over
// groups of consecutive windows, each group big enough to hold at least ten
// samples beyond the percentile. With fewer than three such groups it is
// the percentile of the whole phase.
double WindowedPercentileUs(const std::vector<std::vector<int64_t>>& windows,
                            double p) {
  size_t total = 0;
  for (const auto& w : windows) total += w.size();
  const size_t groups =
      std::min(windows.size(), static_cast<size_t>(total * (1 - p) / 10));
  auto percentile_of = [&](size_t from, size_t to) {
    std::vector<int64_t> merged;
    for (size_t w = from; w < to; w++) {
      merged.insert(merged.end(), windows[w].begin(), windows[w].end());
    }
    std::sort(merged.begin(), merged.end());
    return PercentileUs(merged, p);
  };
  if (groups < 3) return percentile_of(0, windows.size());
  std::vector<double> per_group;
  for (size_t g = 0; g < groups; g++) {
    per_group.push_back(percentile_of(g * windows.size() / groups,
                                      (g + 1) * windows.size() / groups));
  }
  return Median(per_group);
}

// --- Host speed ----------------------------------------------------------

// The CPU time of the same work moves by a fifth to a third between
// minutes on a shared host, with whatever else the machine runs (the
// core's other hardware thread, the shared caches and memory). So the times
// the benchmark reports are CPU times divided by the host's slowdown,
// measured on the same thread next to them with a probe: a fixed piece of
// the benchmark's own work, in which no library code runs. Its far part
// chases pointers through a table far larger than a core's private caches,
// as lookups miss; its near part chases them through a table it has just
// warmed, as ciphers and hashes run from the core's caches. The slowdown
// weighs their medians 3:7 against their times on the reference host, a
// 4-vCPU Xeon VM; that weighting tracked the workloads' own CPU times best
// there.
constexpr int64_t kFarRefNs = 60'000;
constexpr int64_t kNearRefNs = 15'000;
constexpr double kFarWeight = 0.3;
constexpr int64_t kProbeEveryNs = 20'000'000;  // Per client, measured phase.
constexpr int kProbeBurst = 5;                 // Around a set-up or reopen.

struct ProbeSamples {
  std::vector<int64_t> far_ns;
  std::vector<int64_t> near_ns;

  void Merge(const ProbeSamples& other) {
    far_ns.insert(far_ns.end(), other.far_ns.begin(), other.far_ns.end());
    near_ns.insert(near_ns.end(), other.near_ns.begin(), other.near_ns.end());
  }
  bool empty() const { return far_ns.empty(); }
  double FarMedian() const {
    return Median(std::vector<double>(far_ns.begin(), far_ns.end()));
  }
  double NearMedian() const {
    return Median(std::vector<double>(near_ns.begin(), near_ns.end()));
  }
  // How much slower the host ran than the reference host (1 = as fast).
  double Slowdown() const {
    if (empty()) return 1;
    return kFarWeight * FarMedian() / kFarRefNs +
           (1 - kFarWeight) * NearMedian() / kNearRefNs;
  }
};

class SpeedProbe {
 public:
  SpeedProbe() : near_(RandomCycle(1 << 14, 2)) {}

  void Run(ProbeSamples* out) {
    // 256 steps through 16 MB: hardly a step finds its line in a core's
    // private caches, whether the probe ran a moment ago or not.
    static const std::vector<uint32_t> far = RandomCycle(1 << 22, 1);
    const int64_t t0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    uint32_t at = Chase(far, 256, 0);
    const int64_t t1 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    for (size_t i = 0; i < near_.size(); i += 16) at ^= near_[i];
    const int64_t t2 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    at = Chase(near_, 4096, at % near_.size());
    const int64_t t3 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    sink_ = sink_ + at;
    out->far_ns.push_back(t1 - t0);
    out->near_ns.push_back(t3 - t2);
  }

  // The slowdown over a burst of probes.
  double Burst() {
    ProbeSamples samples;
    for (int i = 0; i < kProbeBurst; i++) Run(&samples);
    return samples.Slowdown();
  }

 private:
  // A permutation of 0..n-1 that is one cycle (Sattolo's algorithm).
  static std::vector<uint32_t> RandomCycle(uint32_t n, uint64_t seed) {
    std::vector<uint32_t> next(n);
    for (uint32_t i = 0; i < n; i++) next[i] = i;
    for (uint32_t i = n - 1; i > 0; i--) {
      uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      std::swap(next[i], next[(z ^ (z >> 27)) % i]);
    }
    return next;
  }

  static uint32_t Chase(const std::vector<uint32_t>& next, int steps,
                        uint32_t at) {
    for (int i = 0; i < steps; i++) at = next[at];
    return at;
  }

  std::vector<uint32_t> near_;
  volatile uint32_t sink_ = 0;
};

// --- Measured phase ------------------------------------------------------

// Latencies of completed operations in nanoseconds, by window.
struct Latencies {
  std::vector<std::vector<int64_t>> all;
  std::vector<std::vector<int64_t>> writes;

  void Add(size_t window, int64_t ns, bool write) {
    if (all.size() <= window) {
      all.resize(window + 1);
      writes.resize(window + 1);
    }
    all[window].push_back(ns);
    if (write) writes[window].push_back(ns);
  }
  // Appends `other`'s first `windows` windows to this one's (sized to
  // `windows` already).
  void Merge(const Latencies& other, size_t windows) {
    for (size_t w = 0; w < std::min(windows, other.all.size()); w++) {
      all[w].insert(all[w].end(), other.all[w].begin(), other.all[w].end());
      writes[w].insert(writes[w].end(), other.writes[w].begin(),
                       other.writes[w].end());
    }
  }
};

struct ClientOutcome {
  Latencies wall;
  Latencies cpu;
  std::vector<ProbeSamples> probes;  // By window; untraced runs only.
  std::vector<double> space_amp;     // Client 0, at each window's start.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  std::unique_ptr<OpTrace> trace;
};

struct PhaseOutcome {
  uint64_t ops = 0;
  uint64_t writes = 0;
  // Whole windows only, merged across clients.
  Latencies wall;
  Latencies cpu;
  Latencies ref;  // CPU times over the window's slowdown (untraced runs).
  std::vector<double> window_slowdown;
  ProbeSamples probes;
  std::vector<double> space_amp;
  std::vector<double> window_ops_per_s;
  std::vector<double> window_ops_per_ref_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  // Traced mode only.
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  double traced_s = 0;
  double untraced_s = 0;
  TraceTotals totals;
  std::vector<tdb::common::TraceEvent> kept;
  size_t kept_ops = 0;
};

// Runs `workload` closed-loop on its client threads for `seconds`. In
// traced mode the main thread flips `slice_on` every kSliceNs; an
// operation is traced when the slice it starts in is. Untraced, each
// client runs the speed probe every kProbeEveryNs between operations.
// Client 0 samples the space amplification once a window: the cleaner
// saws the store's footprint up and down, so one sample at the end would
// land on either edge.
PhaseOutcome RunPhase(Workload* workload, Stack* stack, double seconds,
                      bool traced, CheckLog* checks) {
  const int clients = workload->clients();
  std::vector<ClientOutcome> out(clients);
  std::atomic<bool> stop{false};
  std::atomic<bool> slice_on{false};
  std::vector<std::thread> threads;
  const int64_t start = NowNs();
  for (int c = 0; c < clients; c++) {
    threads.emplace_back([&, c] {
      ClientOutcome& o = out[c];
      SpeedProbe probe;
      int64_t next_probe = start;
      if (traced) {
        o.trace = std::make_unique<OpTrace>(c, kKeepOpsPerThread);
        OpTrace::Install(o.trace.get());
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const bool trace_op = traced && slice_on.load(std::memory_order_relaxed);
        bool write = false;
        const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
        const int64_t t0 = NowNs();
        if (trace_op) o.trace->BeginOp(t0);
        Status s = workload->Op(stack, c, &write, checks);
        const int64_t t1 = NowNs();
        const int64_t cpu1 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
        if (trace_op) o.trace->EndOp(t1);
        o.attempted++;
        const size_t window = static_cast<size_t>((t1 - start) / kWindowNs);
        if (!traced && c == 0 && o.space_amp.size() <= window) {
          const double footprint = stack->mem().TotalBytes();
          o.space_amp.resize(
              window + 1, Ratio(footprint, workload->live_payload_bytes()));
        }
        if (!traced && t1 >= next_probe) {
          if (o.probes.size() <= window) o.probes.resize(window + 1);
          probe.Run(&o.probes[window]);
          next_probe = t1 + kProbeEveryNs;
        }
        if (!s.ok()) {
          if (o.failed++ == 0) {
            std::fprintf(stderr, "tdb_perfbench: operation failed: %s\n",
                         s.ToString().c_str());
          }
          continue;
        }
        workload->CheckOp(c, checks);
        o.wall.Add(window, t1 - t0, write);
        o.cpu.Add(window, cpu1 - cpu0, write);
        (trace_op ? o.traced_ops : o.untraced_ops)++;
      }
      OpTrace::Install(nullptr);
    });
  }
  PhaseOutcome p;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t slice_start = start;
  bool on = false;
  for (int64_t now = NowNs(); now < end; now = NowNs()) {
    const int64_t next = std::min(end, traced ? slice_start + kSliceNs : end);
    if (now < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(next - now, 10'000'000)));
      continue;
    }
    (on ? p.traced_s : p.untraced_s) += (now - slice_start) / 1e9;
    on = !on;
    slice_on.store(on, std::memory_order_relaxed);
    slice_start = now;
  }
  (on ? p.traced_s : p.untraced_s) += (NowNs() - slice_start) / 1e9;
  stop.store(true);
  for (auto& t : threads) t.join();
  p.elapsed_s = (NowNs() - start) / 1e9;

  // A window counts when it ended before the phase did.
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>((end - start) / kWindowNs));
  std::vector<ProbeSamples> probes(windows);
  p.space_amp = out[0].space_amp;
  p.space_amp.resize(std::min(p.space_amp.size(), windows));
  for (Latencies* l : {&p.wall, &p.cpu, &p.ref}) {
    l->all.resize(windows);
    l->writes.resize(windows);
  }
  for (ClientOutcome& o : out) {
    for (size_t w = 0; w < o.wall.all.size(); w++) {
      p.ops += o.wall.all[w].size();
      p.writes += o.wall.writes[w].size();
    }
    p.wall.Merge(o.wall, windows);
    p.cpu.Merge(o.cpu, windows);
    for (size_t w = 0; w < std::min(windows, o.probes.size()); w++) {
      probes[w].Merge(o.probes[w]);
      p.probes.Merge(o.probes[w]);
    }
    p.attempted += o.attempted;
    p.failed += o.failed;
    p.traced_ops += o.traced_ops;
    p.untraced_ops += o.untraced_ops;
    if (o.trace) {
      p.totals.Merge(o.trace->totals());
      p.kept.insert(p.kept.end(), o.trace->kept().begin(),
                    o.trace->kept().end());
      p.kept_ops += o.trace->kept_ops();
    }
  }
  for (size_t w = 0; w < windows; w++) {
    const double length_s =
        std::min<int64_t>(kWindowNs, end - start - w * kWindowNs) / 1e9;
    p.window_ops_per_s.push_back(p.wall.all[w].size() / length_s);
    if (traced) continue;
    // A window without a probe (an operation longer than the window) takes
    // the slowdown of the whole phase.
    const double slowdown =
        (probes[w].empty() ? p.probes : probes[w]).Slowdown();
    p.window_slowdown.push_back(slowdown);
    auto to_ref = [&](const std::vector<int64_t>& cpu,
                      std::vector<int64_t>* ref) {
      for (int64_t ns : cpu) ref->push_back(std::llround(ns / slowdown));
    };
    to_ref(p.cpu.all[w], &p.ref.all[w]);
    to_ref(p.cpu.writes[w], &p.ref.writes[w]);
    int64_t ref_ns = 0;
    for (int64_t ns : p.ref.all[w]) ref_ns += ns;
    p.window_ops_per_ref_s.push_back(
        Ratio(static_cast<double>(p.ref.all[w].size()), ref_ns / 1e9));
  }
  return p;
}

// --- Counters read before and after the measured phase ----------------

struct Counts {
  tdb::chunk::ChunkStoreStats chunk;
  int64_t object_cache_hits = 0;
  int64_t object_cache_misses = 0;
  uint64_t store_bytes = 0;
  double modeled_s = 0;
};

Counts ReadCounts(Stack* stack) {
  Counts c;
  c.chunk = stack->chunk_store()->Stats();
  const tdb::common::MetricsSnapshot snap =
      stack->chunk_store()->metrics()->Snapshot();
  auto counter = [&](const char* name) -> int64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.object_cache_hits = counter("object.cache.hits");
  c.object_cache_misses = counter("object.cache.misses");
  c.store_bytes = stack->mem().bytes_written();
  c.modeled_s = stack->disk().simulated_seconds();
  return c;
}

// The stack options a run uses, as a JSON object (for the provenance line).
std::string DescribeStack(const StackOptions& o) {
  const auto& sec = o.chunk.security;
  std::string security = "disabled";
  if (sec.enabled) {
    security = sec.hash == tdb::crypto::HashKind::kSha1 ? "SHA-1" : "SHA-256";
    security +=
        sec.cipher == tdb::crypto::CipherKind::kDes3 ? " + 3DES" : " + AES-128";
  }
  std::ostringstream out;
  out << "{\"security\": " << JsonString(security)
      << ", \"segment_bytes\": " << o.chunk.segment_size
      << ", \"max_utilization\": " << Num(o.chunk.max_utilization)
      << ", \"checkpoint_interval_bytes\": " << o.chunk.checkpoint_interval_bytes
      << ", \"chunk_cache_bytes\": " << o.chunk.cache_bytes
      << ", \"crypto_threads\": " << o.chunk.crypto_threads
      << ", \"group_commit\": " << (o.chunk.group_commit ? "true" : "false")
      << ", \"object_cache_bytes\": " << o.object.cache_capacity_bytes
      << ", \"locking\": " << (o.object.locking_enabled ? "true" : "false")
      << ", \"store\": \"MemUntrustedStore under SimulatedDiskStore\""
      << ", \"counter\": "
      << (o.counter_on_disk ? "\"StoreBackedCounter on the simulated disk\""
                            : "\"MemOneWayCounter\"")
      << "}";
  return out.str();
}

// --- Crash images -----------------------------------------------------

struct CrashImage {
  tdb::platform::MemUntrustedStore::Image files;
  uint64_t counter = 0;  // The in-memory counter's value (ycsb workloads).
};

// Copies every store file without Close(), then closes the stack.
CrashImage TakeCrashImage(Stack* stack) {
  CrashImage image{stack->CrashImage(), stack->counter_value()};
  Status s = stack->Close();
  if (!s.ok()) Die("close", s);
  return image;
}

// Runs `fn` on this thread and returns its CPU seconds over the slowdown
// that probe bursts right before and after it measure.
template <typename Fn>
double RefSeconds(SpeedProbe* probe, Fn&& fn) {
  const double before = probe->Burst();
  const int64_t t0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  fn();
  const int64_t t1 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  return (t1 - t0) / 1e9 / ((before + probe->Burst()) / 2);
}

// Reopens the stack over a copy of `image` and returns the reopen's
// reference seconds. With `check`, the recovered store is then scrubbed and
// checked against the workload's oracle.
double Recover(const StackOptions& options, const CrashImage& image,
               bool check, Workload* workload, CheckLog* checks,
               SpeedProbe* probe) {
  Stack recovered(options, image.files, image.counter);
  Status s;
  const double seconds = RefSeconds(probe, [&] { s = recovered.Open(); });
  if (!s.ok()) Die("recovery", s);
  if (check) {
    uint64_t scrubbed = 0;
    s = recovered.chunk_store()->VerifyIntegrity(&scrubbed);
    if (!s.ok()) checks->Fail("VerifyIntegrity after recovery: " + s.ToString());
    workload->CheckState(&recovered, true, checks);
  }
  s = recovered.Close();
  if (!s.ok()) Die("close recovered", s);
  return seconds;
}

// --- Trace export --------------------------------------------------------

// Writes the kept spans as Chrome trace-event JSON and validates them (and
// their round trip through the parser) as one rooted tree per operation.
Status ExportTrace(const PhaseOutcome& p, const std::string& path) {
  std::vector<tdb::common::SpanTreeInfo> trees;
  TDB_RETURN_IF_ERROR(tdb::common::ValidateTraceForest(p.kept, &trees));
  if (trees.size() != p.kept_ops) {
    return Status::Corruption("trace: " + std::to_string(trees.size()) +
                              " trees for " + std::to_string(p.kept_ops) +
                              " operations");
  }
  const std::string json = tdb::common::TraceEventsToChromeJson(p.kept);
  std::vector<tdb::common::TraceEvent> parsed;
  TDB_RETURN_IF_ERROR(tdb::common::TraceEventsFromChromeJson(json, &parsed));
  std::vector<tdb::common::SpanTreeInfo> reparsed;
  TDB_RETURN_IF_ERROR(tdb::common::ValidateTraceForest(parsed, &reparsed));
  if (parsed.size() != p.kept.size() || reparsed.size() != trees.size()) {
    return Status::Corruption("trace: export does not round-trip");
  }
  std::ofstream file(path, std::ios::trunc);
  file << json << "\n";
  file.close();
  if (!file) return Status::IOError("cannot write " + path);
  return Status::OK();
}

int Run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<Workload> workload;
  if (args.workload == "tpcb") {
    workload = MakeTpcb(args.seed);
  } else if (args.workload == "ycsb_b") {
    workload = MakeYcsbB(args.seed, static_cast<int>(std::min(4u, nproc)));
  } else if (args.workload == "ycsb_e") {
    workload = MakeYcsbE(args.seed);
  } else {
    std::fprintf(stderr, "tdb_perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  const StackOptions options = workload->stack_options();

  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"build_type\": %s, "
      "\"build_optimized\": %d, \"nproc\": %u, \"revision\": %s, "
      "\"workload_options\": %s, \"stack_options\": %s}}\n",
      JsonString(args.workload).c_str(), args.seed, Num(args.seconds).c_str(),
      args.trace, JsonString(TDB_PERFBENCH_BUILD_TYPE).c_str(),
      BuildOptimized(), nproc, JsonString(args.revision).c_str(),
      workload->describe().c_str(), DescribeStack(options).c_str());
  std::fflush(stdout);

  CheckLog checks;
  // Set-up: a fresh stack populated from the seed, at least kSetups times
  // and for at least kMinSetupSeconds; the last one is measured. The first
  // one, right after loading, takes a checkpoint and a fixed tail of writes
  // and becomes the crash image recovery_s reopens, so the replayed state
  // does not depend on how many operations the measured phase got through.
  // The reopens come in batches spread over the run, and recovery_s is
  // their median. Set-ups and reopens are timed in reference seconds (see
  // SpeedProbe).
  SpeedProbe probe;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> recovery_s;
  uint64_t residual_log_bytes = 0;
  CrashImage image;
  auto recover_batch = [&] {
    // Traced runs report no recovery_s: they reopen once, for the checks.
    const int64_t start = NowNs();
    do {
      recovery_s.push_back(Recover(options, image, recovery_s.empty(),
                                   workload.get(), &checks, &probe));
    } while (!traced && NowNs() - start < kRecoveryBatchSeconds * 1e9);
  };
  std::unique_ptr<Stack> stack;
  double setup_total_s = 0;
  for (int i = 0; i < kSetups || setup_total_s < kMinSetupSeconds; i++) {
    stack.reset();
    const int64_t t0 = NowNs();
    setup_s.push_back(RefSeconds(&probe, [&] {
      stack = std::make_unique<Stack>(options, traced);
      Status s = stack->Open();
      if (!s.ok()) Die("open", s);
      s = workload->Populate(stack.get());
      if (!s.ok()) Die("populate", s);
    }));
    setup_wall_s.push_back((NowNs() - t0) / 1e9);
    setup_total_s += setup_wall_s.back();
    Status s;
    if (i == 0) {
      s = stack->chunk_store()->Checkpoint();
      if (!s.ok()) Die("checkpoint", s);
      const uint64_t appended = stack->chunk_store()->Stats().bytes_appended;
      s = workload->Tail(stack.get(), &checks);
      if (!s.ok()) Die("tail", s);
      residual_log_bytes =
          stack->chunk_store()->Stats().bytes_appended - appended;
      image = TakeCrashImage(stack.get());
      // The first reopen is checked against the oracle before the next
      // Populate resets it.
      recover_batch();
    }
  }
  if (!traced) recover_batch();

  // Let the caches and the cleaner reach their working state first.
  RunPhase(workload.get(), stack.get(), std::min(1.0, args.seconds / 10),
           false, &checks);
  const Counts before = ReadCounts(stack.get());
  PhaseOutcome p =
      RunPhase(workload.get(), stack.get(), args.seconds, traced, &checks);
  const Counts after = ReadCounts(stack.get());

  // Untimed checks of the measured store, then of its crash image.
  uint64_t scrubbed = 0;
  Status s = stack->chunk_store()->VerifyIntegrity(&scrubbed);
  if (!s.ok()) checks.Fail("VerifyIntegrity after the measured phase: " + s.ToString());
  workload->CheckState(stack.get(), false, &checks);
  const double post_run_recovery_s =
      Recover(options, TakeCrashImage(stack.get()), true, workload.get(),
              &checks, &probe);
  stack.reset();
  if (!traced) {
    for (int i = 0; i < 2; i++) recover_batch();
  }

  const double ops = static_cast<double>(p.ops);
  if (ops == 0) {
    std::fprintf(stderr, "tdb_perfbench: no operation completed\n");
    return 1;
  }
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  const auto& c0 = before.chunk;
  const auto& c1 = after.chunk;
  std::ostringstream summary;
  summary << "{\"summary\": {\"ops\": " << p.ops
          << ", \"writes\": " << p.writes
          << ", \"failed_op_ratio\": " << Num(Ratio(p.failed, p.attempted))
          << ", \"elapsed_s\": " << Num(p.elapsed_s)
          << ", \"check_failures\": " << checks.count()
          << ", \"post_run_recovery_s\": " << Num(post_run_recovery_s)
          << ", \"tail_percentile\": " << Num(workload->tail_percentile());

  if (!traced) {
    add("setup_s", Median(setup_s), "s");
    add("ops_per_ref_s", Median(p.window_ops_per_ref_s), "1/s");
    add("op_ref_p50_us", WindowedPercentileUs(p.ref.all, 0.50), "us");
    add("op_ref_p95_us", WindowedPercentileUs(p.ref.all, 0.95), "us");
    add("op_ref_tail_us",
        WindowedPercentileUs(p.ref.all, workload->tail_percentile()), "us");
    add("write_ref_p50_us", WindowedPercentileUs(p.ref.writes, 0.50), "us");
    add("write_ref_p95_us", WindowedPercentileUs(p.ref.writes, 0.95), "us");
    add("store_bytes_per_op",
        (after.store_bytes - before.store_bytes) / ops, "B");
    add("space_amp", Median(p.space_amp), "ratio");
    add("modeled_io_ms_per_op", (after.modeled_s - before.modeled_s) * 1e3 / ops,
        "ms");
    add("recovery_s", Median(recovery_s), "s");
    const std::pair<const char*, double> kShown[] = {
        {"p50", 0.5}, {"p75", 0.75}, {"p90", 0.9},
        {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}};
    for (const auto& [key, latencies] :
         {std::pair{"op_cpu_percentiles_us", &p.cpu.all},
          std::pair{"op_wall_percentiles_us", &p.wall.all},
          std::pair{"write_wall_percentiles_us", &p.wall.writes}}) {
      summary << ", \"" << key << "\": {";
      for (const auto& [label, q] : kShown) {
        summary << (q == 0.5 ? "" : ", ") << "\"" << label << "\": "
                << Num(WindowedPercentileUs(*latencies, q));
      }
      summary << "}";
    }
    summary << ", \"wall_ops_per_s\": " << Num(Median(p.window_ops_per_s))
            << ", \"window_ops_per_s\": " << JsonArray(p.window_ops_per_s)
            << ", \"window_ops_per_ref_s\": "
            << JsonArray(p.window_ops_per_ref_s)
            << ", \"window_slowdown\": " << JsonArray(p.window_slowdown)
            << ", \"window_space_amp\": " << JsonArray(p.space_amp)
            << ", \"probes\": " << p.probes.far_ns.size()
            << ", \"probe_far_ns\": " << Num(p.probes.FarMedian())
            << ", \"probe_near_ns\": " << Num(p.probes.NearMedian())
            << ", \"setup_s_samples\": " << JsonArray(setup_s)
            << ", \"setup_wall_s_samples\": " << JsonArray(setup_wall_s)
            << ", \"recovery_s_samples\": " << JsonArray(recovery_s);
  } else {
    const TraceTotals& t = p.totals;
    const double tops = static_cast<double>(t.ops);
    auto k = [](Kind kind) { return static_cast<size_t>(kind); };
    auto per_op_us = [&](int64_t ns) { return Ratio(ns / 1e3, tops); };
    int64_t layer_self[kNumLayers] = {};
    for (size_t i = 0; i < kNumKinds; i++) {
      layer_self[static_cast<size_t>(LayerOf(static_cast<Kind>(i)))] +=
          t.self_ns[i];
    }
    auto layer = [&](Layer l) { return layer_self[static_cast<size_t>(l)]; };
    const double obj_hits = after.object_cache_hits - before.object_cache_hits;
    const double obj_miss =
        after.object_cache_misses - before.object_cache_misses;
    const double chunk_hits = c1.cache_hits - c0.cache_hits;
    const double chunk_miss = c1.cache_misses - c0.cache_misses;
    auto file = [](FileClass f) { return static_cast<size_t>(f); };

    add("bench.self_us_per_op", per_op_us(layer(Layer::kBench)), "us");
    add("collection.self_us_per_op",
        per_op_us(layer(Layer::kCollection) + layer(Layer::kObject)), "us");
    add("object.self_us_per_op", per_op_us(layer(Layer::kObject)), "us");
    add("object.cache_hit_ratio", Ratio(obj_hits, obj_hits + obj_miss),
        "ratio");
    add("chunk.self_us_per_op", per_op_us(layer(Layer::kChunk)), "us");
    add("chunk.read_us_per_op", per_op_us(t.incl_ns[k(Kind::kChunkRead)]),
        "us");
    add("chunk.reads_per_op", Ratio(t.calls[k(Kind::kChunkRead)], tops),
        "count");
    add("chunk.view_us_per_op", per_op_us(t.incl_ns[k(Kind::kChunkView)]),
        "us");
    add("chunk.commit_us_per_op", per_op_us(t.incl_ns[k(Kind::kChunkCommit)]),
        "us");
    add("chunk.cache_hit_ratio", Ratio(chunk_hits, chunk_hits + chunk_miss),
        "ratio");
    add("chunk.sealed_bytes_per_op", (c1.sealed_bytes - c0.sealed_bytes) / ops,
        "B");
    add("chunk.cleaned_segments_per_kop",
        (c1.cleaned_segments - c0.cleaned_segments) * 1e3 / ops, "count");
    add("chunk.relocated_bytes_per_op",
        (c1.relocated_bytes - c0.relocated_bytes) / ops, "B");
    add("chunk.checkpoints", static_cast<double>(c1.checkpoints - c0.checkpoints),
        "count");
    add("chunk.residual_log_bytes", static_cast<double>(residual_log_bytes),
        "B");
    add("chunk.syncs_per_durable_commit",
        Ratio(c1.log_syncs - c0.log_syncs,
              c1.durable_commits - c0.durable_commits),
        "count");
    add("chunk.counter_bumps_per_op",
        (c1.counter_bumps - c0.counter_bumps) / ops, "count");
    add("platform.self_us_per_op", per_op_us(layer(Layer::kPlatform)), "us");
    add("platform.store_write_us_per_op",
        per_op_us(t.incl_ns[k(Kind::kStoreWrite)]), "us");
    add("platform.store_read_us_per_op",
        per_op_us(t.incl_ns[k(Kind::kStoreRead)]), "us");
    add("platform.sync_us_per_op", per_op_us(t.incl_ns[k(Kind::kStoreSync)]),
        "us");
    add("platform.counter_us_per_op",
        per_op_us(t.incl_ns[k(Kind::kCounter)] +
                  t.incl_ns[k(Kind::kCounterRead)]),
        "us");
    add("platform.log_bytes_per_op",
        Ratio(t.write_bytes[file(FileClass::kLog)], tops), "B");
    add("platform.anchor_bytes_per_op",
        Ratio(t.write_bytes[file(FileClass::kAnchor)], tops), "B");
    add("platform.counter_writes_per_op", Ratio(t.calls[k(Kind::kCounter)], tops),
        "count");
    add("platform.store_reads_per_op", Ratio(t.calls[k(Kind::kStoreRead)], tops),
        "count");
    add("platform.modeled_ms_per_op.log",
        Ratio(t.modeled_ns[file(FileClass::kLog)] / 1e6, tops), "ms");
    add("platform.modeled_ms_per_op.anchor",
        Ratio(t.modeled_ns[file(FileClass::kAnchor)] / 1e6, tops), "ms");
    add("platform.modeled_ms_per_op.counter",
        Ratio(t.modeled_ns[file(FileClass::kCounter)] / 1e6, tops), "ms");
    add("trace.op_us", per_op_us(t.op_ns), "us");
    add("trace.ops_per_s", Ratio(p.traced_ops, p.traced_s), "1/s");
    add("trace.untraced_ops_per_s", Ratio(p.untraced_ops, p.untraced_s),
        "1/s");

    if (t.ops == 0) checks.Fail("trace: no operation was traced");
    if (t.sum_violations != 0 || t.nesting_violations != 0) {
      checks.Fail("trace: " + std::to_string(t.sum_violations) +
                  " operations whose layer self times miss their latency, " +
                  std::to_string(t.nesting_violations) + " misnested spans");
    }
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    s = ExportTrace(p, path);
    if (!s.ok()) checks.Fail("trace export: " + s.ToString());

    summary << ", \"traced_ops\": " << t.ops << ", \"ops_per_s\": {\"traced\": "
            << Num(Ratio(p.traced_ops, p.traced_s))
            << ", \"untraced\": " << Num(Ratio(p.untraced_ops, p.untraced_s))
            << "}, \"layer_sum\": {\"tolerance\": \"max(" << kLayerSumSlackNs
            << " ns, " << Num(kLayerSumTolerance * 100)
            << "% of the op latency) per op\", \"op_us\": "
            << Num(per_op_us(t.op_ns)) << ", \"bench_us\": "
            << Num(per_op_us(layer(Layer::kBench))) << ", \"collection_us\": "
            << Num(per_op_us(layer(Layer::kCollection))) << ", \"object_us\": "
            << Num(per_op_us(layer(Layer::kObject))) << ", \"chunk_us\": "
            << Num(per_op_us(layer(Layer::kChunk))) << ", \"platform_us\": "
            << Num(per_op_us(layer(Layer::kPlatform)))
            << ", \"max_error_ratio\": " << Num(t.max_sum_error_ratio)
            << ", \"violations\": " << t.sum_violations
            << "}, \"trace_file\": " << JsonString(path)
            << ", \"trace_trees\": " << p.kept_ops;
  }
  const auto failures = checks.first();
  summary << ", \"first_check_failures\": [";
  for (size_t i = 0; i < failures.size(); i++) {
    summary << (i ? ", " : "") << JsonString(failures[i]);
  }
  summary << "]}}";
  std::printf("%s\n", summary.str().c_str());

  std::string result = "{\"correct\": ";
  result += checks.count() == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(p.attempted);
  result += ", \"failed\": " + std::to_string(p.failed);
  result += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    result += (i ? ", " : "") + JsonString(metrics[i].first) +
              ": {\"value\": " + Num(metrics[i].second.first) +
              ", \"unit\": " + JsonString(metrics[i].second.second) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tdb_perfbench --workload tpcb|ycsb_b|ycsb_e --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--revision REV]\n");
    return 2;
  }
  if (perfbench::BuildOptimized() == 0) {
    std::fprintf(stderr,
                 "tdb_perfbench: refusing to run a build without "
                 "optimization; its numbers would not be meaningful\n");
    return 2;
  }
  return perfbench::Run(args);
}
