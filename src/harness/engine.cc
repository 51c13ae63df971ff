#include "harness/engine.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "common/flight_recorder.h"
#include "crypto/cipher_suite.h"
#include "harness/layer.h"
#include "harness/oracle.h"
#include "harness/region_map.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/prefix_store.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"

namespace tdb::harness {

namespace {

constexpr const char* kMasterSecret = "tdb-harness-master-secret-32byte";

using Image = platform::MemUntrustedStore::Image;

/// Store options for a preset (see Preset). Every knob a repro line does
/// not carry comes from here, so repros replay bit-exactly.
chunk::ChunkStoreOptions PresetOptions(Preset preset) {
  chunk::ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.map_fanout = 8;
  options.cache_bytes = 256 * 1024;
  options.crypto_threads = 0;  // Serial: thousands of short-lived stores.
  // Serial 2PC phases too: crash sweeps enumerate points by the GLOBAL
  // write index across the shared fault injector, so the coordinator's
  // write order must be deterministic (and the injector single-threaded).
  options.txn_coordinator_threads = 0;
  if (preset == Preset::kCleaning) {
    // Aggressive maintenance: crash points inside auto-checkpoint and
    // cleaning commits.
    options.segment_size = 2048;
    options.checkpoint_interval_bytes = 16 * 1024;
    options.max_clean_segments_per_commit = 2;
    options.max_utilization = 0.6;
    return options;
  }
  // No maintenance commits besides the trace's own checkpoints: the set of
  // durable boundaries is exactly what the oracle models. kGroup coalesces
  // nondurable commits into merged multi-commit records and kCodec
  // compresses each record before sealing; both change the record bytes
  // (and so the crash and tamper sites), not the boundaries.
  options.segment_size = 4096;
  options.checkpoint_interval_bytes = 1ull << 40;
  options.max_clean_segments_per_commit = 0;
  options.max_utilization = 0.95;
  options.group_commit = (preset == Preset::kGroup);
  options.compression = (preset == Preset::kCodec);
  return options;
}

uint32_t ShardCount(const ReproCase& repro) {
  return ShardedLayer(repro.layer) ? repro.shards : 0;
}

std::unique_ptr<Layer> MakeLayer(const ReproCase& repro) {
  const uint32_t oracles = std::max<uint32_t>(1, ShardCount(repro));
  const std::string& layer = repro.layer;
  if (layer == "chunk" || layer == "shard") {
    return MakeChunkLayer(repro.spec, oracles);
  }
  if (layer == "object" || layer == "objshard") {
    return MakeObjectLayer(repro.spec, oracles);
  }
  if (layer == "collection") return MakeCollectionLayer(repro.spec);
  if (layer == "ycsb" || layer == "timeseries" || layer == "largeobject") {
    return MakeScenarioLayer(layer, repro.spec);
  }
  return nullptr;
}

Status Fail(const ReproCase& repro, const std::string& detail) {
  return Status::Corruption(FormatRepro(repro) + " | " + detail);
}

bool IsDetection(const Status& status) {
  return status.IsTamperDetected() || status.IsReplayDetected() ||
         status.IsCorruption();
}

/// One store environment: the in-memory base store (optionally under a
/// test's wrapper), ONE fault injector whose write index covers every
/// write, the trusted secret and per-shard counters that survive
/// "reboots", and the open stack. Sharded layers see the injector through
/// one PrefixedStore window per shard ("s<k>/"); single-store layers see
/// it directly, so their image file names carry no prefix.
struct Env {
  platform::MemUntrustedStore mem;
  std::unique_ptr<platform::FaultInjectingStore> faulty;
  std::vector<std::unique_ptr<platform::PrefixedStore>> windows;
  platform::MemSecretStore secrets;
  std::vector<std::unique_ptr<platform::MemOneWayCounter>> counters;
  Preset preset;
  std::unique_ptr<Layer> layer;
  std::unique_ptr<chunk::ChunkStoreInterface> chunks;

  Env(const ReproCase& repro, const StoreWrap& wrap)
      : preset(repro.spec.preset), layer(MakeLayer(repro)) {
    faulty = std::make_unique<platform::FaultInjectingStore>(
        wrap ? wrap(&mem) : &mem);
    const uint32_t shards = ShardCount(repro);
    for (uint32_t k = 0; k < shards; k++) {
      windows.push_back(std::make_unique<platform::PrefixedStore>(
          "s" + std::to_string(k) + "/", faulty.get()));
    }
    for (uint32_t k = 0; k < std::max<uint32_t>(1, shards); k++) {
      counters.push_back(std::make_unique<platform::MemOneWayCounter>());
    }
    (void)secrets.Provision(kMasterSecret);
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() { Drop(); }

  /// Opens the chunk-level store and the layer on it. An injected registry
  /// keeps the audit trail reachable even when Open itself fails.
  Status Open(std::shared_ptr<common::MetricsRegistry> metrics, bool create) {
    if (layer == nullptr) return Status::InvalidArgument("unknown layer");
    chunk::ChunkStoreOptions options = PresetOptions(preset);
    options.metrics = std::move(metrics);
    Status status;
    if (windows.empty()) {
      auto opened = chunk::ChunkStore::Open(faulty.get(), &secrets,
                                            counters[0].get(), options);
      if (opened.ok()) chunks = std::move(opened).value();
      status = opened.status();
    } else {
      std::vector<shard::ShardBackend> backends;
      for (size_t k = 0; k < windows.size(); k++) {
        backends.push_back({windows[k].get(), &secrets, counters[k].get()});
      }
      auto opened = shard::ShardedChunkStore::Open(backends, options);
      if (opened.ok()) chunks = std::move(opened).value();
      status = opened.status();
    }
    if (status.ok()) status = layer->Open(chunks.get(), create);
    if (!status.ok()) Drop();
    return status;
  }

  /// Drops the stack without a clean close (a crash, or an attacker
  /// pulling the media).
  void Drop() {
    if (layer != nullptr) layer->Drop();
    chunks.reset();
  }

  Status Close() {
    layer->Drop();
    Status status = chunks->Close();
    chunks.reset();
    return status;
  }

  std::vector<uint64_t> CounterValues() const {
    std::vector<uint64_t> values;
    for (const auto& counter : counters) {
      values.push_back(counter->Read().value());
    }
    return values;
  }

  /// Installs an image, carrying the trusted counters across: a virgin
  /// counter would silently accept a rolled-back image.
  void Restore(const Image& image, const std::vector<uint64_t>& values) {
    mem.RestoreImage(image);
    for (size_t k = 0; k < counters.size(); k++) {
      while (counters[k]->Read().value() < values[k]) {
        (void)counters[k]->Increment();
      }
    }
  }
};

std::set<uint64_t> AllIds(const std::vector<StateOracle>& oracles) {
  std::set<uint64_t> ids;
  for (const StateOracle& oracle : oracles) {
    ids.insert(oracle.ids().begin(), oracle.ids().end());
  }
  return ids;
}

/// Splits read-back values by owning shard (id % shards) and matches each
/// shard against its own oracle's acceptable boundaries.
Status MatchOracles(const std::vector<StateOracle>& oracles,
                    const StateOracle::State& values,
                    std::vector<StateOracle::State>* per_shard) {
  const size_t n = oracles.size();
  per_shard->assign(n, StateOracle::State{});
  for (const auto& [id, value] : values) (*per_shard)[id % n][id] = value;
  for (size_t k = 0; k < n; k++) {
    Result<size_t> matched = oracles[k].MatchRecovered((*per_shard)[k]);
    if (!matched.ok()) {
      return Status::Corruption(
          (n > 1 ? "shard " + std::to_string(k) + ": " : std::string()) +
          matched.status().message());
    }
  }
  return Status::OK();
}

/// The commit the crash interrupted reached every shard it touched, or
/// none. (Every EARLIER cross-shard commit was acked durable, so the
/// per-shard floors already pin it everywhere.)
Status CheckInFlight(const std::vector<StateOracle>& oracles,
                     const std::vector<StateOracle::State>& recovered,
                     const InFlight& inflight) {
  if (inflight.commit < 0 || inflight.participants.size() < 2) {
    return Status::OK();
  }
  const size_t post = static_cast<size_t>(inflight.commit) + 1;
  int included = 0, excluded = 0;
  for (int k : inflight.participants) {
    const StateOracle::State& with = oracles[k].state(post);
    if (with == oracles[k].state(post - 1)) continue;  // Uninformative.
    (recovered[k] == with ? included : excluded)++;
  }
  if (included > 0 && excluded > 0) {
    return Status::Corruption(
        "cross-shard atomicity violation: in-flight commit " +
        std::to_string(inflight.commit) + " recovered on " +
        std::to_string(included) + " participant(s) but lost on " +
        std::to_string(excluded));
  }
  return Status::OK();
}

std::string AuditEventsToString(
    const std::vector<common::AuditEvent>& events) {
  std::string out;
  for (const common::AuditEvent& e : events) {
    if (!out.empty()) out += ", ";
    out += e.kind + "@" + e.location + " region=" +
           std::to_string(e.region) + " x" + std::to_string(e.count);
  }
  return out.empty() ? "<none>" : out;
}

Status RunCrash(const ReproCase& repro, SweepStats* stats,
                const StoreWrap& wrap) {
  const CrashCase& crash = repro.crash;
  Env env(repro, wrap);
  Status status = env.Open(nullptr, /*create=*/true);
  if (!status.ok()) {
    return Fail(repro, "initial open failed: " + status.ToString());
  }
  std::vector<StateOracle> oracles(env.counters.size());  // One per shard.
  InFlight inflight;
  env.faulty->CrashAtWrite(crash.write_index, crash.tear_num, crash.tear_den);
  status = env.layer->Run(&oracles, &inflight);
  if (!status.ok() && !env.faulty->crashed()) {
    return Fail(repro, "trace op failed without a crash: " + status.ToString());
  }
  // No clean close. If the crash has not fired yet (write index beyond the
  // trace), it tears the destructors' best-effort checkpoint instead.
  env.Drop();

  env.faulty->Reboot();
  if (crash.recovery_crash >= 0) {
    env.faulty->CrashAtWrite(static_cast<uint64_t>(crash.recovery_crash), 1,
                             2);
  }
  // Recovery of a crash-normal image must never log security audit events
  // (torn tails are expected, not attacks).
  auto metrics = std::make_shared<common::MetricsRegistry>();
  status = env.Open(metrics, /*create=*/false);
  if (!status.ok() && env.faulty->crashed()) {
    env.faulty->Reboot();
    status = env.Open(metrics, /*create=*/false);
    if (!status.ok()) {
      return Fail(repro, "recovery failed after recovery-time crash: " +
                             status.ToString());
    }
  }
  if (!status.ok()) {
    return Fail(repro, "recovery failed on a legitimate crash image: " +
                           status.ToString());
  }
  env.faulty->Reboot();  // Disarms a recovery crash that never fired.

  StateOracle::State values;
  status = env.layer->ReadBack(AllIds(oracles), &values);
  if (!status.ok()) {
    return Fail(repro, "post-recovery read-back: " + status.ToString());
  }
  std::vector<StateOracle::State> recovered;
  status = MatchOracles(oracles, values, &recovered);
  if (status.ok()) status = CheckInFlight(oracles, recovered, inflight);
  if (!status.ok()) return Fail(repro, status.message());
  uint64_t checked = 0;
  status = env.chunks->VerifyIntegrity(&checked);
  if (!status.ok()) {
    return Fail(repro, "post-recovery VerifyIntegrity: " + status.ToString());
  }
  status = env.layer->Probe();
  if (!status.ok()) {
    return Fail(repro, "post-recovery probe: " + status.ToString());
  }
  status = env.Close();
  if (!status.ok()) {
    return Fail(repro, "post-recovery close: " + status.ToString());
  }
  if (metrics->audit().size() != 0) {
    return Fail(repro, "crash-normal recovery logged audit events: " +
                           AuditEventsToString(metrics->audit().Events()));
  }
  stats->cases++;
  return Status::OK();
}

// --- Tamper cases ----------------------------------------------------------

/// Audit regions a tampered byte of `cls` may legitimately surface as. The
/// byte's structural class and the detector that fires need not match
/// exactly: e.g. a corrupted payload byte inside the residual log breaks
/// the recovery scan, which the store reports as a log/counter-level
/// replay detection rather than a payload hash mismatch.
bool AuditRegionCompatible(RegionClass cls, int region) {
  switch (cls) {
    case RegionClass::kAnchorSlot:
      return region == common::kRegionAnchor ||
             region == common::kRegionCounter ||
             region == common::kRegionLog;
    case RegionClass::kLogStructure:
      return region == common::kRegionLog ||
             region == common::kRegionCounter ||
             region == common::kRegionTxn;
    case RegionClass::kChunkPayload:
      // kRegionTxn: a corrupted byte of a sealed 2PC prepare/decision
      // record usually fails the shard's payload hash first, but a record
      // that still decrypts and then fails its transaction-level MAC or
      // chain linkage surfaces as a router-level detection.
      return region == common::kRegionPayload ||
             region == common::kRegionLog ||
             region == common::kRegionCounter ||
             region == common::kRegionTxn;
    case RegionClass::kLocationMap:
      return region == common::kRegionMap ||
             region == common::kRegionLog ||
             region == common::kRegionCounter;
  }
  return false;
}

/// First / middle / last byte of a region, deduplicated.
std::vector<uint64_t> TamperSiteOffsets(uint64_t length) {
  std::vector<uint64_t> offsets{0};
  if (length > 2) offsets.push_back(length / 2);
  if (length > 1) offsets.push_back(length - 1);
  return offsets;
}

const TamperRegion* FindTamperRegion(const std::vector<TamperRegion>& regions,
                                     const std::string& file,
                                     uint64_t offset) {
  for (const TamperRegion& region : regions) {
    if (region.file == file && offset >= region.offset &&
        offset < region.offset + region.length) {
      return &region;
    }
  }
  return nullptr;
}

/// The image a tamper case corrupts, and what reopening it untampered
/// yields.
struct TamperContext {
  StoreWrap wrap;
  Image image;
  std::vector<uint64_t> counters;
  std::vector<StateOracle> oracles;
  std::set<uint64_t> ids;
  std::vector<TamperRegion> regions;
  StateOracle::State baseline;
  uint64_t indoubt_resolved = 0;
};

/// What reopening one image showed.
struct Evaluation {
  bool detected = false;  // Some step reported tampering.
  StateOracle::State values;
  std::vector<common::AuditEvent> audit;
  uint64_t audit_bundles = 0;     // Flight-recorder bundles per detection.
  uint64_t incident_bundles = 0;  // ... per in-doubt 2PC resolution.
  uint64_t indoubt_resolved = 0;
};

/// Opens, reads back and scrubs. A detection status at any step flags the
/// image; any other failure is returned.
Status ScanImage(Env* env, std::shared_ptr<common::MetricsRegistry> registry,
                 const std::set<uint64_t>& ids, Evaluation* ev) {
  auto flag = [ev](const char* step, const Status& status) {
    if (status.ok()) return Status::OK();
    if (IsDetection(status)) {
      ev->detected = true;
      return Status::OK();
    }
    return Status::Corruption(std::string(step) +
                              " failed with unexpected status: " +
                              status.ToString());
  };
  Status opened = env->Open(std::move(registry), /*create=*/false);
  if (!opened.ok()) return flag("open", opened);
  TDB_RETURN_IF_ERROR(
      flag("read-back", env->layer->ReadBack(ids, &ev->values)));
  uint64_t checked = 0;
  return flag("VerifyIntegrity", env->chunks->VerifyIntegrity(&checked));
}

Result<Evaluation> Evaluate(const ReproCase& repro, const TamperContext& ctx,
                            const Image& image) {
  Env env(repro, ctx.wrap);
  env.Restore(image, ctx.counters);
  auto registry = std::make_shared<common::MetricsRegistry>();
  // A flight recorder attached as in production: every distinct detection
  // must write one post-mortem bundle ("audit:" reasons); recovery's
  // in-doubt 2PC resolutions write incident bundles, counted apart.
  common::FlightRecorderOptions recorder_options;
  recorder_options.max_spans = 64;
  common::FlightRecorder recorder(registry, recorder_options);
  Evaluation ev;
  Status scanned = ScanImage(&env, registry, ctx.ids, &ev);
  env.Drop();  // Detections while tearing down count too.
  ev.audit = registry->audit().Events();
  for (const common::FlightBundle& bundle : recorder.bundles()) {
    (bundle.reason.rfind("audit:", 0) == 0 ? ev.audit_bundles
                                           : ev.incident_bundles)++;
  }
  ev.indoubt_resolved = static_cast<uint64_t>(
      registry->GetCounter("shard.router.recovered_commits")->value() +
      registry->GetCounter("shard.router.recovered_aborts")->value());
  TDB_RETURN_IF_ERROR(scanned);
  return ev;
}

/// Runs the workload and snapshots the image to tamper: mid-lifetime
/// before close (the attacker grabs the media while the machine is off),
/// or for tamper2pc after the crash at `repro.crash`. Then reopens it
/// untampered: that must flag nothing, log nothing, and satisfy the
/// oracles; its values are the baseline every tampered reopen must equal
/// unless it reports the tamper.
Status BuildTamperContext(const ReproCase& repro, const StoreWrap& wrap,
                          TamperContext* ctx) {
  *ctx = TamperContext{};
  ctx->wrap = wrap;
  Env env(repro, wrap);
  TDB_RETURN_IF_ERROR(env.Open(nullptr, /*create=*/true));
  ctx->oracles.resize(env.counters.size());
  InFlight inflight;
  if (repro.kind == "tamper2pc") {
    const CrashCase& crash = repro.crash;
    env.faulty->CrashAtWrite(crash.write_index, crash.tear_num,
                             crash.tear_den);
    Status run = env.layer->Run(&ctx->oracles, &inflight);
    if (run.ok() || !env.faulty->crashed()) {
      return Status::NotFound("crash point beyond the trace");
    }
    env.Drop();
    env.faulty->Reboot();
  } else {
    TDB_RETURN_IF_ERROR(env.layer->Run(&ctx->oracles, &inflight));
  }
  ctx->image = env.mem.SnapshotImage();
  ctx->counters = env.CounterValues();
  ctx->ids = AllIds(ctx->oracles);
  ctx->regions = ClassifyImage(ctx->image);

  Result<Evaluation> ev = Evaluate(repro, *ctx, ctx->image);
  if (!ev.ok()) {
    return Status::Corruption("untampered baseline reopen failed: " +
                              ev.status().ToString());
  }
  if (ev->detected || !ev->audit.empty() || ev->audit_bundles != 0) {
    return Status::Corruption(
        "untampered image flagged tampering or left audit events (" +
        std::to_string(ev->audit_bundles) + " bundle(s)): " +
        AuditEventsToString(ev->audit));
  }
  // Each in-doubt resolution writes one incident bundle, and only a crash
  // leaves anything in doubt.
  if (ev->incident_bundles != ev->indoubt_resolved ||
      (repro.kind != "tamper2pc" && ev->indoubt_resolved != 0)) {
    return Status::Corruption(
        "recovery resolved " + std::to_string(ev->indoubt_resolved) +
        " in-doubt txn(s) and the flight recorder wrote " +
        std::to_string(ev->incident_bundles) + " incident bundle(s)");
  }
  std::vector<StateOracle::State> per_shard;
  Status matched = MatchOracles(ctx->oracles, ev->values, &per_shard);
  if (!matched.ok()) {
    return Status::Corruption("untampered baseline violates the oracle: " +
                              matched.message());
  }
  ctx->baseline = std::move(ev->values);
  ctx->indoubt_resolved = ev->indoubt_resolved;
  return Status::OK();
}

/// The first crash point (whole final write persisted, so staging
/// survives) whose image leaves a cross-shard transaction in doubt.
Status FindMid2pcCrash(ReproCase* repro, const StoreWrap& wrap,
                       TamperContext* ctx) {
  TDB_ASSIGN_OR_RETURN(uint64_t writes, CountWrites(*repro, wrap));
  for (uint64_t point = 0; point < writes; point++) {
    repro->crash = CrashCase{point, 4, 4, -1};
    Status built = BuildTamperContext(*repro, wrap, ctx);
    if (built.IsNotFound()) continue;
    TDB_RETURN_IF_ERROR(built);
    if (ctx->indoubt_resolved > 0) return Status::OK();
  }
  return Status::NotFound(
      "no crash point leaves an in-doubt cross-shard transaction (does the "
      "trace produce multi-shard commits?)");
}

/// The audit-trail contract for one tamper case: a detected corruption
/// leaves exactly one deduplicated audit event (never zero — no silent
/// detection — and never several for one corrupted byte), with a region
/// compatible with the byte's structural class, and one flight-recorder
/// bundle per event; a masked corruption leaves neither.
Status CheckTamperAudit(const ReproCase& repro, const Evaluation& ev,
                        const RegionClass* cls) {
  const std::vector<common::AuditEvent>& audit = ev.audit;
  if (ev.audit_bundles != audit.size()) {
    return Fail(repro, "flight recorder wrote " +
                           std::to_string(ev.audit_bundles) +
                           " bundle(s) for " + std::to_string(audit.size()) +
                           " audit event(s), want one bundle per event: " +
                           AuditEventsToString(audit));
  }
  if (!ev.detected) {
    if (audit.empty()) return Status::OK();
    return Fail(repro, "masked tamper left audit events: " +
                           AuditEventsToString(audit));
  }
  if (audit.empty()) {
    return Fail(repro,
                "tamper detected but the audit trail is empty (silent "
                "detection)");
  }
  if (audit.size() > 1) {
    return Fail(repro, "tamper produced " + std::to_string(audit.size()) +
                           " audit events, want exactly 1 deduplicated: " +
                           AuditEventsToString(audit));
  }
  if (cls != nullptr && !AuditRegionCompatible(*cls, audit[0].region)) {
    return Fail(repro, std::string("audit region incompatible with class ") +
                           RegionClassName(*cls) + ": " +
                           AuditEventsToString(audit));
  }
  return Status::OK();
}

Status RunTamperSite(const ReproCase& repro, const TamperContext& ctx,
                     SweepStats* stats) {
  auto file = ctx.image.find(repro.tamper_file);
  if (file == ctx.image.end() || repro.tamper_offset >= file->second.size()) {
    return Fail(repro, "tamper site outside the image");
  }
  Image tampered = ctx.image;
  tampered[repro.tamper_file][repro.tamper_offset] ^=
      static_cast<uint8_t>(repro.tamper_mask);
  Result<Evaluation> ev = Evaluate(repro, ctx, tampered);
  if (!ev.ok()) return Fail(repro, ev.status().message());
  if (!ev->detected && ev->values != ctx.baseline) {
    return Fail(repro,
                "SILENT ACCEPTANCE: the stack validated but the values read "
                "back differ from the untampered baseline");
  }
  const TamperRegion* region =
      FindTamperRegion(ctx.regions, repro.tamper_file, repro.tamper_offset);
  TDB_RETURN_IF_ERROR(
      CheckTamperAudit(repro, *ev, region != nullptr ? &region->cls : nullptr));
  stats->cases++;
  stats->audit_events += ev->audit.size();
  stats->recorder_bundles += ev->audit_bundles;
  (ev->detected ? stats->detected : stats->masked)++;
  return Status::OK();
}

// CountWrites and Sweep take a campaign: a case whose crash point and
// tamper site are still to be enumerated. Validates everything else.
Status ValidateCampaign(const ReproCase& repro) {
  ReproCase site = repro;
  site.crash.tear_den = 1;
  site.tamper_file = "campaign";
  site.tamper_mask = kTamperMask;
  return ValidateRepro(site);
}

}  // namespace

void EndCommit(std::vector<StateOracle>* oracles,
               const std::set<int>& participants, bool durable,
               const Status& status, size_t index, InFlight* inflight) {
  durable = durable || participants.size() > 1;
  for (size_t k = 0; k < oracles->size(); k++) {
    const bool covered = participants.empty()
                             ? durable
                             : participants.count(static_cast<int>(k)) > 0;
    (*oracles)[k].EndCommit(status.ok(), durable && covered);
  }
  if (!status.ok()) {
    inflight->commit = static_cast<int>(index);
    inflight->participants.assign(participants.begin(), participants.end());
  }
}

Result<uint64_t> CountWrites(const ReproCase& repro, const StoreWrap& wrap) {
  TDB_RETURN_IF_ERROR(ValidateCampaign(repro));
  Env env(repro, wrap);
  TDB_RETURN_IF_ERROR(env.Open(nullptr, /*create=*/true));
  std::vector<StateOracle> oracles(env.counters.size());
  InFlight inflight;
  const uint64_t before = env.faulty->writes_seen();
  TDB_RETURN_IF_ERROR(env.layer->Run(&oracles, &inflight));
  return env.faulty->writes_seen() - before;
}

Status RunCase(const ReproCase& repro, SweepStats* stats,
               const StoreWrap& wrap) {
  TDB_RETURN_IF_ERROR(ValidateRepro(repro));
  SweepStats local;
  if (stats == nullptr) stats = &local;
  if (repro.kind == "crash") return RunCrash(repro, stats, wrap);
  TamperContext ctx;
  Status built = BuildTamperContext(repro, wrap, &ctx);
  if (!built.ok()) return Fail(repro, built.ToString());
  return RunTamperSite(repro, ctx, stats);
}

Status Sweep(const ReproCase& repro, int shard, int num_shards,
             SweepStats* stats, const StoreWrap& wrap) {
  TDB_RETURN_IF_ERROR(ValidateCampaign(repro));
  SweepStats local;
  if (stats == nullptr) stats = &local;
  uint64_t next_case = 0;
  auto mine = [&next_case, shard, num_shards]() {
    const uint64_t idx = next_case++;
    return num_shards <= 1 ||
           idx % static_cast<uint64_t>(num_shards) ==
               static_cast<uint64_t>(shard);
  };

  if (repro.kind == "crash") {
    TDB_ASSIGN_OR_RETURN(uint64_t writes, CountWrites(repro, wrap));
    const TearBuckets tears = MakeLayer(repro)->Tears(repro.spec.preset);
    stats->write_points = writes;
    stats->tear_buckets = tears.nums.size();
    for (uint64_t point = 0; point < writes; point++) {
      for (uint32_t tear : tears.nums) {
        if (!mine()) continue;
        ReproCase one = repro;
        one.crash.write_index = point;
        one.crash.tear_num = tear;
        one.crash.tear_den = tears.den;
        TDB_RETURN_IF_ERROR(RunCrash(one, stats, wrap));
      }
    }
    return Status::OK();
  }

  ReproCase base = repro;
  TamperContext ctx;
  TDB_RETURN_IF_ERROR(repro.kind == "tamper2pc"
                          ? FindMid2pcCrash(&base, wrap, &ctx)
                          : BuildTamperContext(base, wrap, &ctx));
  for (const TamperRegion& region : ctx.regions) {
    for (uint64_t rel : TamperSiteOffsets(region.length)) {
      stats->tamper_sites++;
      stats->sites_per_class[static_cast<int>(region.cls)]++;
      if (!mine()) continue;
      ReproCase site = base;
      site.tamper_file = region.file;
      site.tamper_offset = region.offset + rel;
      site.tamper_mask = kTamperMask;
      TDB_RETURN_IF_ERROR(RunTamperSite(site, ctx, stats));
    }
  }
  return Status::OK();
}

Status ReplayRepro(const std::string& line) {
  TDB_ASSIGN_OR_RETURN(ReproCase repro, ParseRepro(line));
  return RunCase(repro);
}

std::string FormatCoverage(const std::string& campaign, int shard,
                           int num_shards, const SweepStats& stats) {
  std::ostringstream line;
  line << "HARNESS-COVERAGE campaign=" << campaign << " shard=" << shard
       << "/" << num_shards << " write_points=" << stats.write_points
       << " tear_buckets=" << stats.tear_buckets << " cases=" << stats.cases
       << " tamper_sites=" << stats.tamper_sites
       << " anchor=" << stats.sites_per_class[0]
       << " log=" << stats.sites_per_class[1]
       << " payload=" << stats.sites_per_class[2]
       << " map=" << stats.sites_per_class[3]
       << " detected=" << stats.detected << " masked=" << stats.masked
       << " audit_events=" << stats.audit_events
       << " recorder_bundles=" << stats.recorder_bundles;
  return line.str();
}

}  // namespace tdb::harness
