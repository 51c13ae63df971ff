// Tests for the differential crash/tamper harness (src/harness): trace
// determinism, repro-line round trips and validation, the oracle model, the
// exhaustive sharded crash and tamper campaigns of every layer (one table
// each, run by the sweep engine), and a self-test that proves the harness
// catches a deliberately buggy store at the chunk, object and collection
// layers and that its printed repro line replays the failure.
#include <cstdint>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/engine.h"
#include "harness/oracle.h"
#include "harness/region_map.h"
#include "harness/trace.h"
#include "platform/mem_store.h"

namespace tdb::harness {
namespace {

constexpr TraceSpec Spec(uint64_t seed, uint32_t commits, uint32_t slots,
                         Preset preset = Preset::kStrict) {
  TraceSpec spec;
  spec.seed = seed;
  spec.commits = commits;
  spec.slots = slots;
  spec.preset = preset;
  return spec;
}

// Specs shared by several tests. Sizes keep one campaign shard within a
// couple of seconds; the sweeps themselves are exhaustive.
constexpr TraceSpec kChunkStrict = Spec(7, 10, 10);
constexpr TraceSpec kObject = Spec(13, 7, 8);
constexpr TraceSpec kCollection = Spec(17, 5, 6);
constexpr TraceSpec kTamper = Spec(23, 8, 8);
// The sharded layers: a 2-shard router whose trace commits span shards.
constexpr TraceSpec kShardTrace = Spec(37, 6, 6);
constexpr uint32_t kRouterShards = 2;

// Every campaign is split into this many ctest entries; case i belongs to
// entry i % kSweepShards, and every entry asserts the full campaign's
// coverage counters.
constexpr int kSweepShards = 4;

// Number of cases shard `shard` of `num_shards` executes out of `total`.
uint64_t ShardShare(uint64_t total, int shard, int num_shards) {
  return total / num_shards +
         (total % static_cast<uint64_t>(num_shards) >
                  static_cast<uint64_t>(shard)
              ? 1
              : 0);
}

// ---------------------------------------------------------------------------
// Trace generation and repro lines.

TEST(TraceTest, GenerationIsDeterministic) {
  TraceSpec spec = kChunkStrict;
  std::vector<TraceCommit> a = GenerateTrace(spec);
  std::vector<TraceCommit> b = GenerateTrace(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), spec.commits);
  for (size_t c = 0; c < a.size(); c++) {
    ASSERT_EQ(a[c].ops.size(), b[c].ops.size());
    EXPECT_EQ(a[c].durable, b[c].durable);
    EXPECT_EQ(a[c].checkpoint_after, b[c].checkpoint_after);
    for (size_t i = 0; i < a[c].ops.size(); i++) {
      EXPECT_EQ(a[c].ops[i].kind, b[c].ops[i].kind);
      EXPECT_EQ(a[c].ops[i].slot, b[c].ops[i].slot);
      EXPECT_EQ(a[c].ops[i].size, b[c].ops[i].size);
      EXPECT_EQ(a[c].ops[i].payload_seed, b[c].ops[i].payload_seed);
    }
  }
  // The forced mid-trace checkpoint guarantees map-node coverage.
  EXPECT_TRUE(a[spec.commits / 2].checkpoint_after);

  spec.seed = 8;
  std::vector<TraceCommit> other = GenerateTrace(spec);
  bool differs = other.size() != a.size();
  for (size_t c = 0; !differs && c < a.size(); c++) {
    differs = other[c].ops.size() != a[c].ops.size() ||
              (!other[c].ops.empty() &&
               other[c].ops[0].payload_seed != a[c].ops[0].payload_seed);
  }
  EXPECT_TRUE(differs);
}

TEST(TraceTest, SlotPayloadIsDeterministic) {
  Buffer a = SlotPayload(42, 100);
  Buffer b = SlotPayload(42, 100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_NE(SlotPayload(43, 100), a);
}

TEST(ReproTest, CrashLineRoundTrips) {
  ReproCase repro;
  repro.layer = "object";
  repro.kind = "crash";
  repro.spec.seed = 99;
  repro.spec.commits = 6;
  repro.spec.slots = 5;
  repro.spec.preset = Preset::kCleaning;
  repro.crash.write_index = 17;
  repro.crash.tear_num = 2;
  repro.crash.tear_den = 4;
  repro.crash.recovery_crash = 3;

  std::string line = FormatRepro(repro);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().layer, "object");
  EXPECT_EQ(parsed.value().kind, "crash");
  EXPECT_EQ(parsed.value().spec.seed, 99u);
  EXPECT_EQ(parsed.value().spec.commits, 6u);
  EXPECT_EQ(parsed.value().spec.slots, 5u);
  EXPECT_EQ(parsed.value().spec.preset, Preset::kCleaning);
  EXPECT_EQ(parsed.value().crash.write_index, 17u);
  EXPECT_EQ(parsed.value().crash.tear_num, 2u);
  EXPECT_EQ(parsed.value().crash.tear_den, 4u);
  EXPECT_EQ(parsed.value().crash.recovery_crash, 3);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, GroupPresetRoundTrips) {
  ReproCase repro;
  repro.layer = "chunk";
  repro.kind = "crash";
  repro.spec = Spec(29, 10, 10, Preset::kGroup);
  repro.crash.write_index = 9;
  repro.crash.tear_num = 5;
  repro.crash.tear_den = 8;

  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("preset=group"), std::string::npos);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.preset, Preset::kGroup);
  EXPECT_EQ(parsed.value().crash.tear_num, 5u);
  EXPECT_EQ(parsed.value().crash.tear_den, 8u);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, CodecPresetRoundTrips) {
  ReproCase repro;
  repro.layer = "chunk";
  repro.kind = "crash";
  repro.spec.seed = 31;
  repro.spec.commits = 10;
  repro.spec.slots = 10;
  repro.spec.preset = Preset::kCodec;
  repro.crash.write_index = 5;
  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("preset=codec"), std::string::npos);
  auto parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.preset, Preset::kCodec);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, TamperLineRoundTrips) {
  ReproCase repro;
  repro.layer = "chunk";
  repro.kind = "tamper";
  repro.spec.seed = 23;
  repro.tamper_file = "seg-3";
  repro.tamper_offset = 129;
  repro.tamper_mask = 0x40;

  std::string line = FormatRepro(repro);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().kind, "tamper");
  EXPECT_EQ(parsed.value().tamper_file, "seg-3");
  EXPECT_EQ(parsed.value().tamper_offset, 129u);
  EXPECT_EQ(parsed.value().tamper_mask, 0x40u);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, MalformedLinesAreRejected) {
  EXPECT_FALSE(ParseRepro("").ok());
  EXPECT_FALSE(ParseRepro("REPRO v1 layer=chunk").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v2 layer=chunk").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=disk kind=crash").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=chunk kind=crash seed=xyz").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=chunk kind=tamper").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 bogus").ok());

  // Numbers out of their field's range are rejected, not wrapped or
  // narrowed.
  const std::string crash = "TDB-REPRO v1 layer=chunk kind=crash ";
  EXPECT_TRUE(ParseRepro(crash + "seed=18446744073709551615").ok());
  EXPECT_FALSE(ParseRepro(crash + "seed=18446744073709551616").ok());
  EXPECT_FALSE(ParseRepro(crash + "seed=99999999999999999999").ok());
  EXPECT_TRUE(ParseRepro(crash + "commits=4294967295").ok());
  EXPECT_FALSE(ParseRepro(crash + "commits=4294967296").ok());
  EXPECT_FALSE(ParseRepro(crash + "slots=4294967296").ok());
  EXPECT_FALSE(ParseRepro(crash + "tear=4294967296/4").ok());
  EXPECT_FALSE(ParseRepro(crash + "tear=1/4294967296").ok());
  EXPECT_FALSE(ParseRepro(crash + "rcrash=9223372036854775808").ok());
  EXPECT_FALSE(
      ParseRepro("TDB-REPRO v1 layer=shard kind=crash shards=4294967298")
          .ok());
  // A zero tear denominator is not silently rewritten.
  EXPECT_FALSE(ParseRepro(crash + "tear=1/0").ok());
  // A tamper mask must flip something and fit in a byte: 256 would
  // truncate to a no-op XOR and replay as vacuously "masked".
  const std::string tamper =
      "TDB-REPRO v1 layer=chunk kind=tamper file=anchor-0 off=0";
  EXPECT_TRUE(ParseRepro(tamper + " mask=255").ok());
  EXPECT_FALSE(ParseRepro(tamper + " mask=256").ok());
  EXPECT_FALSE(ParseRepro(tamper + " mask=0").ok());
  EXPECT_FALSE(ParseRepro(tamper).ok());  // No mask at all.
  for (const std::string& bad :
       {tamper + " mask=256", crash + "tear=1/0", crash + "seed=x"}) {
    Result<ReproCase> parsed = ParseRepro(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Oracle model.

TEST(OracleTest, FloorAndBoundaries) {
  StateOracle oracle;
  EXPECT_EQ(oracle.boundaries(), 1u);  // Boundary 0: empty store.
  EXPECT_EQ(oracle.floor(), 0u);

  oracle.BeginCommit();
  oracle.PendingWrite(1, Buffer{1, 2, 3});
  oracle.EndCommit(true, true);  // Acked durable: raises the floor.
  EXPECT_EQ(oracle.boundaries(), 2u);
  EXPECT_EQ(oracle.floor(), 1u);

  oracle.BeginCommit();
  oracle.PendingWrite(2, Buffer{4});
  oracle.EndCommit(true, false);  // Non-durable: floor unchanged.
  EXPECT_EQ(oracle.boundaries(), 3u);
  EXPECT_EQ(oracle.floor(), 1u);

  // Recovering either boundary above the floor is acceptable...
  EXPECT_TRUE(oracle.MatchRecovered(oracle.state(1)).ok());
  Result<size_t> last = oracle.MatchRecovered(oracle.state(2));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), 2u);
  // ...but the pre-floor (empty) state is a lost durable commit.
  EXPECT_FALSE(oracle.MatchRecovered(StateOracle::State{}).ok());

  // A state that was never a commit boundary (torn batch) never matches.
  StateOracle::State torn = oracle.state(2);
  torn.erase(1);
  EXPECT_FALSE(oracle.MatchRecovered(torn).ok());

  oracle.MarkAllDurable();  // Explicit checkpoint.
  EXPECT_EQ(oracle.floor(), 2u);
  EXPECT_FALSE(oracle.MatchRecovered(oracle.state(1)).ok());

  oracle.BeginCommit();
  oracle.PendingRemove(1);
  oracle.EndCommit(false, true);  // Crashed commit: boundary, no floor.
  EXPECT_EQ(oracle.boundaries(), 4u);
  EXPECT_EQ(oracle.floor(), 2u);
  EXPECT_TRUE(oracle.MatchRecovered(oracle.state(3)).ok());
}

// ---------------------------------------------------------------------------
// Exhaustive campaigns. Each row runs as kSweepShards ctest entries named
// "<suite>.<test>/<shard>".

struct Campaign {
  const char* suite;
  const char* test;
  const char* name;  // The HARNESS-COVERAGE campaign.
  const char* layer;
  const char* kind;
  TraceSpec spec;
  uint32_t shards = 0;
  int64_t recovery_crash = -1;
  uint64_t tear_buckets = 0;      // Crash campaigns: buckets per point.
  uint64_t min_write_points = 0;  // Crash campaigns: lower bound.
};

// Crash campaigns: every store write index of the workload x every
// torn-write fraction of the layer, each rebooted, recovered and checked
// against the oracle's durable floor (see engine.h).
constexpr Campaign kCrashCampaigns[] = {
    // At least one write per commit.
    {.suite = "Shards/ChunkStrictCrashSweepTest", .test = "Exhaustive",
     .name = "chunk-strict-crash", .layer = "chunk", .kind = "crash",
     .spec = kChunkStrict, .tear_buckets = 5, .min_write_points = 10},
    // Group commit coalesces runs of nondurable commits into one merged
    // multi-commit record, so crash points include tears INSIDE a record
    // that covers several logical commits. The oracle invariant is
    // unchanged — a merged record applies all-or-nothing and its boundary
    // IS a commit boundary — and the sweep proves no group-acked commit is
    // ever lost and no torn group partially applied. Tear buckets are n/8
    // so interior sector boundaries of the longer appends are reached.
    {.suite = "Shards/ChunkGroupCrashSweepTest", .test = "Exhaustive",
     .name = "chunk-group-crash", .layer = "chunk", .kind = "crash",
     .spec = Spec(29, 10, 10, Preset::kGroup), .tear_buckets = 9},
    // Compress-before-encrypt: a crash torn inside a compressed append
    // recovers to a commit-boundary prefix exactly as in kStrict.
    {.suite = "Shards/ChunkCodecCrashSweepTest", .test = "Exhaustive",
     .name = "chunk-codec-crash", .layer = "chunk", .kind = "crash",
     .spec = Spec(31, 10, 10, Preset::kCodec), .tear_buckets = 5,
     .min_write_points = 10},
    {.suite = "Shards/ChunkCleaningCrashSweepTest", .test = "Exhaustive",
     .name = "chunk-cleaning-crash", .layer = "chunk", .kind = "crash",
     .spec = Spec(11, 8, 8, Preset::kCleaning), .tear_buckets = 5},
    // Double crash: every case crashes again during recovery.
    {.suite = "Shards/ChunkRecoveryCrashSweepTest", .test = "Exhaustive",
     .name = "chunk-recovery-crash", .layer = "chunk", .kind = "crash",
     .spec = Spec(9, 6, 8), .recovery_crash = 2, .tear_buckets = 5},
    {.suite = "Shards/ObjectCrashSweepTest", .test = "Exhaustive",
     .name = "object-crash", .layer = "object", .kind = "crash",
     .spec = kObject, .tear_buckets = 5},
    {.suite = "Shards/CollectionCrashSweepTest", .test = "Exhaustive",
     .name = "collection-crash", .layer = "collection", .kind = "crash",
     .spec = kCollection, .tear_buckets = 3},
    // The sharded trace writes strictly more than one store's worth: 2PC
    // staging and decision records ride the same global write index.
    {.suite = "Shards/ShardCrashSweepTest", .test = "Exhaustive",
     .name = "shard-crash", .layer = "shard", .kind = "crash",
     .spec = kShardTrace, .shards = kRouterShards, .tear_buckets = 5,
     .min_write_points = kShardTrace.commits + 1},
    // Cross-shard object transactions drive the MAC-chained 2PC from the
    // durable-object API down.
    {.suite = "Shards/ObjectShardCrashSweepTest", .test = "Exhaustive",
     .name = "objshard-crash", .layer = "objshard", .kind = "crash",
     .spec = kShardTrace, .shards = kRouterShards, .tear_buckets = 5,
     .min_write_points = kShardTrace.commits + 1},
};

// Tamper campaigns: the first, middle and last byte of every classified
// region of the image, each reopened and read back through the layer.
constexpr Campaign kTamperCampaigns[] = {
    {.suite = "Shards/ChunkTamperSweepTest", .test = "EveryRegionClass",
     .name = "chunk-tamper", .layer = "chunk", .kind = "tamper",
     .spec = kTamper},
    // A corrupted compressed payload may surface as a hash mismatch or a
    // decompression failure; either way it is detected and audited.
    {.suite = "Shards/CodecTamperSweepTest", .test = "EveryRegionClass",
     .name = "chunk-codec-tamper", .layer = "chunk", .kind = "tamper",
     .spec = Spec(37, 8, 8, Preset::kCodec)},
    {.suite = "Shards/ObjectTamperSweepTest", .test = "EveryRegionClass",
     .name = "object-tamper", .layer = "object", .kind = "tamper",
     .spec = kTamper},
    {.suite = "Shards/CollectionTamperSweepTest", .test = "EveryRegionClass",
     .name = "collection-tamper", .layer = "collection", .kind = "tamper",
     .spec = kCollection},
    // The clean sharded image keeps every 2PC decision record (they are
    // never garbage-collected), so sites include tampered coordinator
    // decision records.
    {.suite = "Shards/ShardTamperSweepTest", .test = "EveryRegionClass",
     .name = "shard-tamper", .layer = "shard", .kind = "tamper",
     .spec = kShardTrace, .shards = kRouterShards},
    // The image of a crash inside the 2PC window: live prepare records and
    // the decision records recovery depends on.
    {.suite = "Shards/ShardMid2pcTamperSweepTest",
     .test = "LivePrepareAndDecisionRecords", .name = "shard-mid2pc-tamper",
     .layer = "shard", .kind = "tamper2pc", .spec = kShardTrace,
     .shards = kRouterShards},
    {.suite = "Shards/ObjectShardTamperSweepTest", .test = "EveryRegionClass",
     .name = "objshard-tamper", .layer = "objshard", .kind = "tamper",
     .spec = kShardTrace, .shards = kRouterShards},
};

ReproCase CampaignCase(const Campaign& campaign) {
  ReproCase repro;
  repro.layer = campaign.layer;
  repro.kind = campaign.kind;
  repro.spec = campaign.spec;
  repro.shards = campaign.shards;
  repro.crash.recovery_crash = campaign.recovery_crash;
  return repro;
}

void CheckCrashCampaign(const Campaign& campaign, int shard) {
  ReproCase repro = CampaignCase(campaign);
  SweepStats stats;
  Status status = Sweep(repro, shard, kSweepShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // No sampling: the campaign enumerates every store write of the
  // workload, and this shard ran exactly its residue class of the cases.
  Result<uint64_t> writes = CountWrites(repro);
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_EQ(stats.write_points, writes.value());
  EXPECT_GE(stats.write_points, campaign.min_write_points);
  EXPECT_EQ(stats.tear_buckets, campaign.tear_buckets);
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    shard, kSweepShards));
  std::cout << FormatCoverage(campaign.name, shard, kSweepShards, stats)
            << std::endl;
}

void CheckTamperCampaign(const Campaign& campaign, int shard) {
  SweepStats stats;
  Status status = Sweep(CampaignCase(campaign), shard, kSweepShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The full campaign (counted identically in every shard) covers all four
  // structural region classes of the image.
  uint64_t site_sum = 0;
  for (int cls = 0; cls < kRegionClasses; cls++) {
    EXPECT_GT(stats.sites_per_class[cls], 0u)
        << "no tamper sites in region class "
        << RegionClassName(static_cast<RegionClass>(cls));
    site_sum += stats.sites_per_class[cls];
  }
  EXPECT_EQ(stats.tamper_sites, site_sum);
  EXPECT_EQ(stats.cases, ShardShare(stats.tamper_sites, shard, kSweepShards));
  // Every executed case was either detected or masked — never silently
  // accepted (silent acceptance fails the sweep above).
  EXPECT_EQ(stats.detected + stats.masked, stats.cases);
  EXPECT_GT(stats.detected, 0u);
  // Each detected case left exactly one deduplicated audit event (with a
  // region compatible with the corrupted byte's class) and one
  // flight-recorder bundle; each masked case left neither. The sweep
  // enforces that per case; these cross-check the totals.
  EXPECT_EQ(stats.audit_events, stats.detected);
  EXPECT_EQ(stats.recorder_bundles, stats.detected);
  std::cout << FormatCoverage(campaign.name, shard, kSweepShards, stats)
            << std::endl;
}

class CampaignTest : public ::testing::Test {
 public:
  CampaignTest(const Campaign* campaign, int shard)
      : campaign_(campaign), shard_(shard) {}

  void TestBody() override {
    if (std::string(campaign_->kind) == "crash") {
      CheckCrashCampaign(*campaign_, shard_);
    } else {
      CheckTamperCampaign(*campaign_, shard_);
    }
  }

 private:
  const Campaign* campaign_;
  int shard_;
};

void RegisterCampaigns(std::span<const Campaign> campaigns) {
  for (const Campaign& campaign : campaigns) {
    for (int shard = 0; shard < kSweepShards; shard++) {
      const std::string test =
          std::string(campaign.test) + "/" + std::to_string(shard);
      ::testing::RegisterTest(
          campaign.suite, test.c_str(), nullptr, nullptr, __FILE__, __LINE__,
          [&campaign, shard]() -> ::testing::Test* {
            return new CampaignTest(&campaign, shard);
          });
    }
  }
}

const bool kCampaignsRegistered = [] {
  RegisterCampaigns(kCrashCampaigns);
  RegisterCampaigns(kTamperCampaigns);
  return true;
}();

// ---------------------------------------------------------------------------
// Single cases replay through their repro lines.

TEST(ObjectShardHarnessTest, CasesReplayViaReproLine) {
  ReproCase repro;
  repro.layer = "objshard";
  repro.kind = "crash";
  repro.shards = kRouterShards;
  repro.spec = kShardTrace;
  repro.crash.write_index = 3;
  repro.crash.tear_num = 2;
  ASSERT_TRUE(RunCase(repro).ok());

  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("layer=objshard"), std::string::npos);
  EXPECT_NE(line.find("shards=2"), std::string::npos);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(FormatRepro(*parsed), line);
  EXPECT_TRUE(ReplayRepro(line).ok());

  // objshard requires shards=, and tamper2pc stays chunk-shard-layer only.
  EXPECT_FALSE(
      ParseRepro("TDB-REPRO v1 layer=objshard kind=crash point=1").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=objshard kind=tamper2pc "
                          "shards=2 file=a off=1")
                   .ok());
}

TEST(ReproTest, ShardLinesRoundTrip) {
  ReproCase repro;
  repro.layer = "shard";
  repro.kind = "crash";
  repro.shards = 4;
  repro.spec = kShardTrace;
  repro.crash.write_index = 17;
  repro.crash.tear_num = 3;
  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("layer=shard"), std::string::npos);
  EXPECT_NE(line.find("shards=4"), std::string::npos);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shards, 4u);
  EXPECT_EQ(parsed->crash.write_index, 17u);
  EXPECT_EQ(FormatRepro(*parsed), line);

  // tamper2pc carries BOTH the crash locator and the tampered byte.
  repro.kind = "tamper2pc";
  repro.tamper_file = "s0/seg-000001";
  repro.tamper_offset = 99;
  repro.tamper_mask = kTamperMask;
  line = FormatRepro(repro);
  parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, "tamper2pc");
  EXPECT_EQ(parsed->crash.write_index, 17u);
  EXPECT_EQ(parsed->tamper_file, "s0/seg-000001");
  EXPECT_EQ(FormatRepro(*parsed), line);

  // Malformed variants are rejected.
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=shard kind=crash point=1").ok());
  EXPECT_FALSE(
      ParseRepro("TDB-REPRO v1 layer=chunk kind=tamper2pc file=a off=1").ok());
}

TEST(ShardHarnessTest, SingleCrashAndTamperCasesReplayViaReproLine) {
  ReproCase repro;
  repro.layer = "shard";
  repro.kind = "crash";
  repro.shards = kRouterShards;
  repro.spec = kShardTrace;
  repro.crash.write_index = 3;
  repro.crash.tear_num = 2;
  ASSERT_TRUE(RunCase(repro).ok());
  EXPECT_TRUE(ReplayRepro(FormatRepro(repro)).ok());
}

// ---------------------------------------------------------------------------
// Self-test: the harness must catch a deliberately buggy store, print a
// repro line, and the line must replay the same failure.

// A store that silently drops its `drop_index`-th write: the caller gets
// OK but nothing reaches the base store — a lying disk.
class LossyStore : public platform::UntrustedStore {
 public:
  LossyStore(platform::UntrustedStore* base, uint64_t drop_index)
      : base_(base), drop_index_(drop_index) {}

  Status Create(const std::string& name, bool overwrite) override {
    return base_->Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    return base_->Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    if (writes_++ == drop_index_) return Status::OK();  // Dropped.
    return base_->Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_->Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_->Truncate(name, size);
  }
  Status Sync(const std::string& name) override { return base_->Sync(name); }
  std::vector<std::string> List() const override { return base_->List(); }

  uint64_t writes() const { return writes_; }

 private:
  platform::UntrustedStore* base_;
  uint64_t drop_index_;
  mutable uint64_t writes_ = 0;
};

// The lying store goes under the fault injector of every case's store
// environment, whatever the layer above it, so each layer's oracle must
// catch it. The dropped write must precede a durable commit (losing
// nondurable work is legitimate), which kCollection's lone leading durable
// commit does not offer: the collection layer runs kObject's trace.
TEST(HarnessSelfTest, CatchesLyingStoreAndReproLineReplays) {
  const std::pair<const char*, TraceSpec> layers[] = {
      {"chunk", kChunkStrict}, {"object", kObject}, {"collection", kObject}};
  for (const auto& [layer, spec] : layers) {
    SCOPED_TRACE(layer);
    ReproCase sweep;
    sweep.layer = layer;
    sweep.spec = spec;

    // Measure the total write count (open + trace) with a pass-through
    // wrapper, then aim the drop at the middle of the trace.
    std::vector<std::unique_ptr<LossyStore>> stores;
    auto probe_wrap = [&](platform::UntrustedStore* base) {
      stores.push_back(std::make_unique<LossyStore>(base, ~0ull));
      return stores.back().get();
    };
    Result<uint64_t> counted = CountWrites(sweep, probe_wrap);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    uint64_t total_writes = stores.back()->writes();
    ASSERT_GT(total_writes, counted.value());  // Open itself writes.
    // Drop the trace's third write: an early log record that later durable
    // commits depend on.
    uint64_t drop = total_writes - counted.value() + 2;

    auto lossy_wrap = [&](platform::UntrustedStore* base) {
      stores.push_back(std::make_unique<LossyStore>(base, drop));
      return stores.back().get();
    };
    Status swept = Sweep(sweep, 0, 1, nullptr, lossy_wrap);
    ASSERT_FALSE(swept.ok())
        << "harness failed to catch a store that drops writes";

    // The failure message leads with a single-line repro.
    std::string message(swept.message());
    ASSERT_EQ(message.rfind("TDB-REPRO v1 ", 0), 0u) << message;
    std::string line = message.substr(0, message.find(" | "));

    // The line parses back to the failing case...
    Result<ReproCase> parsed = ParseRepro(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().layer, layer);
    EXPECT_EQ(parsed.value().kind, "crash");
    EXPECT_EQ(parsed.value().spec.seed, spec.seed);

    // ...and replaying it in the same buggy environment reproduces the
    // failure, while replaying it against the real store passes.
    Status replayed = RunCase(parsed.value(), nullptr, lossy_wrap);
    EXPECT_FALSE(replayed.ok());
    EXPECT_EQ(std::string(replayed.message()).rfind("TDB-REPRO v1 ", 0), 0u);

    Status clean = ReplayRepro(line);
    EXPECT_TRUE(clean.ok()) << clean.ToString();
  }
}

// ReplayRepro routes every layer tag and kind to the engine.
TEST(HarnessSelfTest, ReplayReproRoutesLayers) {
  ReproCase repro;
  repro.kind = "crash";
  repro.spec = kCollection;
  repro.crash.write_index = 3;
  repro.crash.tear_num = 2;
  repro.crash.tear_den = 4;

  repro.layer = "collection";
  Status collection = ReplayRepro(FormatRepro(repro));
  EXPECT_TRUE(collection.ok()) << collection.ToString();

  repro.layer = "object";
  Status object = ReplayRepro(FormatRepro(repro));
  EXPECT_TRUE(object.ok()) << object.ToString();

  // Tamper repros replay at every layer, not only chunk and scenario.
  repro.kind = "tamper";
  repro.tamper_file = "anchor-0";
  repro.tamper_offset = 0;
  repro.tamper_mask = kTamperMask;
  for (const char* layer : {"object", "collection"}) {
    repro.layer = layer;
    Status tamper = ReplayRepro(FormatRepro(repro));
    EXPECT_TRUE(tamper.ok()) << tamper.ToString();
  }

  EXPECT_FALSE(ReplayRepro("TDB-REPRO v1 layer=nope kind=crash").ok());
}

// A campaign built in code is validated like a parsed repro line: a sharded
// layer without a shard count must not quietly run as a single store.
TEST(HarnessSelfTest, SweepRejectsInvalidCampaign) {
  for (const char* layer : {"shard", "objshard"}) {
    for (const char* kind : {"crash", "tamper"}) {
      ReproCase repro;
      repro.layer = layer;
      repro.kind = kind;
      repro.spec = kShardTrace;
      repro.shards = 0;
      SweepStats stats;
      Status swept = Sweep(repro, 0, 1, &stats);
      EXPECT_EQ(swept.code(), Status::Code::kInvalidArgument)
          << layer << " " << kind << ": " << swept.ToString();
      EXPECT_EQ(stats.cases, 0u);
      EXPECT_EQ(CountWrites(repro).status().code(),
                Status::Code::kInvalidArgument)
          << layer;
    }
  }
  ReproCase unknown;
  unknown.layer = "nope";
  EXPECT_EQ(Sweep(unknown, 0, 1).code(), Status::Code::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Region classifier sanity on a real image.

TEST(RegionMapTest, ClassifiesWholeImage) {
  // Build a real store image via the tamper path: run a trace cleanly,
  // then classify the resulting files.
  ReproCase repro;
  repro.spec = kTamper;
  Result<uint64_t> writes = CountWrites(repro);
  ASSERT_TRUE(writes.ok());

  // A tamper case on a fixed site exercises classify + evaluate.
  repro.kind = "tamper";
  repro.tamper_file = "anchor-0";
  repro.tamper_mask = 0x40;
  Status status = RunCase(repro);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace tdb::harness
