#ifndef TDB_HARNESS_ENGINE_H_
#define TDB_HARNESS_ENGINE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "harness/trace.h"

namespace tdb::harness {

/// The crash/tamper sweep engine. Every entry point takes a ReproCase,
/// whose `layer` picks the adapter (layer.h) and whose `kind` the check:
///
///   crash      run the workload against a fault-injecting store armed at
///              `crash` (write index x torn fraction, optionally a second
///              crash during recovery), reboot, recover, and check: every
///              shard's recovered state is one of its oracle's acceptable
///              boundaries, the commit in flight is all-or-nothing across
///              the shards it touched, VerifyIntegrity passes, the stack
///              takes a durable probe and closes, and recovery logged no
///              audit events;
///   tamper     run the workload cleanly, snapshot the image mid-lifetime,
///              XOR `tamper_mask` into one byte, reopen, read everything
///              back and scrub: the corruption must be masked (values equal
///              the untampered baseline) or detected, never silently
///              accepted, and a detection leaves exactly one audit event
///              and one flight-recorder bundle;
///   tamper2pc  the same over the image a crash at `crash` leaves inside a
///              cross-shard two-phase commit (sharded layers only).
///
/// A failure's message begins with the case's FormatRepro line.

/// The XOR mask every sweep applies to a corrupted byte.
inline constexpr uint8_t kTamperMask = 0x40;

/// Dry-runs the case's workload (no crash) and returns the number of store
/// writes it issues after the stack is open: the crash sweep's domain.
Result<uint64_t> CountWrites(const ReproCase& repro,
                             const StoreWrap& wrap = nullptr);

/// Runs one case. `wrap` interposes a test store under the fault injector.
Status RunCase(const ReproCase& repro, SweepStats* stats = nullptr,
               const StoreWrap& wrap = nullptr);

/// Exhaustive campaign over the case's spec. crash: every write index x
/// every tear bucket of the layer, each with `repro.crash.recovery_crash`.
/// tamper / tamper2pc: the first, middle and last byte of every classified
/// region of the image (for tamper2pc, the first crash point whose image
/// leaves a cross-shard transaction in doubt). Case i runs only if
/// i % num_shards == shard, so ctest entries split a campaign while their
/// union covers it; `stats` counts the full campaign's domain and this
/// slice's cases.
Status Sweep(const ReproCase& repro, int shard, int num_shards,
             SweepStats* stats = nullptr, const StoreWrap& wrap = nullptr);

/// ParseRepro + RunCase: OK means the case now passes; anything else
/// reproduces the original failure.
Status ReplayRepro(const std::string& line);

/// One "HARNESS-COVERAGE campaign=... shard=k/n ..." line with every
/// SweepStats counter; tools/check.sh --harness totals them per campaign.
std::string FormatCoverage(const std::string& campaign, int shard,
                           int num_shards, const SweepStats& stats);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_ENGINE_H_
