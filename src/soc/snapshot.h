// First-class SoC state capture: the unit of checkpoint/restore that the
// fault campaigns fork injections from and the sim::Session API exposes.
//
// A Snapshot spans everything that influences the forward simulation:
//   * arch::Memory        — every resident (touched) page, not 2^addr space;
//   * the shared L2 and every core's private L1 tag arrays + LRU state;
//   * per-core architectural state (registers, PC, CSRs), branch-predictor
//     tables, LR/SC reservation, timers, clocks and counters;
//   * the FlexStep fabric — global configuration registers, every DBC
//     channel's queued stream (rings + segment metadata + pending fault),
//     every CoreUnit's producer/checker state, the channel wiring and the
//     checker waitlists, and the error reporter's event log;
//   * the VerifiedExecution driver flags.
//
// Not captured: decoded program images (derived data — the restoring side
// registers the same images, cf. sim::Session::fork) and the extension-seam
// pointers (hooks/handlers/ports), which are re-derived by the restoring
// owners. Held by reference, host-only: each core's superinstruction trace
// tables (arch/trace.h), shared with the core that saved them. They are not
// serialized and not digested; Core::restore adopts them, so a restored or
// forked SoC also stops each budgeted advance() where the original did. A
// snapshot decoded from a file has none, and restoring it flushes the trace
// caches instead. The per-core LR/SC reservation IS captured
// (arch::Core::Snapshot) and restore re-registers it in the shared
// arch::Memory registry so cross-agent invalidation keeps working in forks.
// Restoring is bit-exact: a restored SoC's subsequent execution is
// indistinguishable from the original continuing (tests/test_sim.cpp).
#pragma once

#include <string>
#include <vector>

#include "arch/cache.h"
#include "arch/core.h"
#include "arch/memory.h"
#include "common/archive.h"
#include "flexstep/fabric.h"

namespace flexstep::soc {

/// Wire-format identity of a serialized soc::Snapshot: the archive app tag
/// ("FSNP") and the snapshot format version. Policy: the version is bumped on
/// ANY layout change — in this header's sections or in any component
/// Snapshot's transfer() walk — and readers reject every other version with a
/// structured kVersionSkew (no migration shims; persisted snapshots are
/// caches their owners recompute, not an interchange format). The pin test
/// (SnapshotWire.EncodingIsPinnedToTheFormatVersion) fails on a layout change
/// until the version is bumped and the pin re-recorded.
inline constexpr u32 kSnapshotAppTag = 0x504E5346;  // "FSNP" little-endian.
// v2: the driver section's single exec_main_halted flag became the per-core
// exec_halted_mask for the role-based N-producer topology.
// v3: a DBC channel item carries only its kind's payload — a MAL entry, or a
// checkpoint's registers (plus the IC for a SegmentEnd).
// v4: a core no longer carries a pending software-interrupt flag.
inline constexpr u32 kSnapshotFormatVersion = 4;

/// Section ids inside a snapshot archive, in file order. The resident-page
/// payload gets its own section so the (large, 8-aligned, raw-span) page data
/// can be mmap-read in place while the fiddly varint-packed state stays
/// compact.
enum SnapshotSection : u32 {
  kSectionMemory = 1,
  kSectionL2 = 2,
  kSectionCores = 3,
  kSectionFabric = 4,
  kSectionDriver = 5,
};

struct Snapshot {
  arch::Memory::Snapshot memory;
  arch::Cache::Snapshot l2;
  std::vector<arch::Core::Snapshot> cores;
  fs::Fabric::Snapshot fabric;

  // Co-simulation driver state (filled by VerifiedExecution::save; a bare
  // Soc::save leaves the defaults). exec_halted_mask holds one bit per
  // producer core id that has signalled task exit.
  bool exec_prepared = false;
  u64 exec_halted_mask = 0;

  /// Approximate host footprint (dominated by the resident memory pages;
  /// shared trace tables are not copied and not counted).
  std::size_t bytes() const {
    std::size_t total = memory.bytes() + l2.bytes() + fabric.bytes();
    for (const auto& core : cores) total += core.bytes();
    return total;
  }

  /// Encode into `ar` as one CRC-guarded section per subsystem (the
  /// SnapshotSection ids above). `ar` must have been constructed with
  /// kSnapshotAppTag / kSnapshotFormatVersion.
  void serialize(io::ArchiveWriter& ar) const;

  /// Decode, through the same transfer() walk. On any failure (truncation,
  /// CRC, version skew, malformed payload) `ar.error()` is latched with the
  /// first failure and *this is left in a safe (possibly partial) state —
  /// callers must check `ar.ok()` before using the snapshot.
  void deserialize(io::ArchiveReader& ar);

 private:
  /// The one field walk behind serialize() and deserialize().
  template <class Ar>
  void transfer(Ar& ar);
};

/// Serialize `snapshot` and write it to `path` via temp-file + atomic rename
/// (a crashed writer never leaves a torn file — readers see the old file or
/// the complete new one).
io::ArchiveError save_snapshot(const Snapshot& snapshot, const std::string& path);

/// Read + decode `path` into `out`. On failure returns the structured error
/// and leaves `out` partially filled — treat it as garbage.
io::ArchiveError load_snapshot(const std::string& path, Snapshot& out);

/// FNV-1a digest of a full SoC snapshot's wire form (serialize()), so the
/// component transfer() walks alone define what a snapshot contains. The wire form
/// is written field by field (padding bytes never reach it) and leaves out
/// the host-only trace tables. Shared by the fault flip round-trip tests and
/// the snapshot fork and file round-trip identity tests.
u64 snapshot_digest(const Snapshot& snapshot);

}  // namespace flexstep::soc
