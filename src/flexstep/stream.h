// The verification stream flowing from a main core to its checker core(s):
// SCP, memory-access log entries, then IC + ECP per checking segment — the
// exact order of the paper's Fig. 3.
#pragma once

#include "arch/arch_state.h"
#include "common/types.h"

namespace flexstep::fs {

/// MAL entry kinds. Regular LD/ST package into one entry; LR/SC/AMO package
/// into multiple entries (paper Sec. III-B, "multiple micro-ops").
enum class MemEntryKind : u8 {
  kLoadData,       ///< Load: address (verified) + data (used for replay).
  kStoreAddrData,  ///< Store: address + data (both verified).
  kLrLoad,         ///< LR.D load part.
  kScFlag,         ///< SC.D success flag (0 = success; trusted for replay).
  kScStore,        ///< SC.D store part (present only when the SC succeeded).
  kAmoLoad,        ///< AMO read part (old value; used for replay).
  kAmoStore,       ///< AMO write part (new value; verified).
};

struct MemLogEntry {
  MemEntryKind kind = MemEntryKind::kLoadData;
  u8 bytes = 0;
  Addr addr = 0;
  u64 data = 0;
};

/// One queued item as a DBC channel stores it. MAL entries, nearly the whole
/// stream, carry their payload inline; a checkpoint item (kScp /
/// kSegmentEnd, one of each per segment) carries its register payload in the
/// channel's side ring instead (Channel::checkpoint), so the record stays
/// small and `mem` is meaningful for kMem items only.
struct StreamItem {
  enum class Kind : u8 {
    kScp,         ///< Start Register Checkpoint (its pc = segment entry PC).
    kMem,         ///< One MAL entry.
    kSegmentEnd,  ///< Instruction count + End Register Checkpoint.
  };

  Kind kind = Kind::kScp;
  u64 seq = 0;          ///< Channel-monotonic sequence number.
  Cycle visible_at = 0; ///< Producer push time + channel latency.

  MemLogEntry mem{};    ///< kMem payload.
};
static_assert(sizeof(StreamItem) <= 48, "MAL records must stay compact");

/// Register payload of a checkpoint item.
struct Checkpoint {
  arch::ArchState state{};  ///< kScp: SCP; kSegmentEnd: ECP.
  u64 inst_count = 0;       ///< kSegmentEnd: user instructions in segment.
};

}  // namespace flexstep::fs
