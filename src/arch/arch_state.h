// Architectural register state — the unit of FlexStep Register Checkpoints
// (SCP/ECP) and of kernel context switches.
#pragma once

#include <array>

#include "common/types.h"

namespace flexstep::arch {

struct ArchState {
  Addr pc = 0;
  std::array<u64, 32> regs{};  ///< x0..x31; x0 always reads 0.

  friend bool operator==(const ArchState&, const ArchState&) = default;

  /// Wire form (common/archive.h): pc, then x0..x31, all fixed-width.
  template <class Ar>
  void transfer(Ar& ar) {
    ar.fixed(pc);
    for (u64& r : regs) ar.fixed(r);
  }
};

/// Storage footprint of one checkpoint in the hardware ASS unit.
/// 32 regs × 8 B + PC (8 B) = 264 B architectural payload; the paper's ASS
/// (518 B/core) holds roughly two such snapshots' worth of state + metadata.
inline constexpr u32 kArchStateBytes = 32 * 8 + 8;

}  // namespace flexstep::arch
