// Uniform microarchitectural fault-site abstraction over the whole SoC.
//
// CFA-class vulnerability frameworks enumerate *state elements* — every
// flip-flop-equivalent bit of every component — and flip one (site, bit) per
// injection. This header gives the repository the same uniform handle: a
// FaultSite names one bit of one indexable element of one component class,
// and flip() routes it to the owning component's adapter (arch::Memory,
// arch::Cache, arch::BranchPredictor, fs::Channel, fs::CoreUnit, the cores'
// architectural registers). All flips are pure XOR and therefore self-inverse:
// flipping the same site twice restores bit-identical SoC state, which the
// round-trip unit tests pin via soc::snapshot_digest().
//
// Components deliberately span the detection spectrum of the paper's
// threat model:
//   * kArchReg / kMemory   — architectural state; escapes FlexStep when the
//     corruption never flows through a checked segment (SDC candidates);
//   * kCacheTag / kBranchPred — timing-only microarchitecture (masked);
//   * kDbcEntry / kDbcMeta — the forwarded verification stream itself
//     (FlexStep's detection substrate);
//   * kCheckerState        — the checker's own RCPM/ASS latches (strikes
//     inside the monitoring hardware).
#pragma once

#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace flexstep::soc {
class Soc;
}  // namespace flexstep::soc

namespace flexstep::fault {

/// SoC component classes whose state is enumerable as fault sites.
enum class Component : u8 {
  kArchReg,       ///< Per-core architectural registers (pc + x1..x31).
  kMemory,        ///< Resident 8-byte words of the flat physical memory.
  kCacheTag,      ///< L1I/L1D/L2 tag-array ways (tag + valid sentinel).
  kBranchPred,    ///< BHT counters, BTB entries, RAS slots.
  kDbcEntry,      ///< Queued DBC stream items (MAL entries, SCP/ECP words).
  kDbcMeta,       ///< DBC segment metadata (inst_count / ready_at / end_seq).
  kCheckerState,  ///< Checker-side replay latches (pending SCP, ASS ctx, IC).
};

inline constexpr std::size_t kComponentCount = 7;

constexpr const char* component_name(Component c) {
  switch (c) {
    case Component::kArchReg: return "reg";
    case Component::kMemory: return "mem";
    case Component::kCacheTag: return "cache-tag";
    case Component::kBranchPred: return "bpred";
    case Component::kDbcEntry: return "dbc-entry";
    case Component::kDbcMeta: return "dbc-meta";
    case Component::kCheckerState: return "checker";
  }
  return "?";
}

/// One injectable state bit: element `index` of `component`, bit `bit`,
/// struck at simulated time `cycle` (bookkeeping — the flip itself is applied
/// by the campaign at that moment; nothing is scheduled).
struct FaultSite {
  Component component = Component::kArchReg;
  u64 index = 0;
  u64 bit = 0;
  Cycle cycle = 0;

  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

/// Number of indexable elements `component` currently exposes on `soc`.
/// Memory and DBC spaces grow as the run touches pages / queues items, so the
/// count is a property of the SoC's current state, not of its config.
u64 site_index_count(soc::Soc& soc, Component component);

/// Flippable bits of the element `site.index` names (site.bit is ignored).
u64 site_bit_count(soc::Soc& soc, const FaultSite& site);

/// XOR the addressed bit in the live SoC. Self-inverse; performs no campaign
/// bookkeeping (detection attribution is the vulnerability framework's job).
void flip(soc::Soc& soc, const FaultSite& site);

/// Uniform draw over `component`'s current (index, bit) space; cycle is
/// stamped with soc.max_cycle(). Requires site_index_count(...) > 0.
FaultSite random_site(soc::Soc& soc, Component component, Rng& rng);

/// Human-readable form: "<component> i<index> b<bit> @<cycle>".
std::string describe(const FaultSite& site);

}  // namespace flexstep::fault
