// Whole-image control-flow graph over a pre-decoded program image.
//
// FlexStep discovers guest-program structure dynamically today: the trace
// cache probes block entries with heat counters, and the bounded engine
// sizes producer bursts with a global worst-case (2 DBC entries / inst).
// Both are strictly better-informed when the block boundaries, successor
// edges and per-block costs are known ahead of time (QEMU-style TB chaining;
// MEEK's ahead-of-time sizing of checkable windows). This header builds that
// structure once, from the same pre-decoded instruction stream the cores
// fetch from — so every derived fact is a fact about what will execute.
//
// Soundness posture (what downstream clients may assume):
//   * Block boundaries and direct successor edges are exact: leaders are the
//     image entry, every in-image direct branch/jump target, and the
//     instruction after every terminator.
//   * Indirect control (JALR, plus the kernel-flavoured kMret/kCJal/kCApply
//     if they ever appear in user code) is over-approximated: reachability
//     treats every address-taken leader and every call-return site as a
//     possible target, and the dataflow in report.h bounds indirect paths by
//     the whole-image worst case, never by the approximated target set.
//   * Execution leaving the image (fall-off-the-end, wild JALR) faults at
//     fetch before any further user-mode commit, so "outside the image" needs
//     no edges — the trap boundary is the conservative catch-all.
#pragma once

#include <vector>

#include "arch/program_image.h"
#include "common/types.h"
#include "isa/assembler.h"
#include "isa/instruction.h"

namespace flexstep::analysis {

/// A read-only window onto pre-decoded code: the analysis input. Mirrors
/// arch::LoadedImage's shape so either a loaded image or an un-loaded
/// isa::Program can be analysed (pre-run lint happens before any SoC exists).
struct CodeView {
  Addr base = 0;
  Addr end = 0;  ///< One past the last instruction byte.
  Addr entry = 0;
  const isa::Instruction* code = nullptr;

  u32 inst_count() const { return static_cast<u32>((end - base) / 4); }
  bool contains(Addr pc) const { return pc >= base && pc < end; }
  const isa::Instruction& at(Addr pc) const { return code[(pc - base) / 4]; }
  u32 index_of(Addr pc) const { return static_cast<u32>((pc - base) / 4); }
};

CodeView view_of(const isa::Program& program);

inline constexpr u32 kNoBlock = ~u32{0};

/// One basic block: a maximal single-entry straight-line run ending at the
/// first terminator (conditional branch, JAL, JALR, HALT, kernel-return
/// flavoured ops) or at the next leader / image end.
struct BasicBlock {
  u32 first = 0;  ///< Instruction index of the leader.
  u32 count = 0;  ///< Instructions in the block (>= 1).
  Addr start_pc = 0;
  Addr end_pc = 0;  ///< One past the last instruction byte.

  // ---- successor edges (block ids; kNoBlock when absent) ----
  u32 fall_through = kNoBlock;  ///< Next block in program order.
  u32 taken = kNoBlock;         ///< Direct branch/JAL target block.
  /// Raw branch/jump target address (valid when the terminator is a direct
  /// branch or JAL, even when it is malformed — the lint reads it).
  Addr taken_pc = 0;
  bool has_direct_target = false;
  /// Terminator transfers control indirectly (JALR / kMret / kCJal /
  /// kCApply): successors are over-approximated, costs use the image bound.
  bool has_indirect = false;
  bool ends_in_halt = false;

  // ---- derived structure ----
  bool reachable = false;
  /// Some predecessor edge arrives from a block at a higher (or equal)
  /// address — the head of a natural loop in generated / structured code.
  bool back_edge_target = false;
  /// Block lies inside the address span of some retreating edge.
  bool in_loop = false;
  u32 region = kNoBlock;  ///< Single-entry region id (report.h fills it).
};

struct Cfg {
  CodeView view;
  std::vector<BasicBlock> blocks;          ///< Sorted by start_pc.
  std::vector<u32> block_of;               ///< Instruction index -> block id.
  /// Leaders whose address is materialised by a constant chain or is a
  /// call-return site (pc+4 of a linking JAL/JALR): the indirect-target
  /// over-approximation used for reachability.
  std::vector<u32> indirect_target_blocks;
  /// The image contains at least one indirect terminator, so the
  /// indirect_target_blocks set participates in reachability.
  bool has_indirect_flow = false;

  /// Block containing `pc`, or kNoBlock when pc is outside the image.
  u32 block_at(Addr pc) const {
    return view.contains(pc) ? block_of[view.index_of(pc)] : kNoBlock;
  }
};

/// Build the CFG: leader discovery, block construction, successor edges,
/// indirect-target over-approximation, reachability and loop marking.
/// Never aborts — malformed programs (misaligned or out-of-image targets)
/// produce a CFG with the offending edges dropped; the lint reports them.
Cfg build_cfg(const CodeView& view);

/// Tiny forward constant propagator over the assembler's li-materialisation
/// subset (LUI/ADDI/ORI/XORI/SLLI/SRLI/ADD/SUB chains plus JAL/JALR link
/// values). Anything else writing a register makes it unknown. Shared by the
/// indirect-target collection (cfg.cpp) and the store-to-code lint.
struct ConstMap {
  bool known[32] = {true};  // x0 is the constant 0
  u64 value[32] = {0};

  /// Apply one instruction at `pc`. Returns true when the instruction's rd
  /// holds a statically known value afterwards.
  bool step(const isa::Instruction& ins, Addr pc);
};

}  // namespace flexstep::analysis
