// analysis::ProgramReport — the product of the static pass, consumed by
// three clients:
//   * trace seeding (arch::Core::seed_traces): statically-known hot-candidate
//     region heads are recorded into the trace cache up front instead of
//     waiting for heat-counter thresholds;
//   * burst sizing (fs::CoreUnit::set_static_dbc_bound): the bounded engine
//     divides DBC headroom by the per-pc worst-case entry production over the
//     forward closure instead of the global 2-entries-per-instruction;
//   * the pre-run lint (analyze() on an isa::Program): malformed guest
//     programs are flagged before they run.
//
// Every number here is a worst-case or exact static property of the
// pre-decoded image — validate.h replays the image dynamically and holds the
// block structure and counts to the retired-instruction truth.
#pragma once

#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "common/types.h"

namespace flexstep::analysis {

/// Single-entry superblock region: a tree of blocks entered only through its
/// head (extended basic block). Rolled-up costs are worst-case over the
/// head-to-leaf paths of the tree.
struct Region {
  u32 head = kNoBlock;          ///< Block id of the unique entry.
  std::vector<u32> blocks;      ///< Member block ids (head first).
  u32 total_insts = 0;          ///< Sum over members.
  u32 worst_path_insts = 0;     ///< Max head-to-leaf instruction count.
  u32 worst_path_mem_ops = 0;   ///< Max head-to-leaf memory-op count.
  u64 worst_path_dbc_entries = 0;  ///< Max head-to-leaf DBC entry production.
  Cycle worst_path_static_cost = 0;
  bool hot_candidate = false;   ///< Head sits on a loop path (seed the trace).
};

enum class LintSeverity : u8 { kWarning, kError };

enum class LintKind : u8 {
  kUnreachableBlock,        ///< warning: no path from the entry reaches it
  kBranchTargetMisaligned,  ///< error: direct target not 4-aligned
  kBranchTargetOutOfImage,  ///< error: direct target outside the image
  kJumpIntoFusedPair,       ///< warning: target splits a fusible pair
  kStoreToCode,             ///< warning: statically-known store into the image
  kScNeverSucceeds,         ///< error: SC with no LR on any path from entry
};

constexpr const char* lint_kind_name(LintKind k) {
  switch (k) {
    case LintKind::kUnreachableBlock: return "unreachable-block";
    case LintKind::kBranchTargetMisaligned: return "branch-target-misaligned";
    case LintKind::kBranchTargetOutOfImage: return "branch-target-out-of-image";
    case LintKind::kJumpIntoFusedPair: return "jump-into-fused-pair";
    case LintKind::kStoreToCode: return "store-to-code";
    case LintKind::kScNeverSucceeds: return "sc-never-succeeds";
  }
  return "?";
}

struct LintFinding {
  LintKind kind = LintKind::kUnreachableBlock;
  LintSeverity severity = LintSeverity::kWarning;
  Addr pc = 0;      ///< Offending instruction.
  Addr target = 0;  ///< Branch target / store address when applicable.
  std::string message;
};

/// Per-block dataflow results, indexed like Cfg::blocks.
struct BlockCosts {
  u32 mem_ops = 0;          ///< Exact memory-instruction count in the block.
  u64 dbc_entries = 0;      ///< Worst-case DBC entries the block produces.
  Cycle static_cost = 0;    ///< Sum of static result latencies (lower bound).
  u8 max_entries_per_inst = 0;
  /// Fixpoint: max DBC entries any single instruction can produce on any
  /// path starting in this block (block-local max joined over successors;
  /// indirect terminators join the whole-image bound). This is what makes
  /// tightened producer bursts sound: a burst starting anywhere in the block
  /// can never out-produce headroom / fwd_entry_bound instructions.
  u8 fwd_entry_bound = 0;
};

struct ProgramReport {
  std::string name;
  Cfg cfg;
  std::vector<BlockCosts> costs;    ///< Parallel to cfg.blocks.
  std::vector<Region> regions;
  std::vector<LintFinding> findings;
  /// Region-head pcs worth seeding into the trace cache (deterministic,
  /// ascending). Host-speed only: seeds never change simulated outcomes.
  std::vector<Addr> trace_seeds;
  /// Per-instruction worst-case DBC entries over the forward closure
  /// (index = (pc - base) / 4). Unreachable instructions hold the
  /// conservative 2 — if the over-approximation ever misses a real path the
  /// bound degrades to today's global divisor instead of turning unsound.
  std::vector<u8> fwd_entry_bound;
  /// Max DBC entries of any single instruction anywhere in the image —
  /// the kernel-resume / indirect-flow bound.
  u8 global_entry_bound = 0;

  u64 total_insts = 0;
  u64 reachable_insts = 0;
  u32 error_count = 0;
  u32 warning_count = 0;

  bool has_errors() const { return error_count > 0; }
  /// Human-readable multi-line summary (lint table + region roll-up).
  std::string render() const;
};

/// Worst-case DBC stream entries one retired instruction of `op` produces
/// (delegates to the runtime's own fs::CoreUnit::entries_for so the static
/// and dynamic answers can never drift apart).
u32 dbc_entries_per_inst(isa::Opcode op);

/// Run the full pass: CFG, dataflow, regions, seeds, lint.
ProgramReport analyze(const CodeView& view, std::string name = {});
ProgramReport analyze(const isa::Program& program);

/// Lint only (analyze() calls this; exposed for targeted tests).
void run_lint(const Cfg& cfg, ProgramReport& report);

}  // namespace flexstep::analysis
