// Pre-run lint over the CFG: structural defects a guest program can carry
// that either abort the simulation mid-run today (wild branch targets), can
// never work (orphaned SC), or silently cost performance (jumps that split
// fusible pairs, stores that invalidate traces). Severity:
//   * kError   — the program is malformed or contains dead-on-arrival
//     synchronisation; strict callers reject it before wasting a run.
//   * kWarning — legal but suspicious / slow; reported, never fatal.
#include <cstdio>

#include "analysis/report.h"
#include "arch/trace.h"
#include "isa/opcode.h"

namespace flexstep::analysis {

using isa::Opcode;

namespace {

void add_finding(ProgramReport& report, LintKind kind, LintSeverity severity,
                 Addr pc, Addr target, std::string message) {
  LintFinding finding;
  finding.kind = kind;
  finding.severity = severity;
  finding.pc = pc;
  finding.target = target;
  finding.message = std::move(message);
  report.findings.push_back(std::move(finding));
}

std::string hex(Addr a) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(a));
  return buf;
}

/// Direct branch/JAL targets: misaligned or out-of-image targets fetch-fault
/// (or decode garbage) the moment the branch is taken.
void lint_branch_targets(const Cfg& cfg, ProgramReport& report) {
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.has_direct_target) continue;
    const Addr term_pc = block.end_pc - 4;
    const Addr target = block.taken_pc;
    if ((target % 4) != 0 || (target - cfg.view.base) % 4 != 0) {
      add_finding(report, LintKind::kBranchTargetMisaligned, LintSeverity::kError,
                  term_pc, target, "branch target " + hex(target) + " is not 4-aligned");
      continue;
    }
    if (!cfg.view.contains(target)) {
      add_finding(report, LintKind::kBranchTargetOutOfImage, LintSeverity::kError,
                  term_pc, target,
                  "branch target " + hex(target) + " lies outside the image [" +
                      hex(cfg.view.base) + ", " + hex(cfg.view.end) + ")");
    }
  }
}

void lint_unreachable(const Cfg& cfg, ProgramReport& report) {
  for (const BasicBlock& block : cfg.blocks) {
    if (block.reachable) continue;
    char msg[96];
    std::snprintf(msg, sizeof(msg), "%u-instruction block has no path from the entry",
                  block.count);
    add_finding(report, LintKind::kUnreachableBlock, LintSeverity::kWarning,
                block.start_pc, 0, msg);
  }
}

/// A jump target whose predecessor-in-program-order would fuse with it: any
/// trace recorded across that pair dispatches both halves in one
/// superinstruction, so entering at the second half always takes the
/// interpreter path — a cold entry point inside hot straight-line code.
void lint_fused_pair_entries(const Cfg& cfg, ProgramReport& report) {
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable || !block.has_direct_target || block.taken == kNoBlock) {
      continue;
    }
    const u32 t = cfg.view.index_of(block.taken_pc);
    if (t == 0) continue;
    // The instruction before the target must flow into it (not a terminator)
    // for the recorder to ever walk the pair.
    const isa::Instruction& prev = cfg.view.code[t - 1];
    if (isa::is_cond_branch(prev.op) || isa::is_jump(prev.op) ||
        prev.op == Opcode::kHalt) {
      continue;
    }
    if (arch::fused_pair_kind(prev, cfg.view.code[t]).has_value()) {
      add_finding(report, LintKind::kJumpIntoFusedPair, LintSeverity::kWarning,
                  block.end_pc - 4, block.taken_pc,
                  "jump enters the second half of a fusible pair at " +
                      hex(block.taken_pc) +
                      " (trace entry splits the superinstruction)");
    }
  }
}

/// Stores whose address a block-local constant chain resolves into the code
/// range: every such store invalidates all traces covering its page and (with
/// a static DBC bound installed) drops the bounded engine to its conservative
/// fallback — a trace-invalidation hot spot worth flagging.
void lint_stores_to_code(const Cfg& cfg, ProgramReport& report) {
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable) continue;
    ConstMap consts;  // block-local: registers are unknown at block entry
    for (u32 i = block.first; i < block.first + block.count; ++i) {
      const isa::Instruction& ins = cfg.view.code[i];
      const Addr pc = cfg.view.base + Addr{i} * 4;
      const isa::MemKind kind = isa::opcode_mem_kind(ins.op);
      if (kind == isa::MemKind::kStore || kind == isa::MemKind::kAmo ||
          kind == isa::MemKind::kStoreConditional) {
        // S-format: rs1 base + imm offset; AMO/SC (R-format): rs1 base.
        const i64 offset =
            isa::opcode_format(ins.op) == isa::Format::kS ? ins.imm : 0;
        if (consts.known[ins.rs1]) {
          const Addr addr = consts.value[ins.rs1] + static_cast<u64>(offset);
          if (cfg.view.contains(addr)) {
            add_finding(report, LintKind::kStoreToCode, LintSeverity::kWarning,
                        pc, addr,
                        "store to " + hex(addr) +
                            " hits the executable image (invalidates traces "
                            "and the static DBC bound)");
          }
        }
      }
      consts.step(ins, pc);
    }
  }
}

/// SC with no LR on any path from the entry can never succeed (the core's
/// reservation flag starts clear and only LR sets it). A forward
/// may-hold-reservation dataflow: LR generates, SC consumes, everything else
/// (including stores and AMOs, which *may* miss the reserved granule)
/// preserves — so "false" here means "provably never reserved".
void lint_orphan_sc(const Cfg& cfg, ProgramReport& report) {
  const u32 n = static_cast<u32>(cfg.blocks.size());
  std::vector<u8> in(n, 0);
  std::vector<u8> out(n, 0);
  // Indirect targets may be entered with any history: start them at "may".
  for (const u32 t : cfg.indirect_target_blocks) in[t] = 1;

  const auto transfer = [&](u32 b) -> u8 {
    u8 state = in[b];
    const BasicBlock& block = cfg.blocks[b];
    for (u32 i = block.first; i < block.first + block.count; ++i) {
      const isa::MemKind kind = isa::opcode_mem_kind(cfg.view.code[i].op);
      if (kind == isa::MemKind::kLoadReserved) state = 1;
      if (kind == isa::MemKind::kStoreConditional) state = 0;
    }
    return state;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (u32 b = 0; b < n; ++b) {
      if (!cfg.blocks[b].reachable) continue;
      const u8 next_out = transfer(b);
      if (next_out != out[b]) {
        out[b] = next_out;
        changed = true;
      }
      for (const u32 succ : {cfg.blocks[b].fall_through, cfg.blocks[b].taken}) {
        if (succ != kNoBlock && out[b] && !in[succ]) {
          in[succ] = 1;
          changed = true;
        }
      }
    }
  }

  for (u32 b = 0; b < n; ++b) {
    const BasicBlock& block = cfg.blocks[b];
    if (!block.reachable) continue;
    u8 state = in[b];
    for (u32 i = block.first; i < block.first + block.count; ++i) {
      const isa::MemKind kind = isa::opcode_mem_kind(cfg.view.code[i].op);
      if (kind == isa::MemKind::kStoreConditional) {
        if (!state) {
          add_finding(report, LintKind::kScNeverSucceeds, LintSeverity::kError,
                      cfg.view.base + Addr{i} * 4, 0,
                      "store-conditional with no load-reserved on any path "
                      "from the entry: can never succeed");
        }
        state = 0;
      } else if (kind == isa::MemKind::kLoadReserved) {
        state = 1;
      }
    }
  }
}

}  // namespace

void run_lint(const Cfg& cfg, ProgramReport& report) {
  lint_branch_targets(cfg, report);
  lint_unreachable(cfg, report);
  lint_fused_pair_entries(cfg, report);
  lint_stores_to_code(cfg, report);
  lint_orphan_sc(cfg, report);
}

}  // namespace flexstep::analysis
