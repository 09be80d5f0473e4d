#include "analysis/cfg.h"

#include <algorithm>

#include "isa/opcode.h"

namespace flexstep::analysis {

using isa::Opcode;

CodeView view_of(const isa::Program& program) {
  CodeView view;
  view.base = program.code_base;
  view.end = program.code_end();
  view.entry = program.entry();
  view.code = program.code.data();
  return view;
}

namespace {

/// Terminators that transfer control to a statically unknown pc. kMret /
/// kCJal / kCApply are kernel-model instructions; user code should never
/// contain them, but a hand-assembled program might — treating them as
/// indirect keeps every downstream bound conservative instead of wrong.
bool is_indirect_terminator(Opcode op) {
  return op == Opcode::kJalr || op == Opcode::kMret || op == Opcode::kCJal ||
         op == Opcode::kCApply;
}

bool is_terminator(Opcode op) {
  return isa::is_cond_branch(op) || op == Opcode::kJal || op == Opcode::kHalt ||
         is_indirect_terminator(op);
}

/// Direct control-transfer target (branches and JAL encode a byte offset
/// from their own pc). Only meaningful for those ops.
Addr direct_target(Addr pc, const isa::Instruction& inst) {
  return pc + static_cast<Addr>(static_cast<i64>(inst.imm));
}

bool has_direct_target(Opcode op) {
  return isa::is_cond_branch(op) || op == Opcode::kJal;
}

/// Collect every leader pc that could plausibly be an indirect-jump target:
/// call-return sites (pc+4 of a linking JAL/JALR) plus any in-image 4-aligned
/// value a constant-materialisation chain produces. A linear forward scan
/// with a per-register known-constant map — deliberately an
/// over-approximation (values are collected wherever a chain step lands in
/// the image, and the map survives block boundaries); the dynamic validator
/// in validate.h holds reachability to the truth.
void collect_address_taken(const CodeView& view, std::vector<Addr>& out) {
  ConstMap consts;
  const auto note = [&](u64 v) {
    if (v >= view.base && v < view.end && (v % 4) == 0) out.push_back(v);
  };
  const u32 n = view.inst_count();
  for (u32 i = 0; i < n; ++i) {
    const isa::Instruction& ins = view.code[i];
    const Addr pc = view.base + Addr{i} * 4;
    if (consts.step(ins, pc) && ins.rd != 0) note(consts.value[ins.rd]);
  }
}

}  // namespace

bool ConstMap::step(const isa::Instruction& ins, Addr pc) {
  if ((ins.op == Opcode::kJal || ins.op == Opcode::kJalr) && ins.rd != 0) {
    known[ins.rd] = true;
    value[ins.rd] = pc + 4;  // call-return site in the link register
    return true;
  }
  const u8 rd = ins.rd;
  if (rd == 0 || isa::opcode_format(ins.op) == isa::Format::kS) return false;
  bool now_known = false;
  u64 v = 0;
  switch (ins.op) {
    case Opcode::kLui:
      v = static_cast<u64>(static_cast<i64>(ins.imm) << isa::kLuiShift);
      now_known = true;
      break;
    case Opcode::kAddi:
      if (known[ins.rs1]) { v = value[ins.rs1] + static_cast<u64>(static_cast<i64>(ins.imm)); now_known = true; }
      break;
    case Opcode::kOri:
      if (known[ins.rs1]) { v = value[ins.rs1] | static_cast<u64>(static_cast<i64>(ins.imm)); now_known = true; }
      break;
    case Opcode::kXori:
      if (known[ins.rs1]) { v = value[ins.rs1] ^ static_cast<u64>(static_cast<i64>(ins.imm)); now_known = true; }
      break;
    case Opcode::kSlli:
      if (known[ins.rs1]) { v = value[ins.rs1] << (ins.imm & 63); now_known = true; }
      break;
    case Opcode::kSrli:
      if (known[ins.rs1]) { v = value[ins.rs1] >> (ins.imm & 63); now_known = true; }
      break;
    case Opcode::kAdd:
      if (known[ins.rs1] && known[ins.rs2]) { v = value[ins.rs1] + value[ins.rs2]; now_known = true; }
      break;
    case Opcode::kSub:
      if (known[ins.rs1] && known[ins.rs2]) { v = value[ins.rs1] - value[ins.rs2]; now_known = true; }
      break;
    default:
      break;
  }
  known[rd] = now_known;
  if (now_known) value[rd] = v;
  return now_known;
}

Cfg build_cfg(const CodeView& view) {
  Cfg cfg;
  cfg.view = view;
  const u32 n = view.inst_count();
  if (n == 0 || view.code == nullptr) return cfg;

  // ---- leader discovery ----
  std::vector<u8> leader(n, 0);
  leader[0] = 1;
  if (view.contains(view.entry)) leader[view.index_of(view.entry)] = 1;
  for (u32 i = 0; i < n; ++i) {
    const isa::Instruction& inst = view.code[i];
    if (!is_terminator(inst.op)) continue;
    if (i + 1 < n) leader[i + 1] = 1;
    if (has_direct_target(inst.op)) {
      const Addr pc = view.base + Addr{i} * 4;
      const Addr target = direct_target(pc, inst);
      // Malformed targets (misaligned / out of image) grow no edge and no
      // leader; the lint reports them from taken_pc below.
      if (view.contains(target) && (target - view.base) % 4 == 0) {
        leader[view.index_of(target)] = 1;
      }
    }
  }

  // ---- block construction ----
  cfg.block_of.assign(n, kNoBlock);
  for (u32 i = 0; i < n;) {
    BasicBlock block;
    block.first = i;
    block.start_pc = view.base + Addr{i} * 4;
    u32 j = i;
    while (j < n) {
      cfg.block_of[j] = static_cast<u32>(cfg.blocks.size());
      const Opcode op = view.code[j].op;
      ++j;
      if (is_terminator(op)) break;
      if (j < n && leader[j]) break;
    }
    block.count = j - i;
    block.end_pc = view.base + Addr{j} * 4;
    cfg.blocks.push_back(block);
    i = j;
  }

  // ---- successor edges ----
  for (u32 b = 0; b < cfg.blocks.size(); ++b) {
    BasicBlock& block = cfg.blocks[b];
    const u32 last = block.first + block.count - 1;
    const isa::Instruction& term = view.code[last];
    const Addr term_pc = view.base + Addr{last} * 4;
    if (term.op == Opcode::kHalt) {
      block.ends_in_halt = true;
      continue;
    }
    if (is_indirect_terminator(term.op)) {
      block.has_indirect = true;
      cfg.has_indirect_flow = true;
      continue;  // no fall-through: the terminator always redirects
    }
    if (has_direct_target(term.op)) {
      block.has_direct_target = true;
      block.taken_pc = direct_target(term_pc, term);
      if (view.contains(block.taken_pc) && (block.taken_pc - view.base) % 4 == 0) {
        block.taken = cfg.block_of[view.index_of(block.taken_pc)];
      }
      if (term.op == Opcode::kJal) continue;  // unconditional: no fall-through
    }
    // Conditional branch not-taken, or a block cut at the next leader /
    // image end. Falling off the image end fetch-faults before any further
    // user commit, so "no successor" is the right model there.
    if (block.first + block.count < n) {
      block.fall_through = cfg.block_of[block.first + block.count];
    }
  }

  // ---- indirect-target over-approximation ----
  if (cfg.has_indirect_flow) {
    std::vector<Addr> taken_addrs;
    collect_address_taken(view, taken_addrs);
    std::sort(taken_addrs.begin(), taken_addrs.end());
    taken_addrs.erase(std::unique(taken_addrs.begin(), taken_addrs.end()),
                      taken_addrs.end());
    for (Addr a : taken_addrs) {
      const u32 b = cfg.block_at(a);
      // Only block leaders can be entered; a mid-block address-taken value is
      // almost always data, but a jump there would split the block at run
      // time — record the containing block so reachability stays sound.
      if (b != kNoBlock) cfg.indirect_target_blocks.push_back(b);
    }
    std::sort(cfg.indirect_target_blocks.begin(), cfg.indirect_target_blocks.end());
    cfg.indirect_target_blocks.erase(
        std::unique(cfg.indirect_target_blocks.begin(),
                    cfg.indirect_target_blocks.end()),
        cfg.indirect_target_blocks.end());
  }

  // ---- reachability (DFS from the entry block) ----
  std::vector<u32> stack;
  bool indirect_expanded = false;
  const u32 entry_block = cfg.block_at(view.entry);
  if (entry_block != kNoBlock) stack.push_back(entry_block);
  while (!stack.empty()) {
    const u32 b = stack.back();
    stack.pop_back();
    BasicBlock& block = cfg.blocks[b];
    if (block.reachable) continue;
    block.reachable = true;
    if (block.fall_through != kNoBlock) stack.push_back(block.fall_through);
    if (block.taken != kNoBlock) stack.push_back(block.taken);
    if (block.has_indirect && !indirect_expanded) {
      // One expansion suffices: the target set is global, not per-jump.
      indirect_expanded = true;
      for (u32 t : cfg.indirect_target_blocks) stack.push_back(t);
    }
  }

  // ---- back edges & loop spans ----
  for (u32 b = 0; b < cfg.blocks.size(); ++b) {
    const BasicBlock& block = cfg.blocks[b];
    if (!block.reachable) continue;
    for (const u32 succ : {block.fall_through, block.taken}) {
      if (succ == kNoBlock || succ > b) continue;
      cfg.blocks[succ].back_edge_target = true;
      // Mark the retreating edge's address span as loop body. Generated /
      // structured code is reducible, so the span [head, latch] is the
      // natural loop; for irreducible hand-written code this is merely a
      // heuristic hotness hint (it feeds trace seeding, never soundness).
      for (u32 k = succ; k <= b; ++k) cfg.blocks[k].in_loop = true;
    }
  }

  return cfg;
}

}  // namespace flexstep::analysis
