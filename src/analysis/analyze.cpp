#include "analysis/report.h"

#include <algorithm>
#include <cstdio>

#include "flexstep/core_unit.h"
#include "isa/opcode.h"

namespace flexstep::analysis {

using isa::Opcode;

u32 dbc_entries_per_inst(Opcode op) { return fs::CoreUnit::entries_for(op); }

namespace {

/// Per-block dataflow: the forward entry-bound fixpoint the burst tightening
/// rests on.
void run_dataflow(const Cfg& cfg, ProgramReport& report) {
  const CodeView& view = cfg.view;
  report.costs.assign(cfg.blocks.size(), BlockCosts{});

  u8 global = 0;
  for (u32 i = 0; i < view.inst_count(); ++i) {
    global = std::max<u8>(global, static_cast<u8>(dbc_entries_per_inst(view.code[i].op)));
  }
  report.global_entry_bound = global;

  for (u32 b = 0; b < cfg.blocks.size(); ++b) {
    const BasicBlock& block = cfg.blocks[b];
    BlockCosts& costs = report.costs[b];
    for (u32 i = block.first; i < block.first + block.count; ++i) {
      const auto entries = static_cast<u8>(dbc_entries_per_inst(view.code[i].op));
      costs.max_entries_per_inst = std::max(costs.max_entries_per_inst, entries);
    }
    costs.fwd_entry_bound = costs.max_entries_per_inst;
    // Indirect flow can land on any address-taken leader (or leave the image,
    // which fetch-faults into the kernel before any further user commit);
    // bound it by the whole image rather than the approximated target set so
    // the burst bound never depends on const-prop precision.
    if (block.has_indirect) costs.fwd_entry_bound = global;
  }

  // Fixpoint: join each block's bound with its successors' until stable. The
  // lattice has three points (0/1/2), so this converges in a few sweeps even
  // on pathological graphs; reverse program order makes the common
  // (forward-edge) case converge in one.
  bool changed = true;
  while (changed) {
    changed = false;
    for (u32 b = static_cast<u32>(cfg.blocks.size()); b-- > 0;) {
      const BasicBlock& block = cfg.blocks[b];
      u8 bound = report.costs[b].fwd_entry_bound;
      for (const u32 succ : {block.fall_through, block.taken}) {
        if (succ != kNoBlock) {
          bound = std::max(bound, report.costs[succ].fwd_entry_bound);
        }
      }
      if (bound != report.costs[b].fwd_entry_bound) {
        report.costs[b].fwd_entry_bound = bound;
        changed = true;
      }
    }
  }

  // Per-instruction view for the runtime: reachable instructions take their
  // block's forward bound, everything else (unreachable per the
  // over-approximation, i.e. should never execute) stays at the fully
  // conservative 2 so a missed path degrades the bound, never soundness.
  report.fwd_entry_bound.assign(view.inst_count(), 2);
  for (u32 i = 0; i < view.inst_count(); ++i) {
    const u32 b = cfg.block_of[i];
    if (b != kNoBlock && cfg.blocks[b].reachable) {
      report.fwd_entry_bound[i] = report.costs[b].fwd_entry_bound;
    }
  }

  report.total_insts = view.inst_count();
  report.reachable_insts = 0;
  for (const BasicBlock& block : cfg.blocks) {
    if (block.reachable) report.reachable_insts += block.count;
  }
}

/// Statically-known hot candidates for trace seeding: every reachable
/// loop-path block leader. The trace recorder re-validates each seed (trace
/// viability, min length); a seed that never dispatches costs one
/// direct-mapped slot until genuine heat reclaims it, so over-seeding is
/// self-correcting.
void collect_seeds(const Cfg& cfg, ProgramReport& report) {
  for (const BasicBlock& block : cfg.blocks) {
    if (block.reachable && block.in_loop) {
      report.trace_seeds.push_back(block.start_pc);
    }
  }
  std::sort(report.trace_seeds.begin(), report.trace_seeds.end());
}

}  // namespace

ProgramReport analyze(const CodeView& view, std::string name) {
  ProgramReport report;
  report.name = std::move(name);
  report.cfg = build_cfg(view);
  if (report.cfg.blocks.empty()) return report;
  run_dataflow(report.cfg, report);
  collect_seeds(report.cfg, report);
  run_lint(report.cfg, report);
  for (const LintFinding& finding : report.findings) {
    if (finding.severity == LintSeverity::kError) {
      ++report.error_count;
    } else {
      ++report.warning_count;
    }
  }
  return report;
}

ProgramReport analyze(const isa::Program& program) {
  return analyze(view_of(program), program.name);
}

std::string ProgramReport::render() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "program %s: %llu insts (%llu reachable), %zu blocks, %zu "
                "seeds, entry bound %u (global)\n",
                name.empty() ? "<anonymous>" : name.c_str(),
                static_cast<unsigned long long>(total_insts),
                static_cast<unsigned long long>(reachable_insts),
                cfg.blocks.size(), trace_seeds.size(),
                static_cast<unsigned>(global_entry_bound));
  out += line;
  std::snprintf(line, sizeof(line), "  lint: %u error(s), %u warning(s)\n",
                error_count, warning_count);
  out += line;
  for (const LintFinding& finding : findings) {
    std::snprintf(line, sizeof(line), "  [%s] %s @0x%llx: %s\n",
                  finding.severity == LintSeverity::kError ? "error" : "warn",
                  lint_kind_name(finding.kind),
                  static_cast<unsigned long long>(finding.pc),
                  finding.message.c_str());
    out += line;
  }
  return out;
}

}  // namespace flexstep::analysis
