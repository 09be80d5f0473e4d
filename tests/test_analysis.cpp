// Static guest-program analysis: CFG construction, DBC-cost dataflow, the
// pre-run lint, dynamic validation against retired-instruction truth, and the
// three clients (trace seeding, tightened producer bursts, the pre-run lint
// through analysis::analyze()). The load-bearing guarantees pinned here:
//   * every analysis result is consistent with dynamic behaviour (validator);
//   * seeding / burst tightening are host-speed only — simulated outcomes are
//     bit-identical with analysis on, off, and across engines;
//   * a store into the code image drops both the traces and the static burst
//     bound (conservative fallback), still bit-identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/validate.h"
#include "arch/trace.h"
#include "sim/scenario.h"
#include "soc/verified_run.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep::analysis {
namespace {

using isa::Assembler;
using isa::Opcode;

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

/// li(5, 60); loop: addi*2; bne -> loop; halt; <unreachable addi; halt>
isa::Program loop_program() {
  Assembler a;
  a.li(5, 60);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(6, 6, 1);
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();
  a.addi(7, 7, 1);  // dead code
  a.halt();
  return a.finalize("loop");
}

TEST(Cfg, LoopProgramStructure) {
  const isa::Program program = loop_program();
  const Cfg cfg = build_cfg(view_of(program));

  // Blocks: [li][loop body+bne][halt][dead addi+halt] — the li block ends at
  // the loop leader, the body at the bne terminator; the dead tail is one
  // block because nothing targets its halt.
  ASSERT_EQ(cfg.blocks.size(), 4u);
  const BasicBlock& prologue = cfg.blocks[0];
  const BasicBlock& body = cfg.blocks[1];
  const BasicBlock& halt = cfg.blocks[2];
  const BasicBlock& dead = cfg.blocks[3];

  EXPECT_EQ(prologue.fall_through, 1u);
  EXPECT_EQ(prologue.taken, kNoBlock);
  EXPECT_TRUE(prologue.reachable);

  EXPECT_EQ(body.count, 3u);
  EXPECT_TRUE(body.has_direct_target);
  EXPECT_EQ(body.taken, 1u);          // back edge to itself
  EXPECT_EQ(body.fall_through, 2u);
  EXPECT_TRUE(body.in_loop);
  EXPECT_TRUE(body.reachable);

  EXPECT_TRUE(halt.ends_in_halt);
  EXPECT_EQ(halt.fall_through, kNoBlock);
  EXPECT_TRUE(halt.reachable);

  EXPECT_EQ(dead.count, 2u);
  EXPECT_TRUE(dead.ends_in_halt);
  EXPECT_FALSE(dead.reachable);
  EXPECT_FALSE(cfg.has_indirect_flow);

  // block_of is total over the image.
  for (u32 i = 0; i < cfg.view.inst_count(); ++i) {
    EXPECT_NE(cfg.block_of[i], kNoBlock);
  }
}

TEST(Cfg, IndirectFlowReachesAddressTakenLeaders) {
  // A JALR through a li-materialised address: the target block must be
  // reachable through the over-approximation even with no direct edge to it.
  Assembler a;
  const std::size_t materialize_at = a.size();
  a.addi(5, 0, 0);  // imm patched below once the target address is known
  a.jalr(1, 5, 0);
  a.halt();
  const Addr target_pc = a.here();
  a.addi(6, 6, 1);
  a.halt();
  isa::Program program = a.finalize("indirect");
  program.code[materialize_at].imm = static_cast<i32>(target_pc);

  const Cfg cfg = build_cfg(view_of(program));
  EXPECT_TRUE(cfg.has_indirect_flow);
  const u32 tb = cfg.block_at(target_pc);
  ASSERT_NE(tb, kNoBlock);
  EXPECT_TRUE(cfg.blocks[tb].reachable);
  EXPECT_FALSE(cfg.indirect_target_blocks.empty());
}

// ---------------------------------------------------------------------------
// Dataflow
// ---------------------------------------------------------------------------

TEST(Dataflow, ForwardEntryBoundTightensAfterLastAmo) {
  // Block A: amoadd (2 entries); block B (after the only path past it): plain
  // loads/stores (1); block C: pure ALU then halt (0 after last mem op...
  // bound joins over successors, so C's bound is 0 only if no mem op follows).
  Assembler a;
  a.li(10, 0x0100'0000);
  a.amoadd_d(5, 10, 6);
  auto next = a.new_label();
  a.j(next);
  a.bind(next);
  a.ld(6, 10, 0);
  a.sd(6, 10, 8);
  auto tail = a.new_label();
  a.j(tail);
  a.bind(tail);
  a.addi(7, 7, 1);
  a.halt();
  const isa::Program program = a.finalize("phases");
  const ProgramReport report = analyze(program);

  EXPECT_EQ(report.global_entry_bound, 2u);
  const CodeView view = view_of(program);
  // At the amo itself: 2. After it (the ld/sd region): 1. In the ALU tail: 0.
  const auto bound_at = [&](Addr pc) { return report.fwd_entry_bound[view.index_of(pc)]; };
  u32 amo_index = 0, ld_index = 0, tail_index = 0;
  for (u32 i = 0; i < view.inst_count(); ++i) {
    if (view.code[i].op == Opcode::kAmoaddD) amo_index = i;
    if (view.code[i].op == Opcode::kLd) ld_index = i;
    if (view.code[i].op == Opcode::kHalt) { tail_index = i - 1; break; }
  }
  EXPECT_EQ(bound_at(program.code_base + amo_index * 4), 2u);
  EXPECT_EQ(bound_at(program.code_base + ld_index * 4), 1u);
  EXPECT_EQ(bound_at(program.code_base + tail_index * 4), 0u);

  // The ld/sd block's own worst instruction logs one entry.
  const u32 ld_block = report.cfg.block_of[ld_index];
  EXPECT_EQ(report.costs[ld_block].max_entries_per_inst, 1u);
}

TEST(Dataflow, LoopKeepsBoundAliveAroundBackEdge) {
  // The AMO sits at the TOP of the loop: pcs later in the body must still
  // carry bound 2 because the back edge re-reaches the AMO.
  Assembler a;
  a.li(10, 0x0100'0000);
  a.li(5, 10);
  auto loop = a.new_label();
  a.bind(loop);
  a.amoadd_d(6, 10, 7);
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();
  const isa::Program program = a.finalize("loop-amo");
  const ProgramReport report = analyze(program);
  const CodeView view = view_of(program);
  for (u32 i = 0; i < view.inst_count(); ++i) {
    if (view.code[i].op == Opcode::kAddi && view.code[i].rd == 5 &&
        view.code[i].imm == -1) {
      EXPECT_EQ(report.fwd_entry_bound[i], 2u);  // loop re-reaches the AMO
    }
    if (view.code[i].op == Opcode::kHalt) {
      EXPECT_EQ(report.fwd_entry_bound[i], 0u);
    }
  }
}

TEST(Dataflow, LoopBodyIsTheTraceSeed) {
  const isa::Program program = loop_program();
  const ProgramReport report = analyze(program);
  // The loop body is the only block on a loop path.
  EXPECT_EQ(report.trace_seeds, std::vector<Addr>{report.cfg.blocks[1].start_pc});
  EXPECT_EQ(report.total_insts, program.code.size());
  EXPECT_LT(report.reachable_insts, report.total_insts);  // dead tail
}

// ---------------------------------------------------------------------------
// Lint
// ---------------------------------------------------------------------------

u32 count_kind(const ProgramReport& report, LintKind kind) {
  u32 n = 0;
  for (const LintFinding& f : report.findings) n += f.kind == kind ? 1 : 0;
  return n;
}

TEST(Lint, FlagsUnreachableBlocks) {
  const ProgramReport report = analyze(loop_program());
  EXPECT_GE(count_kind(report, LintKind::kUnreachableBlock), 1u);
  EXPECT_EQ(report.error_count, 0u);  // warnings only
}

TEST(Lint, FlagsMalformedBranchTargets) {
  Assembler a;
  a.addi(5, 5, 1);
  auto l = a.new_label();
  a.bind(l);
  a.beq(0, 0, l);
  a.halt();
  isa::Program program = a.finalize("wild");
  // Surgically corrupt the branch: byte offset +2 (misaligned), then another
  // program with offset far outside the image.
  isa::Program misaligned = program;
  misaligned.code[1].imm = 2;
  const ProgramReport r1 = analyze(misaligned);
  EXPECT_EQ(count_kind(r1, LintKind::kBranchTargetMisaligned), 1u);
  EXPECT_TRUE(r1.has_errors());

  isa::Program wild = program;
  wild.code[1].imm = 0x40000;
  const ProgramReport r2 = analyze(wild);
  EXPECT_EQ(count_kind(r2, LintKind::kBranchTargetOutOfImage), 1u);
  EXPECT_TRUE(r2.has_errors());
}

TEST(Lint, FlagsJumpIntoFusedPair) {
  // add x5,x5,x6 ; add x7,x7,x8 is a fusible ALU pair; a jump entering at the
  // second add splits it.
  Assembler a;
  auto entry_skip = a.new_label();
  a.j(entry_skip);
  a.add(5, 5, 6);
  a.bind(entry_skip);   // jump lands between the two fusible adds...
  a.add(7, 7, 8);
  a.halt();
  const ProgramReport report = analyze(a.finalize("split-pair"));
  EXPECT_EQ(count_kind(report, LintKind::kJumpIntoFusedPair), 1u);
  EXPECT_EQ(report.error_count, 0u);
}

TEST(Lint, FlagsStoresIntoExecutableImage) {
  Assembler a;
  a.li(5, static_cast<i64>(isa::kDefaultCodeBase));
  a.sd(6, 5, 4);  // store lands inside the (3-instruction) code image
  a.halt();
  const ProgramReport report = analyze(a.finalize("self-store"));
  EXPECT_EQ(count_kind(report, LintKind::kStoreToCode), 1u);
}

TEST(Lint, FlagsOrphanStoreConditional) {
  Assembler a;
  a.li(10, 0x0100'0000);
  a.sc_d(5, 10, 6);  // no LR anywhere: can never succeed
  a.halt();
  const ProgramReport report = analyze(a.finalize("orphan-sc"));
  EXPECT_EQ(count_kind(report, LintKind::kScNeverSucceeds), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(Lint, PairedLrScIsClean) {
  Assembler a;
  a.li(10, 0x0100'0000);
  auto retry = a.new_label();
  a.bind(retry);
  a.lr_d(5, 10);
  a.addi(5, 5, 1);
  a.sc_d(6, 10, 5);
  a.bne(6, 0, retry);
  a.halt();
  const ProgramReport report = analyze(a.finalize("lr-sc"));
  EXPECT_EQ(count_kind(report, LintKind::kScNeverSucceeds), 0u);
  EXPECT_FALSE(report.has_errors());
}

TEST(Lint, GeneratedWorkloadsAreLintClean) {
  // The shipped example programs must carry zero lint errors, here at a tiny
  // scale (AnalysisClients.EveryBenchProfilePassesTheGates checks every Parsec
  // and SPEC profile at bench scale).
  workloads::BuildOptions tiny;
  tiny.iterations_override = 3;
  tiny.seed = 1;
  for (const auto& profile : workloads::parsec_profiles()) {
    const ProgramReport report =
        analyze(workloads::build_workload(profile, tiny));
    EXPECT_FALSE(report.has_errors()) << profile.name << "\n" << report.render();
  }
}

// ---------------------------------------------------------------------------
// Dynamic validation (the consistency gate)
// ---------------------------------------------------------------------------

TEST(Validate, HandWrittenProgramsMatchDynamicTruth) {
  for (const isa::Program& program : {loop_program()}) {
    const ProgramReport report = analyze(program);
    const ValidationResult result = validate_report(report, program);
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_GT(result.retired_insts, 0u);
  }
}

TEST(Validate, GeneratedWorkloadsMatchDynamicTruth) {
  workloads::BuildOptions tiny;
  tiny.iterations_override = 3;
  for (const char* name : {"blackscholes", "mcf", "swaptions", "xalancbmk"}) {
    tiny.seed = 7;
    const isa::Program program =
        workloads::build_workload(workloads::find_profile(name), tiny);
    const ProgramReport report = analyze(program);
    const ValidationResult result = validate_report(report, program);
    EXPECT_TRUE(result.ok()) << name << ": " << result.summary();
    EXPECT_GT(result.retired_mem_ops, 0u) << name;
  }
}

TEST(Validate, DetectsDeliberatelyCorruptedCounts) {
  // Negative control: break the report and the validator must object.
  const isa::Program program = loop_program();
  ProgramReport report = analyze(program);
  ASSERT_FALSE(report.fwd_entry_bound.empty());
  report.trace_seeds.push_back(program.code_base + 2);  // not a leader pc
  const ValidationResult result = validate_report(report, program);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// Runtime clients: seeding, burst tightening, bit-identity
// ---------------------------------------------------------------------------

sim::Scenario tiny_scenario(const char* workload, soc::Engine engine) {
  return sim::Scenario()
      .workload(workload)
      .iterations(40)
      .seed(11)
      .dual()
      .engine(engine);
}

void expect_equal_except_occupancy(const soc::RunStats& a, const soc::RunStats& b) {
  EXPECT_EQ(a.main_cycles, b.main_cycles);
  EXPECT_EQ(a.main_instructions, b.main_instructions);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.segments_produced, b.segments_produced);
  EXPECT_EQ(a.segments_verified, b.segments_verified);
  EXPECT_EQ(a.segments_failed, b.segments_failed);
  EXPECT_EQ(a.mem_entries, b.mem_entries);
  EXPECT_EQ(a.backpressure_events, b.backpressure_events);
}

TEST(AnalysisClients, SeedingPreinstallsTracesAndCutsHeatMisses) {
  sim::Session seeded = tiny_scenario("swaptions", soc::Engine::kQuantum)
                            .analysis(true)
                            .build();
  sim::Session unseeded = tiny_scenario("swaptions", soc::Engine::kQuantum)
                              .analysis(false)
                              .build();
  ASSERT_NE(seeded.analysis(), nullptr);
  EXPECT_EQ(unseeded.analysis(), nullptr);
  const auto* seeded_cache = seeded.soc().core(0).trace_cache();
  ASSERT_NE(seeded_cache, nullptr);
  EXPECT_GT(seeded_cache->stats().seeded, 0u);

  const soc::RunStats a = seeded.run();
  const soc::RunStats b = unseeded.run();
  EXPECT_EQ(a, b);  // host-speed only: identical simulated outcomes

  const auto& ss = seeded.soc().core(0).trace_cache()->stats();
  const auto& us = unseeded.soc().core(0).trace_cache()->stats();
  // Seeds engage at least as much trace coverage with fewer heat-warming
  // misses than threshold-triggered recording.
  EXPECT_GE(ss.insts_from_traces, us.insts_from_traces);
  EXPECT_GT(ss.dispatches, 0u);
  EXPECT_LT(ss.heat_misses, us.heat_misses);
}

TEST(AnalysisClients, BoundedEngineWithAnalysisMatchesStepwise) {
  for (const char* workload : {"mcf", "streamcluster"}) {
    sim::Session stepwise = tiny_scenario(workload, soc::Engine::kStepwise)
                                .analysis(false)
                                .build();
    sim::Session bounded = tiny_scenario(workload, soc::Engine::kQuantumBounded)
                               .analysis(true)
                               .build();
    // The bound must actually be armed on the producer unit.
    EXPECT_TRUE(bounded.soc().unit(0).static_bound_active());
    const soc::RunStats ref = stepwise.run();
    const soc::RunStats tightened = bounded.run();
    expect_equal_except_occupancy(ref, tightened);
  }
}

TEST(AnalysisClients, EveryBenchProfilePassesTheGates) {
  // Every Parsec and SPEC profile, at the two scales the benches run: lint
  // clean, the validator green, bounded+analysis identical to stepwise, and
  // seeding host-speed only (identical results, no less trace coverage, no
  // more heat misses). Across the suite, seeding must save real heat-counter
  // warmup (per profile only "no worse": a profile could have no loop long
  // enough to seed).
  std::vector<workloads::WorkloadProfile> profiles = workloads::parsec_profiles();
  for (const auto& profile : workloads::specint_profiles()) profiles.push_back(profile);
  ASSERT_EQ(profiles.size(), 19u);
  for (const u32 iterations : {60u, 200u}) {
    u64 seeded = 0;
    u64 heat_misses_seeded = 0;
    u64 heat_misses_unseeded = 0;
    for (const auto& profile : profiles) {
      SCOPED_TRACE(profile.name + " at " + std::to_string(iterations) + " iterations");
      workloads::BuildOptions build;
      build.iterations_override = iterations;
      const isa::Program program = workloads::build_workload(profile, build);
      const ProgramReport report = analyze(program);
      EXPECT_FALSE(report.has_errors()) << report.render();
      const ValidationResult validation = validate_report(report, program);
      EXPECT_TRUE(validation.ok()) << validation.summary();

      const auto dual_run = [&program](soc::Engine engine, bool analysis,
                                       arch::TraceCache::Stats* traces = nullptr) {
        sim::Session session =
            sim::Scenario().program(program).dual().engine(engine).analysis(analysis).build();
        const soc::RunStats stats = session.run();
        if (traces != nullptr) *traces = session.soc().core(0).trace_cache()->stats();
        return stats;
      };
      expect_equal_except_occupancy(dual_run(soc::Engine::kStepwise, false),
                                    dual_run(soc::Engine::kQuantumBounded, true));

      arch::TraceCache::Stats with_seeds;
      arch::TraceCache::Stats without_seeds;
      EXPECT_EQ(dual_run(soc::Engine::kQuantum, true, &with_seeds),
                dual_run(soc::Engine::kQuantum, false, &without_seeds));
      EXPECT_GE(with_seeds.insts_from_traces, without_seeds.insts_from_traces);
      EXPECT_LE(with_seeds.heat_misses, without_seeds.heat_misses);
      seeded += with_seeds.seeded;
      heat_misses_seeded += with_seeds.heat_misses;
      heat_misses_unseeded += without_seeds.heat_misses;
    }
    EXPECT_GT(seeded, 0u) << iterations;
    EXPECT_LT(heat_misses_seeded, heat_misses_unseeded) << iterations;
  }
}

TEST(AnalysisClients, ForkAndRestoreAdoptTracesAndRearmBound) {
  const sim::Scenario scenario =
      tiny_scenario("swaptions", soc::Engine::kQuantum).analysis(true);
  sim::Session session = scenario.build();
  session.advance(20'000);
  const soc::Snapshot warm = session.snapshot();
  const arch::TraceTables* warm_tables = warm.cores[0].traces.get();
  ASSERT_NE(warm_tables, nullptr);
  const std::string path = "test_analysis_snapshot.fxar";
  ASSERT_TRUE(session.save_file(path).ok());

  // A fork adopts the snapshot's tables, seeds included, instead of seeding.
  sim::Session fork = session.fork(warm);
  ASSERT_NE(fork.analysis(), nullptr);
  const arch::TraceCache& fork_traces = *fork.soc().core(0).trace_cache();
  EXPECT_EQ(fork_traces.tables(), warm_tables);
  EXPECT_EQ(fork_traces.stats().seeded, 0u);
  EXPECT_EQ(fork_traces.stats().full_flushes, 0u);
  EXPECT_TRUE(fork.soc().unit(0).static_bound_active());

  // So does an in-place restore, once the session has moved on.
  const arch::TraceCache& traces = *session.soc().core(0).trace_cache();
  const u64 seeded_before = traces.stats().seeded;
  session.advance(10'000);
  session.restore(warm);
  EXPECT_EQ(traces.tables(), warm_tables);
  EXPECT_EQ(traces.stats().seeded, seeded_before);
  EXPECT_EQ(traces.stats().full_flushes, 0u);
  EXPECT_TRUE(session.soc().unit(0).static_bound_active());

  // A snapshot loaded from a file has no tables: it flushes and re-seeds.
  sim::Session from_file = scenario.build();
  const u64 seeded_at_build = from_file.soc().core(0).trace_cache()->stats().seeded;
  ASSERT_TRUE(from_file.load_file(path).ok());
  std::remove(path.c_str());
  const arch::TraceCache& file_traces = *from_file.soc().core(0).trace_cache();
  EXPECT_EQ(file_traces.stats().full_flushes, 1u);
  EXPECT_GT(file_traces.stats().seeded, seeded_at_build);
  EXPECT_TRUE(from_file.soc().unit(0).static_bound_active());

  const soc::RunStats run_on = session.run();
  const soc::RunStats forked = fork.run();
  EXPECT_EQ(run_on, forked);
  EXPECT_EQ(from_file.run(), run_on);
}

// ---------------------------------------------------------------------------
// Self-modification: conservative fallback (satellite contract)
// ---------------------------------------------------------------------------

/// A hot loop that, once, stores into its own code page (overwriting the dead
/// tail — never executed, so architectural behaviour is unchanged, but the
/// write must still drop every derived static structure covering the page).
isa::Program self_writing_program() {
  Assembler a;
  a.li(5, 200);
  a.li(10, 0x0100'0000);
  // One store into the code image before the hot loop (targets the dead tail
  // below) — the loop's later trace-cache activity then processes the
  // deferred page invalidation.
  a.li(11, static_cast<i64>(isa::kDefaultCodeBase));
  a.sd(6, 11, 0x80);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(6, 6, 1);
  a.ld(7, 10, 0);
  a.sd(6, 10, 8);
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();
  while (a.size() < 0x80 / 4 + 2) a.nop();  // dead tail: the store target
  a.halt();
  return a.finalize("self-write");
}

TEST(SelfModify, CodeStoreDropsTracesAndStaticBound) {
  sim::Scenario scenario = sim::Scenario()
                               .program(self_writing_program())
                               .dual()
                               .engine(soc::Engine::kQuantumBounded);
  sim::Session with = sim::Scenario(scenario).analysis(true).build();
  sim::Session without = sim::Scenario(scenario).analysis(false).build();
  EXPECT_TRUE(with.soc().unit(0).static_bound_active());
  EXPECT_GT(with.soc().core(0).trace_cache()->stats().seeded, 0u);
  const soc::RunStats a = with.run();
  const soc::RunStats b = without.run();
  // Bit-identical despite the mid-run fallback.
  expect_equal_except_occupancy(a, b);
  // The code-page store dropped the static bound on the producer unit...
  EXPECT_FALSE(with.soc().unit(0).static_bound_active());
  // ...and invalidated the traces covering the written page.
  EXPECT_GT(with.soc().core(0).trace_cache()->stats().code_write_flushes, 0u);
}

TEST(SelfModify, RestoreRearmsTheDroppedBound) {
  sim::Session session = sim::Scenario()
                             .program(self_writing_program())
                             .dual()
                             .engine(soc::Engine::kQuantumBounded)
                             .analysis(true)
                             .build();
  const soc::Snapshot start = session.snapshot();
  const soc::RunStats first = session.run();
  EXPECT_FALSE(session.soc().unit(0).static_bound_active());
  // Restoring rewinds memory to the analysed image, so the bound is trusted
  // again — and the rerun must reproduce the run bit-identically.
  session.restore(start);
  EXPECT_TRUE(session.soc().unit(0).static_bound_active());
  const soc::RunStats second = session.run();
  EXPECT_EQ(first, second);
}

TEST(SelfModify, CodeStoreInAForkLeavesTheOriginIntact) {
  // The fork adopts the origin's trace tables; its own code store drops the
  // fork's covering traces and static bound, never the origin's.
  sim::Session origin = sim::Scenario()
                            .program(self_writing_program())
                            .dual()
                            .engine(soc::Engine::kQuantumBounded)
                            .analysis(true)
                            .build();
  const soc::Snapshot start = origin.snapshot();
  sim::Session fork = origin.fork(start);
  const soc::RunStats forked = fork.run();
  EXPECT_GT(fork.soc().core(0).trace_cache()->stats().code_write_flushes, 0u);
  EXPECT_FALSE(fork.soc().unit(0).static_bound_active());

  const arch::TraceCache& origin_traces = *origin.soc().core(0).trace_cache();
  EXPECT_EQ(origin_traces.tables(), start.cores[0].traces.get());
  EXPECT_EQ(origin_traces.stats().code_write_flushes, 0u);
  EXPECT_TRUE(origin.soc().unit(0).static_bound_active());
  EXPECT_EQ(origin.run(), forked);
}

}  // namespace
}  // namespace flexstep::analysis
