// Equivalence proof for the batched execution engine: a run()-driven
// execution must be bit-identical to a step()-driven one — same ArchState
// trace, same cycle counts, same DBC stream, same detection outcomes — for
// plain, dual-checker and triple-checker co-simulations, with OS ticks on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/trace.h"
#include "common/rng.h"
#include "fault/campaign.h"
#include "sim/scenario.h"
#include "soc/soc.h"
#include "soc/verified_run.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep {
namespace {

using arch::ArchState;
using arch::Core;
using soc::Engine;
using soc::Soc;
using soc::SocConfig;
using soc::VerifiedExecution;
using soc::VerifiedRunConfig;

isa::Program tiny_workload(const char* name, u32 iterations = 3) {
  workloads::BuildOptions options;
  options.iterations_override = iterations;
  return workloads::build_workload(workloads::find_profile(name), options);
}

/// Everything externally observable about one co-simulated run.
struct Outcome {
  soc::RunStats stats;
  ArchState main_state;
  std::vector<Cycle> cycles;       ///< Per participating core.
  std::vector<u64> instret;        ///< Per participating core.
  std::vector<u64> replayed;       ///< Per checker.
  u64 detections = 0;
  u64 attributed = 0;
  std::vector<Cycle> event_latencies;
};

/// Field-wise equality except max_channel_occupancy — the one wall-order
/// diagnostic, handled by each caller per its engine's contract.
void expect_equal_except_occupancy(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.stats.main_cycles, b.stats.main_cycles);
  EXPECT_EQ(a.stats.main_instructions, b.stats.main_instructions);
  EXPECT_EQ(a.stats.completion_cycles, b.stats.completion_cycles);
  EXPECT_EQ(a.stats.segments_produced, b.stats.segments_produced);
  EXPECT_EQ(a.stats.segments_verified, b.stats.segments_verified);
  EXPECT_EQ(a.stats.segments_failed, b.stats.segments_failed);
  EXPECT_EQ(a.stats.mem_entries, b.stats.mem_entries);
  EXPECT_EQ(a.stats.backpressure_events, b.stats.backpressure_events);
  EXPECT_EQ(a.main_state, b.main_state);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.attributed, b.attributed);
  EXPECT_EQ(a.event_latencies, b.event_latencies);
}

void expect_equal(const Outcome& a, const Outcome& b) {
  expect_equal_except_occupancy(a, b);
  EXPECT_EQ(a.stats.max_channel_occupancy, b.stats.max_channel_occupancy);
}

Outcome collect(Soc& soc, VerifiedExecution& exec, const VerifiedRunConfig& config) {
  Outcome out;
  out.stats = exec.stats();
  const soc::RoleBinding& role = config.roles.front();
  out.main_state = soc.core(role.producer).capture_state();
  out.cycles.push_back(soc.core(role.producer).cycle());
  out.instret.push_back(soc.core(role.producer).instret());
  for (CoreId id : role.checkers) {
    out.cycles.push_back(soc.core(id).cycle());
    out.instret.push_back(soc.core(id).instret());
    out.replayed.push_back(soc.unit(id).replayed_instructions());
  }
  out.detections = soc.fabric().reporter().detections();
  out.attributed = soc.fabric().reporter().attributed_detections();
  for (const auto& event : soc.fabric().reporter().events()) {
    out.event_latencies.push_back(event.latency);
  }
  return out;
}

Outcome run_engine(const isa::Program& program, u32 cores,
                   std::vector<CoreId> checkers, Engine engine,
                   SocConfig soc_config, VerifiedRunConfig config = {}) {
  soc_config.num_cores = cores;
  config.roles = {{0, std::move(checkers)}};
  config.engine = engine;
  Soc soc(soc_config);
  VerifiedExecution exec(soc, config);
  exec.prepare({program});
  exec.run();
  return collect(soc, exec, config);
}

Outcome run_engine(const isa::Program& program, u32 cores,
                   std::vector<CoreId> checkers, Engine engine) {
  return run_engine(program, cores, std::move(checkers), engine,
                    SocConfig::paper_default(cores));
}

// ---------------------------------------------------------------------------
// Standalone core: the full per-instruction ArchState trace matches at every
// commit boundary regardless of the run() batch size.
// ---------------------------------------------------------------------------

TEST(ExecEngine, IdenticalArchStateTraceAtEveryCommit) {
  const auto program = tiny_workload("swaptions", 12);

  // Reference: step() one instruction at a time, recording each state.
  Soc ref_soc(SocConfig::paper_default(1));
  VerifiedExecution ref(ref_soc, VerifiedRunConfig{.roles = {{0, {}}}});
  ref.prepare({program});
  Core& ref_core = ref_soc.core(0);
  std::vector<ArchState> trace;
  std::vector<Cycle> trace_cycles;
  while (ref_core.status() == Core::Status::kRunning) {
    ref_core.step();
    trace.push_back(ref_core.capture_state());
    trace_cycles.push_back(ref_core.cycle());
  }
  ASSERT_GT(trace.size(), 10'000u);

  // Batched: run() in uneven chunk sizes; every chunk boundary must land on
  // a state the stepwise trace visited, at the same instret and cycle.
  Soc soc(SocConfig::paper_default(1));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {}}}});
  exec.prepare({program});
  Core& core = soc.core(0);
  const u64 chunks[] = {1, 7, 64, 1000, 38, 5, 100'000};
  std::size_t chunk_index = 0;
  u64 committed = 0;
  while (core.status() == Core::Status::kRunning) {
    const u64 before = core.instret();
    core.run(chunks[chunk_index++ % std::size(chunks)]);
    committed += core.instret() - before;
    ASSERT_GT(core.instret(), 0u);
    const std::size_t at = static_cast<std::size_t>(core.instret()) - 1;
    ASSERT_LT(at, trace.size());
    EXPECT_EQ(core.capture_state(), trace[at]) << "diverged at instret " << core.instret();
    EXPECT_EQ(core.cycle(), trace_cycles[at]) << "cycle diverged at instret " << core.instret();
  }
  EXPECT_EQ(committed, trace.size());
  EXPECT_EQ(core.capture_state(), trace.back());
  EXPECT_EQ(core.cycle(), trace_cycles.back());
}

TEST(ExecEngine, SlowOpAtColdFetchLineChargesMissIdentically) {
  // Regression: a slow-path opcode (FENCE) sitting at the start of a cold
  // 64 B fetch line must charge the L1I miss penalty in the batched engine
  // exactly as step() does — the fast path must not touch the fetch-line
  // state before bailing out. 128 KiB of straight-line code (8× the 16 KiB
  // L1I) guarantees every line start misses, and every line starts slow.
  isa::Assembler a;
  for (int line = 0; line < 2048; ++line) {
    a.fence();
    for (int i = 0; i < 15; ++i) a.addi(5, 5, 1);
  }
  a.halt();
  const isa::Program program = a.finalize("cold-line-fence");

  auto execute = [&](bool stepwise) {
    Soc soc(SocConfig::paper_default(1));
    soc.load_program(program);
    Core& core = soc.core(0);
    core.set_pc(program.entry());
    if (stepwise) {
      while (core.status() == Core::Status::kRunning) core.step();
    } else {
      core.run(~u64{0});
    }
    return std::pair<Cycle, u64>{core.cycle(), core.instret()};
  };
  const auto [step_cycles, step_insts] = execute(true);
  const auto [run_cycles, run_insts] = execute(false);
  EXPECT_EQ(step_insts, run_insts);
  EXPECT_EQ(step_cycles, run_cycles);
  // Sanity: the workload really was miss-dominated (≥ 2048 line misses at
  // ≥ L2 latency each), so a dropped penalty would be visible.
  EXPECT_GT(step_cycles, step_insts + 2048 * 40);
}

// ---------------------------------------------------------------------------
// Co-simulation: plain / dual / triple runs, OS ticks enabled.
// ---------------------------------------------------------------------------

TEST(ExecEngine, PlainRunIdentical) {
  const auto program = tiny_workload("swaptions", 40);
  const auto stepwise = run_engine(program, 1, {}, Engine::kStepwise);
  const auto quantum = run_engine(program, 1, {}, Engine::kQuantum);
  ASSERT_GT(stepwise.stats.main_instructions, 10'000u);
  expect_equal(stepwise, quantum);
}

TEST(ExecEngine, DualCheckerRunIdentical) {
  const auto program = tiny_workload("swaptions", 40);
  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise);
  const auto quantum = run_engine(program, 2, {1}, Engine::kQuantum);
  ASSERT_GT(stepwise.stats.segments_produced, 3u);
  expect_equal(stepwise, quantum);
}

TEST(ExecEngine, TripleCheckerRunIdentical) {
  const auto program = tiny_workload("swaptions", 40);
  const auto stepwise = run_engine(program, 3, {1, 2}, Engine::kStepwise);
  const auto quantum = run_engine(program, 3, {1, 2}, Engine::kQuantum);
  ASSERT_GT(stepwise.stats.segments_produced, 3u);
  expect_equal(stepwise, quantum);
}

TEST(ExecEngine, EveryProfileDualIdentical) {
  for (const auto& profile : workloads::parsec_profiles()) {
    workloads::BuildOptions options;
    options.iterations_override = 2;
    const auto program = workloads::build_workload(profile, options);
    const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise);
    const auto quantum = run_engine(program, 2, {1}, Engine::kQuantum);
    SCOPED_TRACE(profile.name);
    expect_equal(stepwise, quantum);
  }
}

// ---------------------------------------------------------------------------
// kQuantumBounded: the relaxed-skew engine must stay bit-identical to
// stepwise in every verdict, count and cycle — the relaxation is only taken
// where it is provably invisible. The single exception is
// max_channel_occupancy, a wall-order diagnostic sampled at push time:
// deferring consumer pops within the skew window can only raise it, never
// change any decision derived from it.
// ---------------------------------------------------------------------------

void expect_equal_relaxed(const Outcome& ref, const Outcome& relaxed) {
  expect_equal_except_occupancy(ref, relaxed);
  EXPECT_GE(relaxed.stats.max_channel_occupancy, ref.stats.max_channel_occupancy);
}

TEST(ExecEngineBounded, PlainDualTripleIdenticalToStepwise) {
  const auto program = tiny_workload("swaptions", 40);
  const struct {
    u32 cores;
    std::vector<CoreId> checkers;
  } topologies[] = {{1, {}}, {2, {1}}, {3, {1, 2}}};
  for (const auto& topo : topologies) {
    SCOPED_TRACE(topo.cores);
    const auto stepwise = run_engine(program, topo.cores, topo.checkers,
                                     Engine::kStepwise);
    const auto bounded = run_engine(program, topo.cores, topo.checkers,
                                    Engine::kQuantumBounded);
    ASSERT_GT(stepwise.stats.main_instructions, 10'000u);
    expect_equal_relaxed(stepwise, bounded);
  }
}

TEST(ExecEngineBounded, EveryProfileDualIdentical) {
  for (const auto& profile : workloads::parsec_profiles()) {
    workloads::BuildOptions options;
    options.iterations_override = 2;
    const auto program = workloads::build_workload(profile, options);
    const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise);
    const auto bounded = run_engine(program, 2, {1}, Engine::kQuantumBounded);
    SCOPED_TRACE(profile.name);
    expect_equal_relaxed(stepwise, bounded);
  }
}

TEST(ExecEngineBounded, TraceOffDualTripleIdentical) {
  // The trace-on variants run above (traces are on by default); this pins the
  // trace-off half of the matrix.
  const auto program = tiny_workload("swaptions", 40);
  SocConfig soc_config = SocConfig::paper_default(3);
  soc_config.core.trace.enabled = false;
  for (const std::vector<CoreId>& checkers :
       {std::vector<CoreId>{1}, std::vector<CoreId>{1, 2}}) {
    SCOPED_TRACE(checkers.size());
    const u32 cores = static_cast<u32>(checkers.size()) + 1;
    const auto stepwise =
        run_engine(program, cores, checkers, Engine::kStepwise, soc_config);
    const auto bounded =
        run_engine(program, cores, checkers, Engine::kQuantumBounded, soc_config);
    expect_equal_relaxed(stepwise, bounded);
  }
}

TEST(ExecEngineBounded, AggressiveOsTicksIdentical) {
  const auto program = tiny_workload("hmmer", 20);
  VerifiedRunConfig config;
  config.tick_period = us_to_cycles(50.0);
  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise,
                                   SocConfig::paper_default(2), config);
  const auto bounded = run_engine(program, 2, {1}, Engine::kQuantumBounded,
                                  SocConfig::paper_default(2), config);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineBounded, TinyChannelBackpressureIdentical) {
  // A 64-entry channel keeps the producer near the backpressure threshold:
  // the relaxed engine must take its strict fallback and reproduce every
  // block/resume cycle-for-cycle.
  const auto program = tiny_workload("bzip2", 10);
  SocConfig soc_config = SocConfig::paper_default(2);
  soc_config.flexstep.channel_capacity = 64;
  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise, soc_config);
  const auto bounded =
      run_engine(program, 2, {1}, Engine::kQuantumBounded, soc_config);
  EXPECT_GT(stepwise.stats.backpressure_events, 0u);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineBounded, RelaxedBurstsEngageAndSkewStaysBounded) {
  // Without this, every proof above would be vacuous: a bounded engine that
  // always fell back to the strict bound would trivially match stepwise.
  const auto program = tiny_workload("swaptions", 40);
  VerifiedRunConfig config;
  config.roles = {{0, {1}}};
  config.engine = Engine::kQuantumBounded;
  Soc soc(SocConfig::paper_default(2));
  VerifiedExecution exec(soc, config);
  exec.prepare({program});
  exec.run();

  const soc::CosimStats& cosim = exec.cosim_stats();
  EXPECT_GT(cosim.relaxed_bursts, 0u);
  // Relaxed bursts dominate the schedule (the strict fallback is the
  // exception, not the rule) — that is where the speedup comes from.
  EXPECT_GT(cosim.relaxed_bursts, cosim.strict_fallbacks);
  // Cross-core interaction hooks really end bursts (segment publishes at
  // minimum): a schedule with no hook breaks would mean the burst-end
  // machinery the correctness argument leans on never engaged.
  EXPECT_GT(cosim.hook_breaks, 0u);
  // Far fewer scheduling rounds than instructions: bursts really batch.
  EXPECT_LT(cosim.rounds, exec.total_instret() / 20);
  // Declared skew bound: one burst may overrun the strict leapfrog by at most
  // skew_instructions commits; at a worst-case per-instruction cost (miss +
  // mispredict) that caps the clock lead a burst can build.
  EXPECT_GT(cosim.max_skew_cycles, 0u);
  EXPECT_LE(cosim.max_skew_cycles, exec.skew_instructions() * 64);
}

TEST(ExecEngineBounded, SnapshotForkRestoreBitIdentical) {
  // Snapshot mid-run under the relaxed engine (the capture lands in a skewed
  // state): run-on, fork and in-place restore must evolve bit-identically,
  // and all of them must still land on the stepwise result.
  const auto program = tiny_workload("swaptions", 40);
  sim::Session session = sim::Scenario()
                             .program(program)
                             .dual()
                             .engine(Engine::kQuantumBounded)
                             .build();
  ASSERT_TRUE(session.advance(40'000));
  const soc::Snapshot warm = session.snapshot();

  sim::Session fork = session.fork(warm);
  const soc::RunStats run_on = session.run();
  const soc::RunStats forked = fork.run();
  EXPECT_EQ(run_on, forked);

  session.restore(warm);
  const soc::RunStats rerun = session.run();
  EXPECT_EQ(run_on, rerun);

  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise);
  EXPECT_EQ(stepwise.stats.main_cycles, run_on.main_cycles);
  EXPECT_EQ(stepwise.stats.completion_cycles, run_on.completion_cycles);
  EXPECT_EQ(stepwise.stats.segments_verified, run_on.segments_verified);
  EXPECT_EQ(stepwise.stats.segments_failed, run_on.segments_failed);
  EXPECT_EQ(stepwise.stats.backpressure_events, run_on.backpressure_events);
}

TEST(ExecEngineBounded, SnapshotForkMidSegmentPartialProduceIdentical) {
  // Snapshot at an instret target chosen to land INSIDE a segment: the DBC
  // holds a partially produced segment (open tail, no SegmentEnd yet), so the
  // fused produce cursor has published only a prefix of the segment's MAL
  // records. Fork, run-on and in-place restore must evolve bit-identically —
  // the cursor must not leak staged state across the capture — and still land
  // on the stepwise result.
  const auto program = tiny_workload("swaptions", 40);
  sim::Session session = sim::Scenario()
                             .program(program)
                             .dual()
                             .engine(Engine::kQuantumBounded)
                             .build();
  ASSERT_TRUE(session.advance(12'345));  // deliberately not segment-aligned
  auto channels = session.soc().fabric().channels();
  ASSERT_FALSE(channels.empty());
  fs::Channel* ch = channels.front();
  // The capture really is mid-segment: the stream's tail is a MAL record with
  // its SegmentEnd still unpushed. (If a workload change ever aligns 12'345
  // with a boundary, pick a different offset — the seam is the point.)
  ASSERT_FALSE(ch->empty());
  ASSERT_EQ(ch->back().kind, fs::StreamItem::Kind::kMem);
  const soc::Snapshot warm = session.snapshot();

  sim::Session fork = session.fork(warm);
  const soc::RunStats run_on = session.run();
  const soc::RunStats forked = fork.run();
  EXPECT_EQ(run_on, forked);

  session.restore(warm);
  const soc::RunStats rerun = session.run();
  EXPECT_EQ(run_on, rerun);

  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise);
  EXPECT_EQ(stepwise.stats.main_cycles, run_on.main_cycles);
  EXPECT_EQ(stepwise.stats.completion_cycles, run_on.completion_cycles);
  EXPECT_EQ(stepwise.stats.segments_verified, run_on.segments_verified);
  EXPECT_EQ(stepwise.stats.segments_failed, run_on.segments_failed);
  EXPECT_EQ(stepwise.stats.backpressure_events, run_on.backpressure_events);
}

TEST(ExecEngineBounded, HotTraceUnderChannelBackpressureIdentical) {
  // A tiny channel keeps the producer bouncing off the backpressure threshold
  // while traces are live: hot-trace dispatch must respect the staged-cursor
  // capacity (derived from the channel headroom scan) and reproduce every
  // block/resume decision cycle-for-cycle. The dispatch assertion keeps the
  // test honest — with traces silently disengaged it would prove nothing.
  const auto program = tiny_workload("swaptions", 40);
  SocConfig soc_config = SocConfig::paper_default(2);
  soc_config.flexstep.channel_capacity = 64;
  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise, soc_config);

  VerifiedRunConfig config;
  config.roles = {{0, {1}}};
  config.engine = Engine::kQuantumBounded;
  Soc soc(soc_config);
  VerifiedExecution exec(soc, config);
  exec.prepare({program});
  exec.run();
  const auto bounded = collect(soc, exec, config);

  EXPECT_GT(bounded.stats.backpressure_events, 0u);
  const arch::TraceCache* traces = soc.core(0).trace_cache();
  ASSERT_NE(traces, nullptr);
  EXPECT_GT(traces->stats().dispatches, 0u);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineBounded, FusedTraceTopologyMatrixIdentical) {
  // Configuration matrix: plain/dual/triple x traces on/off under the fused
  // segment-stream path, each against the stepwise reference of the same SoC
  // config. Nothing observable may depend on which path executed the memory
  // stream.
  const auto program = tiny_workload("swaptions", 40);
  const struct {
    u32 cores;
    std::vector<CoreId> checkers;
  } topologies[] = {{1, {}}, {2, {1}}, {3, {1, 2}}};
  for (const bool trace_on : {true, false}) {
    for (const auto& topo : topologies) {
      SCOPED_TRACE(std::string("cores=") + std::to_string(topo.cores) +
                   " trace=" + (trace_on ? "on" : "off"));
      SocConfig soc_config = SocConfig::paper_default(topo.cores);
      soc_config.core.trace.enabled = trace_on;
      const auto stepwise = run_engine(program, topo.cores, topo.checkers,
                                       Engine::kStepwise, soc_config);
      const auto bounded = run_engine(program, topo.cores, topo.checkers,
                                      Engine::kQuantumBounded, soc_config);
      expect_equal_relaxed(stepwise, bounded);
    }
  }
}

TEST(ExecEngine, AggressiveOsTicksIdentical) {
  // Frequent kernel excursions exercise premature segment extermination,
  // replay suspension/resumption and staggered checker stalls.
  const auto program = tiny_workload("hmmer", 20);
  VerifiedRunConfig config;
  config.tick_period = us_to_cycles(50.0);
  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise,
                                   SocConfig::paper_default(2), config);
  const auto quantum = run_engine(program, 2, {1}, Engine::kQuantum,
                                  SocConfig::paper_default(2), config);
  expect_equal(stepwise, quantum);
}

TEST(ExecEngine, TinyChannelBackpressureIdentical) {
  // A 64-entry channel forces real backpressure: blocked transitions and the
  // pop-that-frees-space wakeup path must match cycle-for-cycle.
  const auto program = tiny_workload("bzip2", 10);
  SocConfig soc_config = SocConfig::paper_default(2);
  soc_config.flexstep.channel_capacity = 64;
  const auto stepwise = run_engine(program, 2, {1}, Engine::kStepwise, soc_config);
  const auto quantum = run_engine(program, 2, {1}, Engine::kQuantum, soc_config);
  EXPECT_GT(stepwise.stats.backpressure_events, 0u);
  expect_equal(stepwise, quantum);
}

// ---------------------------------------------------------------------------
// Trace cache: engagement, write-invalidation, snapshot interplay, quantum
// breaks. Every path must degrade to the stepwise semantics bit-identically.
// ---------------------------------------------------------------------------

TEST(ExecEngine, TraceCacheEngagesAndStaysIdentical) {
  // The existing equivalence proofs run with traces live (they are on by
  // default); this pins down that they actually engage — a silently disabled
  // trace path would make those proofs vacuous. Long enough a run that the
  // record warmup (heat thresholds) amortises away.
  const auto program = tiny_workload("swaptions", 150);
  const auto stepwise = run_engine(program, 1, {}, Engine::kStepwise);

  VerifiedRunConfig config;
  config.roles = {{0, {}}};
  config.engine = Engine::kQuantum;
  Soc soc(SocConfig::paper_default(1));
  VerifiedExecution exec(soc, config);
  exec.prepare({program});
  exec.run();
  expect_equal(stepwise, collect(soc, exec, config));

  const arch::TraceCache* traces = soc.core(0).trace_cache();
  ASSERT_NE(traces, nullptr);
  EXPECT_GT(traces->stats().recorded, 0u);
  // The bulk of the run must flow through traces, not the stepwise loop.
  EXPECT_GT(traces->stats().insts_from_traces, soc.core(0).instret() / 2);

  // Verified runs engage traces through the fused segment-stream path, on
  // the producer and on every checker (a counting-mode batch keeps them off).
  for (const std::vector<CoreId>& checkers :
       {std::vector<CoreId>{1}, std::vector<CoreId>{1, 2}}) {
    SCOPED_TRACE(checkers.size());
    const u32 cores = static_cast<u32>(checkers.size()) + 1;
    const auto verified_stepwise = run_engine(program, cores, checkers, Engine::kStepwise);
    VerifiedRunConfig verified;
    verified.roles = {{0, checkers}};
    verified.engine = Engine::kQuantumBounded;
    Soc verified_soc(SocConfig::paper_default(cores));
    VerifiedExecution verified_exec(verified_soc, verified);
    verified_exec.prepare({program});
    verified_exec.run();
    expect_equal_relaxed(verified_stepwise, collect(verified_soc, verified_exec, verified));

    const auto coverage = [&verified_soc](CoreId id) {
      const arch::Core& core = verified_soc.core(id);
      return static_cast<double>(core.trace_cache()->stats().insts_from_traces) /
             static_cast<double>(core.instret());
    };
    EXPECT_GT(coverage(0), 0.5);
    for (CoreId id : checkers) EXPECT_GT(coverage(id), 0.3) << "checker " << id;
  }
}

TEST(ExecEngine, StoreToTracedCodePageFlushesAndStaysIdentical) {
  // The hot loop stores into its own code page every iteration, so the
  // write-invalidation fires from INSIDE the executing trace: the flush must
  // defer to the next dispatch boundary (freeing the trace mid-replay would
  // be a use-after-free), drop the covering traces, and the run must stay
  // bit-identical to stepwise. Decoded images are the fetch source, so the
  // store does not change the executed program — only the derived traces.
  isa::Assembler a;
  a.li(5, 300);                                       // loop counter
  a.li(7, static_cast<i64>(isa::kDefaultCodeBase));   // address inside the code page
  auto loop = a.new_label();
  a.bind(loop);
  for (int i = 0; i < 12; ++i) a.addi(6, 6, 1);
  a.sd(6, 7, 0);                                      // store into traced code
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();
  const isa::Program program = a.finalize("code-page-store");

  Soc ref_soc(SocConfig::paper_default(1));
  ref_soc.load_program(program);
  Core& ref = ref_soc.core(0);
  ref.set_pc(program.entry());
  while (ref.status() == Core::Status::kRunning) ref.step();

  Soc soc(SocConfig::paper_default(1));
  soc.load_program(program);
  Core& core = soc.core(0);
  core.set_pc(program.entry());
  core.run(~u64{0});

  EXPECT_EQ(core.instret(), ref.instret());
  EXPECT_EQ(core.cycle(), ref.cycle());
  EXPECT_EQ(core.capture_state(), ref.capture_state());

  const arch::TraceCache* traces = core.trace_cache();
  ASSERT_NE(traces, nullptr);
  EXPECT_GT(traces->stats().recorded, 0u);
  EXPECT_GT(traces->stats().code_write_flushes, 0u);
}

TEST(ExecEngine, CodePageStoreInAForkDropsOnlyTheForksTraces) {
  // A fork holds its origin's trace tables by reference. A store into a code
  // page in the fork must drop the fork's traces covering that page — after
  // copying only the shared chunks that hold one — and leave the origin's
  // tables intact.
  sim::Session origin =
      sim::Scenario().workload("swaptions").iterations(40).plain().build();
  ASSERT_TRUE(origin.advance(30'000));
  const soc::Snapshot warm = origin.snapshot();
  const arch::TraceTables* warm_tables = warm.cores[0].traces.get();
  ASSERT_NE(warm_tables, nullptr);
  const Addr code = origin.program().code_base;
  const u64 page = code >> arch::Memory::kPageBits;
  const auto covers = [page](const arch::TraceTables::Slot& slot) {
    return slot.trace != nullptr && slot.trace->first_page <= page &&
           page <= slot.trace->last_page;
  };
  const auto covering = [&covers](const arch::TraceTables& tables) {
    std::ptrdiff_t count = 0;
    for (const auto& chunk : tables.slots) {
      count += std::count_if(chunk->begin(), chunk->end(), covers);
    }
    return count;
  };
  const auto traces_on_page = covering(*warm_tables);
  ASSERT_GT(traces_on_page, 0);

  sim::Session fork = origin.fork(warm);
  // Store a code word's own value back: the page sees a store, while the
  // executed program (fetched from the decoded image) stays the same.
  arch::Memory& memory = fork.soc().memory();
  memory.write(code, 8, memory.read(code, 8));

  // A snapshot settles the deferred invalidation without running the fork:
  // exactly the chunks that held a covering trace were copied.
  const soc::Snapshot settled = fork.snapshot();
  const arch::TraceTables& dropped = *settled.cores[0].traces;
  EXPECT_EQ(covering(dropped), 0);
  ASSERT_EQ(dropped.slots.size(), warm_tables->slots.size());
  std::size_t copied = 0;
  for (std::size_t c = 0; c < dropped.slots.size(); ++c) {
    const auto& chunk = *warm_tables->slots[c];
    const bool held_covering = std::any_of(chunk.begin(), chunk.end(), covers);
    EXPECT_EQ(dropped.slots[c] != warm_tables->slots[c], held_covering) << "chunk " << c;
    copied += held_covering ? 1 : 0;
  }
  EXPECT_GT(copied, 0u);
  EXPECT_LT(copied, dropped.slots.size());
  EXPECT_EQ(dropped.heat, warm_tables->heat);
  const soc::RunStats forked = fork.run();

  const arch::TraceCache& fork_traces = *fork.soc().core(0).trace_cache();
  EXPECT_GE(fork_traces.stats().code_write_flushes, static_cast<u64>(traces_on_page));
  EXPECT_NE(fork_traces.tables(), warm_tables);
  EXPECT_EQ(covering(*warm_tables), traces_on_page);
  const arch::TraceCache& origin_traces = *origin.soc().core(0).trace_cache();
  EXPECT_EQ(origin_traces.tables(), warm_tables);
  EXPECT_EQ(origin_traces.stats().code_write_flushes, 0u);
  EXPECT_EQ(origin.run(), forked);
}

TEST(ExecEngine, ForkCopiesOnlyTheTraceChunksItWrites) {
  // A fork adopts its origin's chunked trace tables. Counting heat and
  // recording traces copies exactly the chunks the fork writes: every chunk
  // it did not write stays pointer-equal to the snapshot's, and the
  // snapshot's tables never change. Without analysis seeds, the fork
  // records the traces that turn hot after the snapshot.
  sim::Session origin = sim::Scenario()
                            .workload("swaptions")
                            .iterations(400)
                            .dual()
                            .engine(soc::Engine::kQuantumBounded)
                            .analysis(false)
                            .build();
  ASSERT_TRUE(origin.advance(6'000));
  const soc::Snapshot warm = origin.snapshot();
  const auto entries = [](const auto& chunk) {
    std::vector<std::pair<u64, u64>> out;
    for (const auto& e : chunk) {
      if constexpr (requires { e.trace; }) {
        out.emplace_back(e.entry_pc, reinterpret_cast<std::uintptr_t>(e.trace.get()));
      } else {
        out.emplace_back(e.pc, e.count);
      }
    }
    return out;
  };
  // Per core: the slot chunks' entries, then the heat chunks'.
  const auto all_entries = [&](const arch::TraceTables& tables) {
    std::vector<std::vector<std::pair<u64, u64>>> out;
    for (const auto& chunk : tables.slots) out.push_back(entries(*chunk));
    for (const auto& chunk : tables.heat) out.push_back(entries(*chunk));
    return out;
  };
  std::vector<std::vector<std::vector<std::pair<u64, u64>>>> before;
  for (const auto& core : warm.cores) {
    ASSERT_NE(core.traces, nullptr);
    before.push_back(all_entries(*core.traces));
  }

  sim::Session fork = origin.fork(warm);
  ASSERT_TRUE(fork.advance(20'000));
  for (std::size_t c = 0; c < warm.cores.size(); ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    const arch::TraceCache& cache = *fork.soc().core(c).trace_cache();
    EXPECT_GT(cache.stats().heat_misses, 0u);
    EXPECT_GT(cache.stats().recorded, 0u);
    const arch::TraceTables& origin_tables = *warm.cores[c].traces;
    const arch::TraceTables& now = *cache.tables();
    ASSERT_NE(&now, &origin_tables);
    std::size_t shared = 0;
    std::size_t written = 0;
    const auto compare = [&](const auto& mine, const auto& theirs) {
      ASSERT_EQ(mine.size(), theirs.size());
      for (std::size_t k = 0; k < mine.size(); ++k) {
        if (mine[k] == theirs[k]) {
          ++shared;
        } else {
          ++written;  // a copied chunk was copied to be written
          EXPECT_NE(entries(*mine[k]), entries(*theirs[k])) << "chunk " << k;
        }
      }
    };
    compare(now.slots, origin_tables.slots);
    compare(now.heat, origin_tables.heat);
    EXPECT_GT(written, 0u);
    EXPECT_GT(shared, written);
    EXPECT_EQ(all_entries(origin_tables), before[c]);
  }
}

TEST(ExecEngine, SnapshotRestoreMidHotRegionBitIdentical) {
  // Land a snapshot in the middle of hot (traced) execution: run-on, a fork,
  // and an in-place restore must all evolve bit-identically, and the fork and
  // the restore must continue from the snapshot's trace tables, not flush.
  sim::Session session =
      sim::Scenario().workload("swaptions").iterations(40).plain().build();
  ASSERT_TRUE(session.advance(30'000));
  const arch::TraceCache* traces = session.soc().core(0).trace_cache();
  ASSERT_NE(traces, nullptr);
  ASSERT_GT(traces->stats().dispatches, 0u);  // snapshot lands in hot execution
  const u64 flushes_before = traces->stats().full_flushes;
  const soc::Snapshot warm = session.snapshot();
  const arch::TraceTables* warm_tables = warm.cores[0].traces.get();
  ASSERT_NE(warm_tables, nullptr);

  sim::Session fork = session.fork(warm);
  EXPECT_EQ(fork.soc().core(0).trace_cache()->tables(), warm_tables);
  const soc::RunStats run_on = session.run();
  const soc::RunStats forked = fork.run();
  EXPECT_EQ(run_on, forked);

  session.restore(warm);
  EXPECT_EQ(traces->stats().full_flushes, flushes_before);
  EXPECT_EQ(traces->tables(), warm_tables);
  const soc::RunStats rerun = session.run();
  EXPECT_EQ(run_on, rerun);
}

namespace trace_quantum {
class QuantumEndingHandler final : public arch::TrapHandler {
 public:
  arch::TrapAction on_trap(arch::Core& core, arch::TrapCause cause) override {
    using arch::TrapAction;
    if (cause == arch::TrapCause::kEcall) {
      core.request_quantum_end();
      return {TrapAction::Kind::kResumeUser, 50};
    }
    if (cause == arch::TrapCause::kTaskExit) return {TrapAction::Kind::kHalt, 0};
    return {TrapAction::Kind::kResumeUser, 0};
  }
};
}  // namespace trace_quantum

TEST(ExecEngine, QuantumEndRequestInsideHotRegionEndsQuantumExactly) {
  // A hot ALU loop with an ECALL whose handler requests a quantum end (the
  // way FlexStep hooks end quanta on cross-core events). Every run_until()
  // must stop exactly one instruction past the ECALL commit — even though
  // the trace cache has ample cycle/instret headroom to keep going — and the
  // state at every quantum boundary must match a stepwise core.
  isa::Assembler a;
  a.li(5, 60);
  auto loop = a.new_label();
  a.bind(loop);
  for (int i = 0; i < 24; ++i) a.addi(6, 6, 1);
  a.ecall();
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();
  const isa::Program program = a.finalize("quantum-end");

  trace_quantum::QuantumEndingHandler handler;
  Soc soc(SocConfig::paper_default(1));
  soc.load_program(program);
  Core& core = soc.core(0);
  core.set_trap_handler(&handler);
  core.set_pc(program.entry());

  trace_quantum::QuantumEndingHandler ref_handler;
  Soc ref_soc(SocConfig::paper_default(1));
  ref_soc.load_program(program);
  Core& ref = ref_soc.core(0);
  ref.set_trap_handler(&ref_handler);
  ref.set_pc(program.entry());

  while (core.status() == Core::Status::kRunning) {
    core.run_until(arch::kNoCycleBound);
    while (ref.instret() < core.instret() && ref.status() == Core::Status::kRunning) {
      ref.step();
    }
    ASSERT_EQ(ref.instret(), core.instret());
    EXPECT_EQ(ref.capture_state(), core.capture_state());
    EXPECT_EQ(ref.cycle(), core.cycle());
    if (core.status() == Core::Status::kRunning) {
      // The quantum ended exactly one instruction past the ECALL commit.
      const std::size_t index = (core.pc() - program.entry()) / 4;
      ASSERT_GT(index, 0u);
      EXPECT_EQ(program.code[index - 1].op, isa::Opcode::kEcall);
    }
  }
  const arch::TraceCache* traces = core.trace_cache();
  ASSERT_NE(traces, nullptr);
  EXPECT_GT(traces->stats().dispatches, 0u);  // the loop body really was traced
}

// ---------------------------------------------------------------------------
// Fault injection: identical detection outcomes and latencies.
// ---------------------------------------------------------------------------

/// Advance the co-sim until the participating cores have retired `target`
/// instructions in total (engine-independent rendezvous points).
bool advance_to_instret(VerifiedExecution& exec, Engine engine, u64 target) {
  if (engine == Engine::kQuantum) {
    if (exec.total_instret() >= target) return true;
    return exec.advance(target - exec.total_instret());
  }
  while (exec.total_instret() < target) {
    if (!exec.step_round()) return false;
  }
  return true;
}

Outcome run_fault_schedule(const isa::Program& program, std::vector<CoreId> checkers,
                           Engine engine) {
  const u32 cores = static_cast<u32>(checkers.size()) + 1;
  SocConfig soc_config = SocConfig::paper_default(cores);
  VerifiedRunConfig config;
  config.roles = {{0, checkers}};
  config.engine = engine;
  Soc soc(soc_config);
  VerifiedExecution exec(soc, config);
  exec.prepare({program});

  // Deterministic injection schedule: one tail corruption every 40k retired
  // instructions (see next_injection). Both engines visit the exact same machine states at these
  // rendezvous points, so the injected flips (same RNG stream) are identical.
  Rng rng(0xF00D);
  u64 next_injection = 10'000;
  while (advance_to_instret(exec, engine, next_injection)) {
    auto channels = soc.fabric().channels();
    if (!channels.empty()) {
      channels.front()->inject_fault_at_tail(rng, soc.max_cycle());
    }
    next_injection += 10'000;
  }
  return collect(soc, exec, config);
}

TEST(ExecEngine, DualCheckerFaultDetectionIdentical) {
  const auto program = tiny_workload("swaptions", 80);
  const auto stepwise = run_fault_schedule(program, {1}, Engine::kStepwise);
  const auto quantum = run_fault_schedule(program, {1}, Engine::kQuantum);
  ASSERT_GT(stepwise.detections, 0u);
  expect_equal(stepwise, quantum);
}

TEST(ExecEngine, TripleCheckerFaultDetectionIdentical) {
  const auto program = tiny_workload("swaptions", 80);
  const auto stepwise = run_fault_schedule(program, {1, 2}, Engine::kStepwise);
  const auto quantum = run_fault_schedule(program, {1, 2}, Engine::kQuantum);
  ASSERT_GT(stepwise.detections, 0u);
  expect_equal(stepwise, quantum);
}

/// Sequence-targeted injection schedule: corrupt the stream item with global
/// sequence number S (for an arithmetic series of S) as soon as it is queued,
/// each flip drawn from an Rng seeded by S alone. Unlike tail placement at
/// total-instret rendezvous, this schedule is independent of how the engine
/// chunks work across cores, so detection verdicts AND latencies must be
/// bit-identical across all three engines (the corruption time is the item's
/// push time, the detection time the checker's local clock — both exact).
Outcome run_seq_fault_schedule(const isa::Program& program,
                               std::vector<CoreId> checkers, Engine engine,
                               u64* injections_out = nullptr,
                               u64* open_segment_hits = nullptr) {
  const u32 cores = static_cast<u32>(checkers.size()) + 1;
  VerifiedRunConfig config;
  config.roles = {{0, checkers}};
  config.engine = engine;
  Soc soc(SocConfig::paper_default(cores));
  VerifiedExecution exec(soc, config);
  exec.prepare({program});

  constexpr u64 kSeqStride = 6'007;  // > one fault's resolution horizon (~2 segments)
  u64 next_seq = 1'000;
  u64 injections = 0;
  while (exec.advance(256)) {
    auto channels = soc.fabric().channels();
    if (channels.empty()) continue;
    fs::Channel* ch = channels.front();
    if (!ch->fault_pending() && !ch->empty() && ch->front().seq <= next_seq &&
        next_seq <= ch->back().seq) {
      Rng rng(0x5EED ^ next_seq);
      if (ch->inject_fault_at(static_cast<std::size_t>(next_seq - ch->front().seq),
                              rng, soc.max_cycle())
              .has_value()) {
        ++injections;
        // An unresolved segment_end_seq right after injection means the flip
        // landed in an entry whose SegmentEnd has not been pushed yet — the
        // producer appended it but the segment is still open (the
        // "appended-but-unpublished" seam). The count is chunking-dependent,
        // so callers only assert it on their reference engine.
        if (open_segment_hits != nullptr &&
            ch->pending_fault().segment_end_seq == fs::kUnresolvedSegmentEnd) {
          ++*open_segment_hits;
        }
        next_seq += kSeqStride;
      }
    }
  }
  if (injections_out != nullptr) *injections_out = injections;
  return collect(soc, exec, config);
}

TEST(ExecEngineBounded, DualCheckerFaultDetectionIdentical) {
  const auto program = tiny_workload("swaptions", 200);
  u64 injected = 0;
  const auto stepwise =
      run_seq_fault_schedule(program, {1}, Engine::kStepwise, &injected);
  ASSERT_GT(injected, 3u);
  ASSERT_GT(stepwise.detections, 0u);
  u64 injected_bounded = 0;
  const auto bounded = run_seq_fault_schedule(program, {1}, Engine::kQuantumBounded,
                                              &injected_bounded);
  EXPECT_EQ(injected, injected_bounded);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineBounded, TripleCheckerFaultDetectionIdentical) {
  const auto program = tiny_workload("swaptions", 200);
  u64 injected = 0;
  const auto stepwise =
      run_seq_fault_schedule(program, {1, 2}, Engine::kStepwise, &injected);
  ASSERT_GT(injected, 3u);
  ASSERT_GT(stepwise.detections, 0u);
  u64 injected_bounded = 0;
  const auto bounded = run_seq_fault_schedule(program, {1, 2},
                                              Engine::kQuantumBounded,
                                              &injected_bounded);
  EXPECT_EQ(injected, injected_bounded);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineBounded, OpenSegmentFaultFusedVsStepwiseIdentical) {
  // Corruptions landing in appended-but-unpublished DBC entries (the
  // segment's SegmentEnd not pushed yet — the producer's cursor published the
  // record, the segment is still open) must be detected with identical
  // verdicts and latencies whether the checker replays them through the fused
  // staged-log window or the stepwise ReplayPort. The open-segment hit count
  // is asserted on the stepwise reference only (it depends on engine
  // chunking); the outcomes must match everywhere.
  const auto program = tiny_workload("swaptions", 200);
  u64 injected = 0;
  u64 open_hits = 0;
  const auto stepwise = run_seq_fault_schedule(program, {1}, Engine::kStepwise,
                                               &injected, &open_hits);
  ASSERT_GT(injected, 3u);
  ASSERT_GT(open_hits, 0u);
  ASSERT_GT(stepwise.detections, 0u);
  u64 injected_bounded = 0;
  const auto bounded = run_seq_fault_schedule(program, {1}, Engine::kQuantumBounded,
                                              &injected_bounded);
  EXPECT_EQ(injected, injected_bounded);
  expect_equal_relaxed(stepwise, bounded);
}

// ---------------------------------------------------------------------------
// Contended role-based topologies: several producers sharing one checker
// through the fabric waitlist. The arbitration (handoff ordering), the parked-
// producer relaxation, snapshot/fork mid-waitlist and fault injection during
// arbitration must all stay bit-identical to the stepwise reference.
// ---------------------------------------------------------------------------

/// One workload instance per producer at disjoint code/data regions (the data
/// base is baked into the code, so producers cannot share an image).
std::vector<isa::Program> role_programs(const char* name, std::size_t count,
                                        u32 iterations) {
  std::vector<isa::Program> programs;
  for (std::size_t r = 0; r < count; ++r) {
    workloads::BuildOptions options;
    options.iterations_override = iterations;
    options.code_base = isa::kDefaultCodeBase + r * 0x0011'0000;
    options.data_base = 0x0800'0000 + r * 0x0011'0000;
    programs.push_back(
        workloads::build_workload(workloads::find_profile(name), options));
  }
  return programs;
}

/// collect() for an arbitrary role topology, plus the fabric arbitration log
/// flattened for cross-engine comparison (handoffs happen between scheduling
/// rounds, so the whole log is part of the deterministic outcome).
Outcome collect_roles(Soc& soc, VerifiedExecution& exec) {
  Outcome out;
  out.stats = exec.stats();
  out.main_state = soc.core(exec.roles().front().producer).capture_state();
  std::vector<CoreId> checker_ids;
  for (const soc::RoleBinding& role : exec.roles()) {
    out.cycles.push_back(soc.core(role.producer).cycle());
    out.instret.push_back(soc.core(role.producer).instret());
    for (CoreId id : role.checkers) {
      if (std::find(checker_ids.begin(), checker_ids.end(), id) ==
          checker_ids.end()) {
        checker_ids.push_back(id);
      }
    }
  }
  for (CoreId id : checker_ids) {
    out.cycles.push_back(soc.core(id).cycle());
    out.instret.push_back(soc.core(id).instret());
    out.replayed.push_back(soc.unit(id).replayed_instructions());
  }
  out.detections = soc.fabric().reporter().detections();
  out.attributed = soc.fabric().reporter().attributed_detections();
  for (const auto& event : soc.fabric().reporter().events()) {
    out.event_latencies.push_back(event.latency);
  }
  for (const auto& handoff : soc.fabric().handoff_events()) {
    out.event_latencies.push_back(handoff.cycle);
    out.event_latencies.push_back(handoff.checker);
    out.event_latencies.push_back(handoff.from_main);
    out.event_latencies.push_back(handoff.to_main);
  }
  return out;
}

Outcome run_roles(const std::vector<isa::Program>& programs,
                  std::vector<soc::RoleBinding> roles, Engine engine,
                  u32 cores, soc::CosimStats* cosim_out = nullptr) {
  VerifiedRunConfig config;
  config.roles = std::move(roles);
  config.engine = engine;
  Soc soc(SocConfig::paper_default(cores));
  VerifiedExecution exec(soc, config);
  exec.prepare(programs);
  exec.run();
  if (cosim_out != nullptr) *cosim_out = exec.cosim_stats();
  return collect_roles(soc, exec);
}

TEST(ExecEngineContended, SharedCheckerIdenticalAcrossEngines) {
  // Two producers, one shared checker: producer 1's channel parks on the
  // waitlist until producer 0 exits and its stream drains. The quantum engine
  // must match stepwise exactly; the bounded engine up to occupancy.
  const std::vector<soc::RoleBinding> roles = {{0, {2}}, {1, {2}}};
  for (const u32 iterations : {30u, 400u}) {
    SCOPED_TRACE(iterations);
    const auto programs = role_programs("swaptions", 2, iterations);
    const auto stepwise = run_roles(programs, roles, Engine::kStepwise, 3);
    soc::CosimStats strict;
    const auto quantum = run_roles(programs, roles, Engine::kQuantum, 3, &strict);
    soc::CosimStats cosim;
    const auto bounded =
        run_roles(programs, roles, Engine::kQuantumBounded, 3, &cosim);

    ASSERT_GT(stepwise.stats.segments_produced, 6u);
    // Both producers' segments were verified (the handoff really happened).
    EXPECT_EQ(stepwise.stats.segments_verified, stepwise.stats.segments_produced);
    expect_equal(stepwise, quantum);
    expect_equal_relaxed(stepwise, bounded);

    // Vacuousness guards: the parked producer ran relaxed bursts instead of
    // dragging the SoC to the strict leapfrog.
    EXPECT_GT(cosim.parked_producer_bursts, 0u);
    EXPECT_GT(cosim.relaxed_bursts, cosim.strict_fallbacks);
    // And the bursts batch: the bounded engine drives a small fraction of the
    // scheduling rounds the strict leapfrog (kQuantum) needs for the same run.
    EXPECT_LT(cosim.rounds * 20, strict.rounds);
  }
}

TEST(ExecEngineContended, ThreeProducersHandoffOrderIsFifo) {
  // Three producers contending for one checker: arbitration must hand the
  // checker over in association (role) order — 0 -> 1 -> 2.
  const auto programs = role_programs("swaptions", 3, 12);
  const std::vector<soc::RoleBinding> roles = {{0, {3}}, {1, {3}}, {2, {3}}};
  VerifiedRunConfig config;
  config.roles = roles;
  config.engine = Engine::kQuantumBounded;
  Soc soc(SocConfig::paper_default(4));
  VerifiedExecution exec(soc, config);
  exec.prepare(programs);
  // Mid-run the later producers are parked on the waitlist.
  ASSERT_TRUE(exec.advance(20'000));
  EXPECT_EQ(soc.fabric().waitlist_depth(3), 2u);
  exec.run();

  const auto& handoffs = soc.fabric().handoff_events();
  ASSERT_EQ(handoffs.size(), 2u);
  EXPECT_EQ(handoffs[0].checker, 3u);
  EXPECT_EQ(handoffs[0].from_main, 0u);
  EXPECT_EQ(handoffs[0].to_main, 1u);
  EXPECT_EQ(handoffs[1].from_main, 1u);
  EXPECT_EQ(handoffs[1].to_main, 2u);
  EXPECT_LE(handoffs[0].cycle, handoffs[1].cycle);
  EXPECT_EQ(soc.fabric().waitlist_depth(3), 0u);
  // All three producers' work was verified through the single checker.
  EXPECT_EQ(exec.stats().segments_verified, exec.stats().segments_produced);
}

TEST(ExecEngineContended, SnapshotForkMidWaitlistBitIdentical) {
  // Capture while producer 1's channel sits on the waitlist (pre-handoff):
  // run-on, fork and in-place restore must evolve bit-identically, including
  // the arbitration the restored run still has ahead of it.
  sim::Scenario scenario = sim::Scenario()
                               .workload("swaptions")
                               .iterations(30)
                               .shared_checker(2)
                               .engine(Engine::kQuantumBounded);
  sim::Session session = scenario.build();
  ASSERT_TRUE(session.advance(25'000));
  ASSERT_GT(session.soc().fabric().waitlist_depth(2), 0u);  // mid-waitlist
  ASSERT_EQ(session.arbitration_handoffs(), 0u);
  const soc::Snapshot warm = session.snapshot();

  sim::Session fork = session.fork(warm);
  const soc::RunStats run_on = session.run();
  const soc::RunStats forked = fork.run();
  EXPECT_EQ(run_on, forked);
  EXPECT_EQ(session.arbitration_handoffs(), fork.arbitration_handoffs());
  EXPECT_GT(session.arbitration_handoffs(), 0u);  // the handoff happened later

  session.restore(warm);
  const soc::RunStats rerun = session.run();
  EXPECT_EQ(run_on, rerun);

  // And the whole thing still lands on the stepwise result.
  sim::Session ref = sim::Scenario(scenario).engine(Engine::kStepwise).build();
  const soc::RunStats stepwise = ref.run();
  EXPECT_EQ(stepwise.main_cycles, run_on.main_cycles);
  EXPECT_EQ(stepwise.completion_cycles, run_on.completion_cycles);
  EXPECT_EQ(stepwise.segments_produced, run_on.segments_produced);
  EXPECT_EQ(stepwise.segments_verified, run_on.segments_verified);
  EXPECT_EQ(stepwise.segments_failed, run_on.segments_failed);
  EXPECT_EQ(stepwise.backpressure_events, run_on.backpressure_events);
}

/// Sequence-targeted fault schedule against the PARKED producer's channel:
/// corruptions land in entries queued while the channel waits on arbitration,
/// so every verdict is rendered only after the handoff. Engine-independent by
/// the same argument as run_seq_fault_schedule.
Outcome run_waitlist_fault_schedule(const std::vector<isa::Program>& programs,
                                    Engine engine, u64* injections_out) {
  VerifiedRunConfig config;
  config.roles = {{0, {2}}, {1, {2}}};
  config.engine = engine;
  Soc soc(SocConfig::paper_default(3));
  VerifiedExecution exec(soc, config);
  exec.prepare(programs);

  // Denser than run_seq_fault_schedule's stride: while parked, the channel
  // only exposes a capacity-wide seq window, so a coarse stride would land
  // too few corruptions in the pre-handoff regime.
  constexpr u64 kSeqStride = 1'501;
  u64 next_seq = 200;
  u64 injections = 0;
  while (exec.advance(256)) {
    auto channels = soc.fabric().channels();
    if (channels.size() < 2) continue;
    fs::Channel* ch = channels[1];  // producer 1 -> shared checker (parked)
    if (!ch->fault_pending() && !ch->empty() && ch->front().seq <= next_seq &&
        next_seq <= ch->back().seq) {
      Rng rng(0x5EED ^ next_seq);
      if (ch->inject_fault_at(static_cast<std::size_t>(next_seq - ch->front().seq),
                              rng, soc.max_cycle())
              .has_value()) {
        ++injections;
        next_seq += kSeqStride;
      }
    }
  }
  if (injections_out != nullptr) *injections_out = injections;
  return collect_roles(soc, exec);
}

TEST(ExecEngineContended, FaultInjectionDuringArbitrationIdentical) {
  const auto programs = role_programs("swaptions", 2, 60);
  u64 injected = 0;
  const auto stepwise =
      run_waitlist_fault_schedule(programs, Engine::kStepwise, &injected);
  ASSERT_GT(injected, 2u);
  ASSERT_GT(stepwise.detections, 0u);
  u64 injected_quantum = 0;
  const auto quantum =
      run_waitlist_fault_schedule(programs, Engine::kQuantum, &injected_quantum);
  EXPECT_EQ(injected, injected_quantum);
  expect_equal(stepwise, quantum);
  u64 injected_bounded = 0;
  const auto bounded = run_waitlist_fault_schedule(
      programs, Engine::kQuantumBounded, &injected_bounded);
  EXPECT_EQ(injected, injected_bounded);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineContended, PairsTopologyIdenticalAcrossEngines) {
  // Independent producer/checker pairs on one SoC (the uncontended many-core
  // shape of the fig8 sweep): per-role lattices must not couple the pairs.
  const auto programs = role_programs("swaptions", 3, 20);
  const std::vector<soc::RoleBinding> roles = {{0, {1}}, {2, {3}}, {4, {5}}};
  const auto stepwise = run_roles(programs, roles, Engine::kStepwise, 6);
  const auto quantum = run_roles(programs, roles, Engine::kQuantum, 6);
  const auto bounded = run_roles(programs, roles, Engine::kQuantumBounded, 6);
  ASSERT_GT(stepwise.stats.segments_produced, 9u);
  EXPECT_EQ(stepwise.stats.segments_verified, stepwise.stats.segments_produced);
  expect_equal(stepwise, quantum);
  expect_equal_relaxed(stepwise, bounded);
}

TEST(ExecEngineBounded, FaultCampaignForkReexecutionParity) {
  // The production fault campaign under the relaxed engine: snapshot-fork and
  // warmup-re-execution must stay bit-identical outcome-for-outcome, exactly
  // as they are under kQuantum (tests/test_sim.cpp).
  fault::CampaignConfig campaign;
  campaign.target_faults = 24;
  campaign.warmup_rounds = 15'000;
  campaign.gap_rounds = 800;
  campaign.workload_iterations = 4'000;
  campaign.shards = 4;
  campaign.threads = 1;
  campaign.engine = Engine::kQuantumBounded;

  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = SocConfig::paper_default(2);
  campaign.mode = fault::CampaignMode::kSnapshotFork;
  const auto forked = fault::run_fault_campaign(profile, soc_config, campaign);
  campaign.mode = fault::CampaignMode::kWarmupReexecution;
  const auto reexec = fault::run_fault_campaign(profile, soc_config, campaign);

  ASSERT_EQ(forked.injected, 24u);
  EXPECT_GT(forked.detected, 0u);
  EXPECT_EQ(forked.detected, reexec.detected);
  EXPECT_EQ(forked.undetected(), reexec.undetected());
  ASSERT_EQ(forked.outcomes.size(), reexec.outcomes.size());
  for (std::size_t i = 0; i < forked.outcomes.size(); ++i) {
    EXPECT_EQ(forked.outcomes[i].detected, reexec.outcomes[i].detected);
    EXPECT_EQ(forked.outcomes[i].latency_us, reexec.outcomes[i].latency_us);
    EXPECT_EQ(forked.outcomes[i].detect_kind, reexec.outcomes[i].detect_kind);
  }
  EXPECT_LT(forked.total_instructions, reexec.total_instructions);
}

}  // namespace
}  // namespace flexstep
