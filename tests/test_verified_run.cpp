// VerifiedExecution driver tests on real workload programs, plus fault
// detection end-to-end sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "sim/scenario.h"
#include "soc/snapshot.h"
#include "soc/soc.h"
#include "soc/verified_run.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep {
namespace {

using soc::Soc;
using soc::SocConfig;
using soc::VerifiedExecution;
using soc::VerifiedRunConfig;

isa::Program tiny_workload(const char* name, u32 iterations = 3) {
  workloads::BuildOptions options;
  options.iterations_override = iterations;
  return workloads::build_workload(workloads::find_profile(name), options);
}

TEST(VerifiedRun, WorkloadVerifiesCleanly) {
  Soc soc(SocConfig::paper_default(2));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({tiny_workload("swaptions", 8)});
  const auto stats = exec.run();
  EXPECT_GT(stats.main_instructions, 5000u);
  EXPECT_EQ(stats.segments_failed, 0u);
  EXPECT_EQ(stats.segments_verified, stats.segments_produced);
  EXPECT_EQ(soc.fabric().reporter().detections(), 0u);
}

TEST(VerifiedRun, DeterministicAcrossRuns) {
  Cycle cycles[2];
  for (int i = 0; i < 2; ++i) {
    Soc soc(SocConfig::paper_default(2));
    VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
    exec.prepare({tiny_workload("hmmer")});
    cycles[i] = exec.run().main_cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(VerifiedRun, EveryParsecProfileRunsVerified) {
  for (const auto& profile : workloads::parsec_profiles()) {
    Soc soc(SocConfig::paper_default(2));
    VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
    workloads::BuildOptions options;
    options.iterations_override = 2;
    exec.prepare({workloads::build_workload(profile, options)});
    const auto stats = exec.run();
    EXPECT_EQ(stats.segments_failed, 0u) << profile.name;
    EXPECT_EQ(soc.fabric().reporter().detections(), 0u) << profile.name;
  }
}

TEST(VerifiedRun, InjectedFaultsAreDetected) {
  Soc soc(SocConfig::paper_default(2));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({tiny_workload("swaptions", 60)});

  // Inject faults one at a time as the run progresses: the channel settles
  // each (a masked one once its segment verified clean), so a new one goes in
  // whenever none is pending. Individual flips can be masked (dead values),
  // but across several injections the checker must attribute at least one
  // detection.
  Rng rng(99);
  u32 injected = 0;
  u32 guard = 0;
  while (exec.step_round() && ++guard < 10'000'000) {
    if (soc.fabric().reporter().attributed_detections() > 0) break;
    auto channels = soc.fabric().channels();
    if (channels.empty()) continue;
    fs::Channel* ch = channels.front();
    if (injected < 50 && ch->size() > 32 &&
        ch->inject_random_fault(rng, soc.max_cycle()).has_value()) {
      ++injected;
    }
  }
  ASSERT_GE(injected, 1u);
  ASSERT_GE(soc.fabric().reporter().attributed_detections(), 1u);
  bool found_attributed = false;
  for (const auto& event : soc.fabric().reporter().events()) {
    if (event.attributed) {
      found_attributed = true;
      EXPECT_GT(event.latency, 0u);
      break;
    }
  }
  EXPECT_TRUE(found_attributed);
}

TEST(VerifiedRun, TripleModeDetectsFaultInOneChannel) {
  // One-to-two verification: each checker holds an independent copy of the
  // stream; corrupting one link is caught by that checker while the other
  // verifies clean (the redundancy TCLS provides, without the binding).
  Soc soc(SocConfig::paper_default(3));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1, 2}}}});
  exec.prepare({tiny_workload("swaptions", 40)});

  Rng rng(7);
  u32 injected = 0;
  u32 guard = 0;
  while (exec.step_round() && ++guard < 10'000'000) {
    if (soc.fabric().reporter().attributed_detections() > 0) break;
    auto channels = soc.fabric().channels();
    if (channels.size() < 2) continue;
    fs::Channel* ch = channels.front();  // the main->checker1 link only
    if (injected < 40 && ch->size() > 16 &&
        ch->inject_fault_at_tail(rng, soc.max_cycle()).has_value()) {
      ++injected;
    }
  }
  ASSERT_GE(soc.fabric().reporter().attributed_detections(), 1u);
  // The detection came from checker 1 (the corrupted link).
  bool from_checker1 = false;
  for (const auto& event : soc.fabric().reporter().events()) {
    if (event.attributed) from_checker1 = event.checker == 1;
  }
  EXPECT_TRUE(from_checker1);
  exec.run();  // drain
  // Checker 2's copy was uncorrupted: it never flagged anything.
  EXPECT_EQ(soc.unit(2).segments_failed(), 0u);
}

TEST(VerifiedRun, OsTicksCanBeDisabled) {
  const auto program = tiny_workload("hmmer", 30);
  Cycle with_ticks = 0;
  Cycle without_ticks = 0;
  {
    Soc soc(SocConfig::paper_default(2));
    VerifiedRunConfig config{.roles = {{0, {1}}}};
    config.tick_period = us_to_cycles(50.0);  // aggressive ticking
    VerifiedExecution exec(soc, config);
    exec.prepare({program});
    with_ticks = exec.run().main_cycles;
  }
  {
    Soc soc(SocConfig::paper_default(2));
    VerifiedRunConfig config{.roles = {{0, {1}}}};
    config.os_ticks = false;
    VerifiedExecution exec(soc, config);
    exec.prepare({program});
    without_ticks = exec.run().main_cycles;
  }
  EXPECT_GT(with_ticks, without_ticks);
}

TEST(VerifiedRun, StatsIpcPositive) {
  Soc soc(SocConfig::paper_default(2));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({tiny_workload("bzip2")});
  const auto stats = exec.run();
  EXPECT_GT(stats.ipc(), 0.1);  // Rocket-class in-order with 16 KB L1s
  EXPECT_LE(stats.ipc(), 1.0);
}

TEST(VerifiedRun, RunUntilReportsExitReason) {
  // The building blocks the quantum drivers' progress accounting rests on:
  // every run_until() return is classified, including the zero-progress
  // cycle-bound return the drivers must never produce from their own bounds.
  Soc soc(SocConfig::paper_default(1));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {}}}});
  exec.prepare({tiny_workload("swaptions", 4)});
  arch::Core& core = soc.core(0);
  EXPECT_EQ(core.last_run_exit(), arch::RunExit::kNone);

  core.run_until(arch::kNoCycleBound, 100);
  EXPECT_EQ(core.last_run_exit(), arch::RunExit::kInstretBound);

  const Cycle now = core.cycle();
  const u64 instret = core.instret();
  core.run_until(now);  // bound at (or before) the current clock
  EXPECT_EQ(core.last_run_exit(), arch::RunExit::kCycleBound);
  EXPECT_EQ(core.cycle(), now);        // zero progress, classified as such
  EXPECT_EQ(core.instret(), instret);

  core.run_until(arch::kNoCycleBound);  // to completion
  EXPECT_EQ(core.last_run_exit(), arch::RunExit::kStatusChange);
  EXPECT_NE(core.status(), arch::Core::Status::kRunning);
}

constexpr soc::Engine kEngines[] = {soc::Engine::kStepwise, soc::Engine::kQuantum,
                                     soc::Engine::kQuantumBounded};

TEST(VerifiedRun, UnboundedAdvanceRunsToCompletion) {
  // The budget saturates: the largest budget on a session that has already
  // retired instructions runs it to the end instead of wrapping its target.
  for (soc::Engine engine : kEngines) {
    SCOPED_TRACE(soc::engine_name(engine));
    Soc soc(SocConfig::paper_default(2));
    VerifiedRunConfig config{.roles = {{0, {1}}}};
    config.engine = engine;
    VerifiedExecution exec(soc, config);
    exec.prepare({tiny_workload("swaptions", 6)});
    ASSERT_TRUE(exec.advance(1000));
    EXPECT_FALSE(exec.advance(std::numeric_limits<u64>::max()));
    EXPECT_TRUE(exec.finished());
  }
}

/// Everything two sessions at the same point agree on.
void expect_same_state(sim::Session& a, sim::Session& b) {
  EXPECT_EQ(a.stats(), b.stats());
  for (u32 c = 0; c < a.soc().num_cores(); ++c) {
    EXPECT_EQ(a.soc().core(c).cycle(), b.soc().core(c).cycle()) << "core " << c;
    EXPECT_EQ(a.soc().core(c).instret(), b.soc().core(c).instret()) << "core " << c;
  }
  EXPECT_EQ(soc::snapshot_digest(a.snapshot()), soc::snapshot_digest(b.snapshot()));
}

TEST(VerifiedRun, StopConditionIsCheckedWhereEachRoundEnds) {
  constexpr u64 kBudget = 20'000;
  constexpr u64 kStopAfter = 7'777;
  for (soc::Engine engine : kEngines) {
    SCOPED_TRACE(soc::engine_name(engine));
    sim::Session origin =
        sim::Scenario().workload("swaptions").iterations(60).dual().engine(engine).build();
    ASSERT_TRUE(origin.advance(5'000));
    const soc::Snapshot warm = origin.snapshot();

    // A condition that never holds leaves the run exactly as a plain advance.
    sim::Session plain = origin.fork(warm);
    sim::Session never = origin.fork(warm);
    ASSERT_TRUE(plain.advance(kBudget));
    ASSERT_TRUE(never.advance(kBudget, [] { return false; }));
    expect_same_state(plain, never);

    // A condition is checked once per round, and the run stops at the first
    // round end where it holds: where a hand-driven round loop stops.
    const u64 target = origin.total_instret() + kStopAfter;
    sim::Session stopped = origin.fork(warm);
    u64 calls = 0;
    u64 held = 0;
    EXPECT_TRUE(stopped.advance(~u64{0}, [&] {
      ++calls;
      const bool now = stopped.total_instret() >= target;
      held += now ? 1 : 0;
      return now;
    }));
    EXPECT_GE(stopped.total_instret(), target);
    EXPECT_EQ(held, 1u);  // only at the last call: the run returned on it
    if (engine == soc::Engine::kStepwise) {
      EXPECT_EQ(stopped.total_instret(), target);  // one instruction per round
    }

    sim::Session rounds = origin.fork(warm);
    u64 expected_calls = 0;
    while (rounds.total_instret() < target) {
      ASSERT_TRUE(engine == soc::Engine::kStepwise ? rounds.exec().step_round()
                                                   : rounds.exec().quantum_round());
      ++expected_calls;
    }
    EXPECT_EQ(calls, expected_calls);
    expect_same_state(stopped, rounds);

    // A run that drains before the condition holds reports the end.
    sim::Session drained = origin.fork(warm);
    EXPECT_FALSE(drained.advance(~u64{0}, [] { return false; }));
    EXPECT_TRUE(drained.finished());
  }
}

u64 main_user_instret(sim::Session& session) {
  return session.soc().core(0).user_instret();
}

TEST(VerifiedRun, AdvanceMainToStopsAtTheTargetOrWhereTheRunEnds) {
  for (soc::Engine engine : kEngines) {
    SCOPED_TRACE(soc::engine_name(engine));
    // tolerate_stall changes nothing in a run that never stalls; the wedged
    // fork below needs it.
    sim::Session origin = sim::Scenario()
                              .workload("swaptions")
                              .iterations(60)
                              .dual()
                              .engine(engine)
                              .tolerate_stall(true)
                              .build();
    ASSERT_TRUE(origin.advance(5'000));
    const soc::Snapshot warm = origin.snapshot();
    const u64 target = main_user_instret(origin) + 3'333;

    // `stop` is checked once per round end, and the main core stops exactly
    // at the target: where a hand-driven round loop stops.
    sim::Session counted = origin.fork(warm);
    u64 calls = 0;
    EXPECT_TRUE(counted.advance_main_to(target, [&] {
      ++calls;
      return false;
    }));
    EXPECT_EQ(main_user_instret(counted), target);
    sim::Session rounds = origin.fork(warm);
    u64 expected_calls = 0;
    while (main_user_instret(rounds) < target) {
      ASSERT_TRUE(engine == soc::Engine::kStepwise
                      ? rounds.exec().step_round()
                      : rounds.exec().quantum_round(~u64{0}, target));
      ++expected_calls;
    }
    EXPECT_EQ(calls, expected_calls);
    expect_same_state(counted, rounds);

    // A condition that holds ends the call at that round end, short of the
    // target.
    sim::Session stopped = origin.fork(warm);
    const u64 stop_at = origin.total_instret() + 1'000;
    EXPECT_TRUE(stopped.advance_main_to(
        target, [&] { return stopped.total_instret() >= stop_at; }));
    EXPECT_GE(stopped.total_instret(), stop_at);
    EXPECT_LT(main_user_instret(stopped), target);

    // A target at or below the current count runs nothing.
    sim::Session reached = origin.fork(warm);
    u64 idle_calls = 0;
    const auto count_idle = [&] {
      ++idle_calls;
      return false;
    };
    EXPECT_TRUE(reached.advance_main_to(main_user_instret(reached), count_idle));
    EXPECT_TRUE(reached.advance_main_to(0, count_idle));
    EXPECT_EQ(idle_calls, 0u);
    EXPECT_EQ(reached.total_instret(), origin.total_instret());

    // A run that drains before the target reports the end.
    sim::Session drained = origin.fork(warm);
    EXPECT_FALSE(drained.advance_main_to(~u64{0}));
    EXPECT_TRUE(drained.finished());

    // So does a run whose tolerated stall latches before the target: a main
    // core parked mid-job leaves no core runnable once the checker drains.
    sim::Session wedged = origin.fork(warm);
    wedged.soc().core(0).set_idle();
    EXPECT_FALSE(wedged.advance_main_to(target));
    EXPECT_TRUE(wedged.stalled());
    EXPECT_LT(main_user_instret(wedged), target);
  }
}

TEST(VerifiedRun, MainCoreStateAtAUserInstructionCountIsScheduleFree) {
  // Whole-SoC fault campaigns compare a victim with a clean run at one
  // main-core user-instruction count, reached in different rounds. That
  // needs the main core's architectural state there — pc, x1-x31 and the
  // memory image — to depend on the count alone: not on the engine, nor on
  // how advance() calls chunk the run.
  constexpr u64 kTargetOffsets[] = {1, 2'345, 6'000, 11'111, 16'000};
  constexpr u64 kChunk = 997;
  for (const char* name : {"swaptions", "mcf", "hmmer"}) {
    SCOPED_TRACE(name);
    // Per engine, a warmed session stepping straight to each target and a
    // fork of it creeping up on each target in advance(kChunk) steps.
    std::vector<sim::Session> runs;
    std::vector<bool> chunked;
    for (soc::Engine engine : kEngines) {
      sim::Session session =
          sim::Scenario().workload(name).seed(7).dual().engine(engine).build();
      ASSERT_TRUE(session.advance(20'000));
      runs.push_back(session.fork());
      chunked.push_back(true);
      runs.push_back(std::move(session));
      chunked.push_back(false);
    }
    u64 base = 0;
    for (sim::Session& run : runs) base = std::max(base, main_user_instret(run));

    for (u64 offset : kTargetOffsets) {
      const u64 target = base + offset;
      SCOPED_TRACE(target);
      for (std::size_t i = 0; i < runs.size(); ++i) {
        sim::Session& run = runs[i];
        while (chunked[i] && main_user_instret(run) + kChunk <= target) {
          ASSERT_TRUE(run.advance(kChunk));
        }
        ASSERT_TRUE(run.advance_main_to(target));
        EXPECT_EQ(main_user_instret(run), target) << "schedule " << i;
      }
      const arch::Core& want = runs.front().soc().core(0);
      for (std::size_t i = 1; i < runs.size(); ++i) {
        const arch::Core& got = runs[i].soc().core(0);
        EXPECT_EQ(got.pc(), want.pc()) << "schedule " << i;
        for (u8 r = 1; r < 32; ++r) {
          EXPECT_EQ(got.reg(r), want.reg(r)) << "schedule " << i << " x" << int{r};
        }
        EXPECT_TRUE(runs[i].soc().memory().same_contents(runs.front().soc().memory(),
                                                         std::nullopt))
            << "schedule " << i;
      }
    }
  }
}

using VerifiedRunDeathTest = testing::Test;

TEST(VerifiedRunDeathTest, QuantumDriverCrashesOnDeadlockInsteadOfSpinning) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Park the main core mid-job without halting it: the stream stays open, the
  // checker drains what is queued and parks, and no core is ever runnable
  // again. The driver must trip its deadlock FLEX_CHECK (after the double
  // pump_checkers retry) rather than spin forever.
  auto deadlock = [](soc::Engine engine) {
    Soc soc(SocConfig::paper_default(2));
    VerifiedRunConfig config{.roles = {{0, {1}}}};
    config.engine = engine;
    VerifiedExecution exec(soc, config);
    exec.prepare({tiny_workload("swaptions", 20)});
    exec.advance(30'000);
    soc.core(0).set_idle();  // kernel parked the main core; nobody resumes it
    while (exec.advance(10'000)) {
    }
  };
  EXPECT_DEATH(deadlock(soc::Engine::kQuantum), "co-simulation deadlock");
  EXPECT_DEATH(deadlock(soc::Engine::kQuantumBounded), "co-simulation deadlock");
  EXPECT_DEATH(deadlock(soc::Engine::kStepwise), "co-simulation deadlock");
}

}  // namespace
}  // namespace flexstep
