// sim::Scenario / sim::Session / soc::Snapshot semantics.
//
// The contracts under test:
//   * Round-trip bit-identity — run N instructions, snapshot, then run-on vs
//     restore-and-run produce identical RunStats (in-place and across forks).
//   * Forks evolve exactly like their origin — equal advance() budgets retire
//     the same instructions on every core and reach the same snapshot_digest
//     (forks adopt the origin's trace tables, across threads too).
//   * Fork isolation — a fault injected into a forked session never perturbs
//     its sibling or the baseline.
//   * Campaign parity — the snapshot-fork campaign reproduces the
//     warmup-re-execution campaign outcome-for-outcome at the same
//     (seed, shards) while executing measurably fewer instructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "arch/trace.h"
#include "common/archive.h"
#include "common/rng.h"
#include "fault/campaign.h"
#include "isa/assembler.h"
#include "runtime/parallel.h"
#include "sim/scenario.h"
#include "soc/snapshot.h"

namespace flexstep::sim {
namespace {

Scenario small_verified_scenario(u64 seed = 7) {
  Scenario scenario;
  scenario.workload("swaptions").seed(seed).iterations(600).dual();
  return scenario;
}

TEST(Scenario, AutoSizesTheSocToTheTopology) {
  EXPECT_EQ(Scenario().workload("swaptions").plain().soc_config().num_cores, 1u);
  EXPECT_EQ(Scenario().workload("swaptions").dual().soc_config().num_cores, 2u);
  EXPECT_EQ(Scenario().workload("swaptions").triple().soc_config().num_cores, 3u);
  EXPECT_EQ(Scenario().workload("swaptions").checkers({2, 3}).soc_config().num_cores, 4u);
  EXPECT_EQ(Scenario().workload("swaptions").dual().cores(8).soc_config().num_cores, 8u);

  // The single-role shorthand and the multi-role forms all edit one role list.
  using Roles = std::vector<soc::RoleBinding>;
  EXPECT_EQ(Scenario().run_config().roles, (Roles{{0, {}}}));
  EXPECT_EQ(Scenario().plain().run_config().roles, (Roles{{0, {}}}));
  EXPECT_EQ(Scenario().triple().plain().run_config().roles, (Roles{{0, {}}}));
  EXPECT_EQ(Scenario().dual().run_config().roles, (Roles{{0, {1}}}));
  EXPECT_EQ(Scenario().triple().run_config().roles, (Roles{{0, {1, 2}}}));
  EXPECT_EQ(Scenario().main_core(2).dual().run_config().roles, (Roles{{2, {3}}}));
  EXPECT_EQ(Scenario().main_core(2).dual().soc_config().num_cores, 4u);
  EXPECT_EQ(Scenario().checkers({2, 3}).run_config().roles, (Roles{{0, {2, 3}}}));
  EXPECT_EQ(Scenario().pairs(2).run_config().roles, (Roles{{0, {1}}, {2, {3}}}));
  EXPECT_EQ(Scenario().shared_checker(3).run_config().roles,
            (Roles{{0, {3}}, {1, {3}}, {2, {3}}}));
  const Roles custom = {{4, {0}}, {1, {2, 3}}};
  EXPECT_EQ(Scenario().topology(custom).run_config().roles, custom);
  EXPECT_EQ(Scenario().topology(custom).soc_config().num_cores, 5u);
  EXPECT_DEATH(Scenario().pairs(2).dual(), "single-role");

  // program(p) is shorthand for programs({p}).
  const isa::Program program =
      Scenario().workload("swaptions").seed(7).iterations(200).build_program();
  EXPECT_EQ(Scenario().program(program).dual().build().run(),
            Scenario().programs({program}).dual().build().run());
}

TEST(Scenario, TwoBuildsEvolveBitIdentically) {
  const Scenario scenario = small_verified_scenario();
  Session a = scenario.build();
  Session b = scenario.build();
  EXPECT_EQ(a.run(), b.run());
}

TEST(Scenario, BuildProgramMatchesWorkloadBuilder) {
  workloads::BuildOptions build;
  build.seed = 3;
  build.iterations_override = 50;
  const auto direct = workloads::build_workload(workloads::find_profile("mcf"), build);
  const auto via_scenario =
      Scenario().workload("mcf").seed(3).iterations(50).build_program();
  EXPECT_EQ(direct.code.size(), via_scenario.code.size());
  EXPECT_EQ(direct.code_base, via_scenario.code_base);
  EXPECT_EQ(direct.data_base, via_scenario.data_base);
}

TEST(Snapshot, InPlaceRestoreIsBitIdentical) {
  const Scenario scenario = small_verified_scenario();
  Session session = scenario.build();
  ASSERT_TRUE(session.advance(50'000));
  const soc::Snapshot warm = session.snapshot();

  const soc::RunStats run_on = session.run();
  session.restore(warm);
  const soc::RunStats restored_run = session.run();
  EXPECT_EQ(run_on, restored_run);
}

TEST(Snapshot, FileRoundTripIsBitIdentical) {
  // The file path of the identity suite: save_file -> load_file into a fresh
  // session must reproduce the exact digest and be execution-indistinguishable
  // from the session that kept its state in memory.
  const Scenario scenario = small_verified_scenario();
  Session session = scenario.build();
  ASSERT_TRUE(session.advance(50'000));
  const u64 digest_at_save = soc::snapshot_digest(session.snapshot());

  const std::string path = "test_sim_snapshot.fxar";
  ASSERT_TRUE(session.save_file(path).ok());

  Session restored = scenario.build();
  const io::ArchiveError err = restored.load_file(path);
  ASSERT_TRUE(err.ok()) << err.message();
  EXPECT_EQ(soc::snapshot_digest(restored.snapshot()), digest_at_save);

  const soc::RunStats run_on = session.run();
  const soc::RunStats from_file = restored.run();
  EXPECT_EQ(run_on, from_file);
  std::remove(path.c_str());
}

TEST(Snapshot, LoadFileRejectsForeignGeometry) {
  // A snapshot from a dual-core platform must not restore into a single-core
  // session: structured kMalformed, target session untouched.
  Session dual = small_verified_scenario().build();
  ASSERT_TRUE(dual.advance(10'000));
  const std::string path = "test_sim_snapshot_geometry.fxar";
  ASSERT_TRUE(dual.save_file(path).ok());

  Session plain = Scenario().workload("swaptions").seed(7).iterations(600).plain().build();
  const u64 digest_before = soc::snapshot_digest(plain.snapshot());
  const io::ArchiveError err = plain.load_file(path);
  EXPECT_EQ(err.status, io::ArchiveStatus::kMalformed);
  EXPECT_EQ(soc::snapshot_digest(plain.snapshot()), digest_before);
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreCheckedRejectsEveryGeometryMismatch) {
  // One input per geometry gate behind the core count: a snapshot from a
  // platform that differs only in L2 size, L1D size or BHT entries, and one
  // whose fabric is a unit short. Each is a structured kMalformed naming its
  // gate, and the target session is left untouched.
  Session target = small_verified_scenario().build();
  ASSERT_TRUE(target.advance(10'000));
  const u64 digest_before = soc::snapshot_digest(target.snapshot());

  const auto foreign = [](void (*edit)(soc::SocConfig&)) {
    soc::SocConfig config = small_verified_scenario().soc_config();
    edit(config);
    Session session = small_verified_scenario().soc(config).build();
    EXPECT_TRUE(session.advance(10'000));
    return session.snapshot();
  };
  std::vector<std::pair<std::string, soc::Snapshot>> inputs;
  inputs.emplace_back("L2 geometry", foreign([](soc::SocConfig& c) { c.l2.size_bytes *= 2; }));
  inputs.emplace_back("L1 geometry of core 0",
                      foreign([](soc::SocConfig& c) { c.core.l1d.size_bytes *= 2; }));
  inputs.emplace_back("predictor tables of core 0",
                      foreign([](soc::SocConfig& c) { c.core.bpred.bht_entries *= 2; }));
  soc::Snapshot short_fabric = target.snapshot();
  ASSERT_FALSE(short_fabric.fabric.units.empty());
  short_fabric.fabric.units.pop_back();
  inputs.emplace_back("fabric unit count", std::move(short_fabric));

  for (const auto& [gate, snapshot] : inputs) {
    SCOPED_TRACE(gate);
    const io::ArchiveError err = target.restore_checked(snapshot);
    EXPECT_EQ(err.status, io::ArchiveStatus::kMalformed);
    EXPECT_NE(err.message().find(gate), std::string::npos) << err.message();
    EXPECT_EQ(soc::snapshot_digest(target.snapshot()), digest_before);
  }
}

TEST(Snapshot, ForkedSessionRunsBitIdenticalToRunOn) {
  const Scenario scenario = small_verified_scenario();
  Session session = scenario.build();
  ASSERT_TRUE(session.advance(50'000));
  Session fork = session.fork();

  const soc::RunStats run_on = session.run();
  const soc::RunStats forked = fork.run();
  EXPECT_EQ(run_on, forked);
}

TEST(Snapshot, RestoreRewindsMidFlightState) {
  // Snapshot early, run further, restore, and check the observable clocks and
  // counters rewound exactly.
  Session session = small_verified_scenario().build();
  ASSERT_TRUE(session.advance(20'000));
  const u64 instret_at_save = session.total_instret();
  const Cycle cycle_at_save = session.soc().max_cycle();
  const soc::Snapshot warm = session.snapshot();

  ASSERT_TRUE(session.advance(30'000));
  ASSERT_GT(session.total_instret(), instret_at_save);

  session.restore(warm);
  EXPECT_EQ(session.total_instret(), instret_at_save);
  EXPECT_EQ(session.soc().max_cycle(), cycle_at_save);
}

TEST(Snapshot, LrScReservationRoundTripsThroughSnapshotAndFork) {
  // A reservation pending at snapshot time must behave identically after an
  // in-place restore and in a fork: the SC succeeds unless someone touched
  // the granule. The second half is the regression — the architectural flags
  // always round-tripped through Core::Snapshot, but the shared Memory
  // registry that delivers cross-agent invalidation has to be rebuilt on
  // restore, or a forked session's SC can spuriously succeed.
  constexpr Addr kGranule = 0x30000;
  isa::Assembler a;
  a.li(10, static_cast<i64>(kGranule));
  a.li(1, 5);
  a.sd(1, 10, 0);
  a.lr_d(5, 10);
  a.sc_d(7, 10, 1);
  a.halt();
  const Scenario scenario =
      Scenario().program(a.finalize("lr-sc")).plain().os_ticks(false);
  Session session = scenario.build();

  // Advance one instruction at a time until the LR retired (visible through
  // the shared reservation registry), leaving the SC as the next commit.
  while (session.soc().memory().reservation_count() == 0) {
    ASSERT_TRUE(session.advance(1));
  }
  const soc::Snapshot pending = session.snapshot();

  const auto sc_result = [](Session& s) {
    s.run();
    return s.soc().core(0).reg(7);  // 0 = SC success, 1 = failure
  };

  Session fork_clean = session.fork(pending);
  EXPECT_EQ(fork_clean.soc().memory().reservation_count(), 1u);
  EXPECT_EQ(sc_result(fork_clean), 0u) << "reservation lost across fork";

  Session fork_dirty = session.fork(pending);
  // Any agent writing the reserved granule must kill the restored
  // reservation — this is exactly what a stale (unrebuilt) registry misses.
  fork_dirty.soc().memory().write(kGranule, 8, 77);
  EXPECT_EQ(sc_result(fork_dirty), 1u) << "SC spuriously succeeded in the fork";

  session.restore(pending);
  EXPECT_EQ(sc_result(session), 0u) << "reservation lost across in-place restore";
}

TEST(Snapshot, CapturesResidentMemoryNotAddressSpace) {
  Session session = small_verified_scenario().build();
  ASSERT_TRUE(session.advance(20'000));
  const soc::Snapshot warm = session.snapshot();
  EXPECT_EQ(warm.memory.pages.size(), session.soc().memory().resident_pages());
  // Touched pages only: code + working set, nowhere near even 1 MiB of pages.
  EXPECT_LT(warm.memory.pages.size(), 4096u);
  EXPECT_GT(warm.bytes(), warm.memory.bytes());  // caches/fabric counted too
}

TEST(Snapshot, ForkIsolationFaultStaysInTheFork) {
  const Scenario scenario = small_verified_scenario();
  Session session = scenario.build();
  ASSERT_TRUE(session.advance(50'000));
  while (session.channel() != nullptr && session.channel()->empty()) {
    ASSERT_TRUE(session.advance(512));
  }
  ASSERT_NE(session.channel(), nullptr);
  const soc::Snapshot warm = session.snapshot();

  Session clean = session.fork(warm);
  Session faulty = session.fork(warm);

  Rng rng(99);
  const auto fault =
      faulty.channel()->inject_fault_at_tail(rng, faulty.soc().max_cycle());
  ASSERT_TRUE(fault.has_value());

  const soc::RunStats faulty_stats = faulty.run();
  const soc::RunStats clean_stats = clean.run();
  // A later state of the origin, with another channel occupancy.
  ASSERT_TRUE(session.advance(30'000));
  const soc::Snapshot later = session.snapshot();
  const soc::RunStats sibling_stats = session.run();

  // The siblings never saw the fault: bit-identical to each other, reporter
  // silent, channel fault flag clear.
  EXPECT_EQ(clean_stats, sibling_stats);
  EXPECT_EQ(clean.reporter().events().size(), 0u);
  EXPECT_EQ(session.reporter().events().size(), 0u);

  // The fork either detected its fault or masked it — and any detection stayed
  // inside the fork.
  if (faulty_stats.segments_failed > 0) {
    EXPECT_GT(faulty.reporter().detections(), 0u);
  }
  EXPECT_EQ(clean_stats.segments_failed, 0u);
  EXPECT_EQ(sibling_stats.segments_failed, 0u);

  // Rewound in place to the later state, the diverged fork evolves exactly
  // like a fresh fork of it. Its channel keeps its object (same endpoints)
  // and is restored from another occupancy, and a fault pending at the
  // rewind is dropped.
  const fs::Channel* faulty_channel = faulty.channel();
  ASSERT_NE(faulty_channel->size(), later.fabric.channels.front().items.size());
  faulty.restore(later);
  ASSERT_TRUE(faulty.channel()->inject_fault_at_tail(rng, faulty.soc().max_cycle()).has_value());
  ASSERT_TRUE(faulty.channel()->fault_pending());
  faulty.restore(later);
  EXPECT_EQ(faulty.channel(), faulty_channel);
  EXPECT_FALSE(faulty.channel()->fault_pending());
  Session fresh = session.fork(later);
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(faulty.advance(20'000));
    ASSERT_TRUE(fresh.advance(20'000));
    EXPECT_EQ(faulty.stats(), fresh.stats()) << "repetition " << rep;
    for (u32 core = 0; core < fresh.soc().num_cores(); ++core) {
      EXPECT_EQ(faulty.soc().core(core).cycle(), fresh.soc().core(core).cycle())
          << "repetition " << rep << ", core " << core;
      EXPECT_EQ(faulty.soc().core(core).instret(), fresh.soc().core(core).instret())
          << "repetition " << rep << ", core " << core;
    }
    EXPECT_EQ(soc::snapshot_digest(faulty.snapshot()), soc::snapshot_digest(fresh.snapshot()))
        << "repetition " << rep;
  }
  EXPECT_EQ(faulty.run(), fresh.run());
}

std::vector<u8> wire_bytes(const soc::Snapshot& snapshot) {
  io::ArchiveWriter ar(soc::kSnapshotAppTag, soc::kSnapshotFormatVersion);
  snapshot.serialize(ar);
  return ar.buffer();
}

TEST(Snapshot, ForkDigestCarriesNoStaleChannelBytes) {
  // Regression: channel ring slots are reused, and a MAL entry written into a
  // slot a checkpoint held before used to keep that checkpoint's registers.
  // Those dead bytes reached snapshot_digest and the wire form, so a fork and
  // its origin with equal RunStats digested differently (13 of 857 queued
  // entries here). The stepwise engine keeps traces out of the picture.
  Session origin = Scenario()
                       .workload("swaptions")
                       .seed(3)
                       .iterations(400)
                       .soc(soc::SocConfig::paper_default(2))
                       .dual()
                       .engine(soc::Engine::kStepwise)
                       .build();
  ASSERT_TRUE(origin.advance(300'000));
  Session fork = origin.fork();
  ASSERT_TRUE(origin.advance(120'000));
  ASSERT_TRUE(fork.advance(120'000));
  ASSERT_NE(origin.channel(), nullptr);
  ASSERT_GT(origin.channel()->size(), 0u);

  EXPECT_EQ(origin.stats(), fork.stats());
  const soc::Snapshot a = origin.snapshot();
  const soc::Snapshot b = fork.snapshot();
  EXPECT_EQ(soc::snapshot_digest(a), soc::snapshot_digest(b));
  EXPECT_EQ(wire_bytes(a), wire_bytes(b));
}

TEST(Snapshot, ForkEvolvesExactlyLikeItsOriginPerCore) {
  // With traces on, where a budgeted advance() stops on each core depends on
  // which traces are recorded. A fork adopts its origin's trace tables, so
  // equal budgets must retire equal instructions on every core and reach the
  // same state. Forks that re-recorded their traces split differently here
  // from the third repetition on.
  soc::SocConfig soc = soc::SocConfig::paper_default(16);
  soc.l2.size_bytes = 16 * 128 * 1024;
  Session origin = Scenario()
                       .workload("swaptions")
                       .seed(runtime::stream_rng(2, 11).next_u64())
                       .iterations(300)
                       .soc(soc)
                       .pairs(8)
                       .engine(soc::Engine::kQuantumBounded)
                       .trace(true)
                       .analysis(true)
                       .build();
  ASSERT_TRUE(origin.advance(20'000));
  for (int rep = 0; rep < 4; ++rep) {
    Session fork = origin.fork(origin.snapshot());
    ASSERT_TRUE(origin.advance(30'000));
    ASSERT_TRUE(fork.advance(30'000));
    for (u32 core = 0; core < soc.num_cores; ++core) {
      EXPECT_EQ(fork.soc().core(core).instret(), origin.soc().core(core).instret())
          << "repetition " << rep << ", core " << core;
    }
    EXPECT_EQ(soc::snapshot_digest(fork.snapshot()), soc::snapshot_digest(origin.snapshot()))
        << "repetition " << rep;
  }
}

/// Every slot (entry pc, trace object) and heat entry (pc, count) of `tables`.
std::vector<std::pair<u64, u64>> table_entries(const arch::TraceTables& tables) {
  std::vector<std::pair<u64, u64>> out;
  for (const auto& chunk : tables.slots) {
    for (const auto& slot : *chunk) {
      out.emplace_back(slot.entry_pc, reinterpret_cast<std::uintptr_t>(slot.trace.get()));
    }
  }
  for (const auto& chunk : tables.heat) {
    for (const auto& heat : *chunk) out.emplace_back(heat.pc, heat.count);
  }
  return out;
}

TEST(Snapshot, ConcurrentForksOfOneSnapshotMatchTheOrigin) {
  // Forks of one snapshot share its trace-table chunks (and every recorded
  // trace) across threads; each fork copies a chunk before its first write to
  // it. Run four forks to completion on four workers, every core of every
  // fork writing heat counters into shared chunks (the TSan job runs this
  // suite).
  Session origin = small_verified_scenario().build();
  ASSERT_TRUE(origin.advance(50'000));
  const soc::Snapshot warm = origin.snapshot();
  std::vector<std::vector<std::pair<u64, u64>>> warm_entries;
  for (const auto& core : warm.cores) {
    ASSERT_NE(core.traces, nullptr);
    warm_entries.push_back(table_entries(*core.traces));
  }

  constexpr std::size_t kForks = 4;
  std::vector<soc::RunStats> stats(kForks);
  std::vector<u64> digests(kForks);
  std::vector<u64> fewest_heat_writes(kForks, ~u64{0});  ///< Over the cores.
  runtime::JobPool pool(kForks);
  runtime::parallel_for(pool, kForks, [&](std::size_t i) {
    Session fork = origin.fork(warm);
    stats[i] = fork.run();
    for (u32 c = 0; c < fork.soc().num_cores(); ++c) {
      fewest_heat_writes[i] = std::min(
          fewest_heat_writes[i], fork.soc().core(c).trace_cache()->stats().heat_misses);
    }
    digests[i] = soc::snapshot_digest(fork.snapshot());
  });

  const soc::RunStats expected = origin.run();
  const u64 expected_digest = soc::snapshot_digest(origin.snapshot());
  for (std::size_t i = 0; i < kForks; ++i) {
    EXPECT_EQ(stats[i], expected) << "fork " << i;
    EXPECT_EQ(digests[i], expected_digest) << "fork " << i;
    EXPECT_GT(fewest_heat_writes[i], 0u) << "fork " << i;
  }
  for (std::size_t c = 0; c < warm.cores.size(); ++c) {
    EXPECT_EQ(table_entries(*warm.cores[c].traces), warm_entries[c]) << "core " << c;
  }
}

TEST(Snapshot, ForkSurvivesItsParentsDestruction) {
  // The fork owns its whole platform: run it after the parent (and the
  // snapshot) are gone.
  std::unique_ptr<Session> fork;
  soc::RunStats parent_stats;
  {
    Session session = small_verified_scenario().build();
    EXPECT_TRUE(session.advance(50'000));
    fork = std::make_unique<Session>(session.fork());
    parent_stats = session.run();
  }
  EXPECT_EQ(fork->run(), parent_stats);
}

TEST(CampaignParity, SnapshotForkMatchesWarmupReexecution) {
  // The acceptance bar: bit-identical CampaignStats at the same (seed,
  // shards) across materialisation modes, with the snapshot path executing
  // measurably fewer instructions. Three seeds.
  for (u64 seed : {u64{0xF417}, u64{1}, u64{2025}}) {
    fault::CampaignConfig config;
    config.target_faults = 24;
    config.warmup_rounds = 20'000;
    config.gap_rounds = 1'000;
    config.workload_iterations = 20'000;
    config.shards = 4;
    config.seed = seed;

    config.mode = fault::CampaignMode::kSnapshotFork;
    const auto forked = fault::run_fault_campaign(
        workloads::find_profile("swaptions"), soc::SocConfig::paper_default(2), config);

    config.mode = fault::CampaignMode::kWarmupReexecution;
    const auto reexecuted = fault::run_fault_campaign(
        workloads::find_profile("swaptions"), soc::SocConfig::paper_default(2), config);

    EXPECT_EQ(forked.injected, reexecuted.injected) << "seed " << seed;
    EXPECT_EQ(forked.detected, reexecuted.detected) << "seed " << seed;
    EXPECT_EQ(forked.undetected(), reexecuted.undetected()) << "seed " << seed;
    ASSERT_EQ(forked.outcomes.size(), reexecuted.outcomes.size()) << "seed " << seed;
    for (std::size_t i = 0; i < forked.outcomes.size(); ++i) {
      EXPECT_EQ(forked.outcomes[i].detected, reexecuted.outcomes[i].detected)
          << "seed " << seed << " outcome " << i;
      EXPECT_DOUBLE_EQ(forked.outcomes[i].latency_us, reexecuted.outcomes[i].latency_us)
          << "seed " << seed << " outcome " << i;
      EXPECT_EQ(forked.outcomes[i].detect_kind, reexecuted.outcomes[i].detect_kind)
          << "seed " << seed << " outcome " << i;
      EXPECT_EQ(forked.outcomes[i].target_kind, reexecuted.outcomes[i].target_kind)
          << "seed " << seed << " outcome " << i;
    }

    // The warmup (20k) dominates each injection's resolution tail, so
    // re-executing it per fault must cost at least 2x the snapshot path.
    EXPECT_GT(forked.total_instructions, 0u);
    EXPECT_GT(reexecuted.total_instructions, 2 * forked.total_instructions)
        << "seed " << seed;
  }
}

TEST(CampaignParity, SnapshotForkDeterministicAcrossThreads) {
  fault::CampaignConfig config;
  config.target_faults = 16;
  config.warmup_rounds = 10'000;
  config.gap_rounds = 1'000;
  config.workload_iterations = 20'000;
  config.shards = 4;

  config.threads = 1;
  const auto serial = fault::run_fault_campaign(
      workloads::find_profile("swaptions"), soc::SocConfig::paper_default(2), config);
  config.threads = 4;
  const auto parallel = fault::run_fault_campaign(
      workloads::find_profile("swaptions"), soc::SocConfig::paper_default(2), config);

  EXPECT_EQ(serial.detected, parallel.detected);
  EXPECT_EQ(serial.undetected(), parallel.undetected());
  EXPECT_EQ(serial.total_instructions, parallel.total_instructions);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].detected, parallel.outcomes[i].detected);
    EXPECT_DOUBLE_EQ(serial.outcomes[i].latency_us, parallel.outcomes[i].latency_us);
  }
}

}  // namespace
}  // namespace flexstep::sim
