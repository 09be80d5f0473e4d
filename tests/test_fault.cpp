// Fault-injection campaign tests: coverage, latency sanity, detection kinds,
// whole-SoC fault-site adapters, and vulnerability-campaign classification.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "common/stats.h"
#include "fault/campaign.h"
#include "fault/distributed.h"
#include "fault/sites.h"
#include "fault/vuln.h"
#include "flexstep/channel.h"
#include "sim/scenario.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep::fault {
namespace {

CampaignConfig small_campaign(u32 faults = 150) {
  CampaignConfig config;
  config.target_faults = faults;
  config.warmup_rounds = 20'000;
  config.gap_rounds = 1'000;
  config.workload_iterations = 20'000;
  return config;
}

TEST(FaultCampaign, ReachesTargetInjectionCount) {
  const auto stats = run_fault_campaign(workloads::find_profile("swaptions"),
                                        soc::SocConfig::paper_default(2),
                                        small_campaign());
  EXPECT_EQ(stats.injected, 150u);
  EXPECT_EQ(stats.detected + stats.undetected(), stats.injected);
}

TEST(FaultCampaign, HighCoverage) {
  const auto stats = run_fault_campaign(workloads::find_profile("swaptions"),
                                        soc::SocConfig::paper_default(2),
                                        small_campaign(300));
  // Paper reports >99.9%; our synthetic workloads legitimately mask a few
  // percent (dead temporaries, shifted-out bits).
  EXPECT_GT(stats.coverage(), 0.80);
}

TEST(FaultCampaign, LatenciesArePositiveAndBounded) {
  const auto stats = run_fault_campaign(workloads::find_profile("hmmer"),
                                        soc::SocConfig::paper_default(2),
                                        small_campaign(200));
  const auto latencies = stats.latencies_us();
  ASSERT_FALSE(latencies.empty());
  for (double latency : latencies) {
    EXPECT_GT(latency, 0.0);
    // Bounded by buffering: channel capacity (~2048 entries) plus a couple of
    // segments and OS-tick interference — far below 1 ms.
    EXPECT_LT(latency, 200.0);
  }
}

FaultOutcome detected_outcome(double latency_us,
                              fs::DetectKind kind = fs::DetectKind::kStoreData) {
  FaultOutcome outcome;
  outcome.detected = true;
  outcome.latency_us = latency_us;
  outcome.detect_kind = kind;
  outcome.kind = OutcomeKind::kDetected;
  return outcome;
}

FaultOutcome undetected_outcome(OutcomeKind kind = OutcomeKind::kMasked) {
  FaultOutcome outcome;
  outcome.kind = kind;
  return outcome;
}

TEST(CampaignStats, MergeFoldsCountersAndAppendsOutcomes) {
  CampaignStats a;
  a.record(detected_outcome(3.5));
  a.record(undetected_outcome());
  CampaignStats b;
  b.record(detected_outcome(7.25, fs::DetectKind::kEcpReg));
  b.record(undetected_outcome(OutcomeKind::kSdc));
  b.record(undetected_outcome(OutcomeKind::kDue));

  a.merge(std::move(b));
  EXPECT_EQ(a.injected, 5u);
  EXPECT_EQ(a.detected, 2u);
  EXPECT_EQ(a.undetected(), 3u);
  EXPECT_EQ(a.masked, 1u);
  EXPECT_EQ(a.sdc, 1u);
  EXPECT_EQ(a.due, 1u);
  ASSERT_EQ(a.outcomes.size(), 5u);
  EXPECT_DOUBLE_EQ(a.outcomes[2].latency_us, 7.25);
  EXPECT_EQ(a.outcomes[2].detect_kind, fs::DetectKind::kEcpReg);
}

TEST(CampaignStats, MergeKeepsShardOrderDeterministic) {
  // Shards fold in ascending shard order; the merged outcome stream must be
  // exactly shard-0's records followed by shard-1's — never interleaved.
  CampaignStats a;
  a.record(detected_outcome(1.0));
  a.record(detected_outcome(2.0));
  CampaignStats b;
  b.record(detected_outcome(3.0));
  a.merge(std::move(b));
  const auto latencies = a.latencies_us();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_DOUBLE_EQ(latencies[0], 1.0);
  EXPECT_DOUBLE_EQ(latencies[1], 2.0);
  EXPECT_DOUBLE_EQ(latencies[2], 3.0);
}

TEST(CampaignStats, LatenciesEmptyOnFreshStats) {
  const CampaignStats stats;
  EXPECT_TRUE(stats.latencies_us().empty());
  EXPECT_DOUBLE_EQ(stats.coverage(), 0.0);
}

TEST(CampaignStats, LatenciesEmptyWhenAllMasked) {
  CampaignStats stats;
  stats.record(undetected_outcome());
  stats.record(undetected_outcome());
  EXPECT_EQ(stats.injected, 2u);
  EXPECT_EQ(stats.masked, 2u);
  EXPECT_TRUE(stats.latencies_us().empty());
  EXPECT_DOUBLE_EQ(stats.coverage(), 0.0);
}

TEST(FaultCampaign, ShardQuotasSumToTarget) {
  // 90 faults over 4 shards: every shard contributes and the total is exact.
  auto config = small_campaign(90);
  config.shards = 4;
  const auto stats = run_fault_campaign(workloads::find_profile("swaptions"),
                                        soc::SocConfig::paper_default(2), config);
  EXPECT_EQ(stats.injected, 90u);
  EXPECT_EQ(stats.outcomes.size(), 90u);
  EXPECT_EQ(stats.detected + stats.undetected(), stats.injected);
}

TEST(FaultCampaign, DeterministicForSeed) {
  const auto a = run_fault_campaign(workloads::find_profile("bzip2"),
                                    soc::SocConfig::paper_default(2), small_campaign());
  const auto b = run_fault_campaign(workloads::find_profile("bzip2"),
                                    soc::SocConfig::paper_default(2), small_campaign());
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.undetected(), b.undetected());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].detected, b.outcomes[i].detected);
    EXPECT_DOUBLE_EQ(a.outcomes[i].latency_us, b.outcomes[i].latency_us);
  }
}

TEST(FaultCampaign, DetectionKindsAreDiverse) {
  const auto stats = run_fault_campaign(workloads::find_profile("streamcluster"),
                                        soc::SocConfig::paper_default(2),
                                        small_campaign(400));
  // Tail injection overwhelmingly lands on MAL entries, whose corruptions are
  // caught in-flight; assert the in-flight kinds are all represented and that
  // some faults mask (dead temporaries). Checkpoint (ECP) detection is
  // exercised deterministically by CheckpointCorruptionIsDetectedAtTheEcp
  // below — at the campaign level it is a <1% event on every workload
  // (corrupted load data almost always reaches a store first).
  bool saw_load_addr = false;
  bool saw_store_addr = false;
  bool saw_store_data = false;
  for (const auto& outcome : stats.outcomes) {
    if (!outcome.detected) continue;
    switch (outcome.detect_kind) {
      case fs::DetectKind::kLoadAddr: saw_load_addr = true; break;
      case fs::DetectKind::kStoreAddr: saw_store_addr = true; break;
      case fs::DetectKind::kStoreData: saw_store_data = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_load_addr);
  EXPECT_TRUE(saw_store_addr);
  EXPECT_TRUE(saw_store_data);
  EXPECT_GT(stats.undetected(), 0u);
}

TEST(FaultCampaign, CheckpointCorruptionIsDetectedAtTheEcp) {
  // Corrupt a SegmentEnd checkpoint word and assert the checker reports the
  // mismatch at the end-checkpoint comparison — the detection path that is
  // too rare under random tail injection to assert from campaign statistics.
  const auto& profile = workloads::find_profile("swaptions");
  workloads::BuildOptions build;
  build.seed = 3;
  build.iterations_override = 20'000;
  const auto program = workloads::build_workload(profile, build);

  soc::Soc soc(soc::SocConfig::paper_default(2));
  soc::VerifiedExecution exec(soc, soc::VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({program});
  ASSERT_TRUE(exec.advance(20'000));
  fs::Channel* ch = soc.fabric().channels().front();

  // Advance until a SegmentEnd checkpoint sits buffered in the channel, then
  // corrupt it in place (any queued item is still unconsumed by the checker).
  std::size_t end_index = 0;
  bool found = false;
  for (u64 step = 0; step < 10'000 && !found; ++step) {
    for (std::size_t i = 0; i < ch->size(); ++i) {
      if (ch->item(i).kind == fs::StreamItem::Kind::kSegmentEnd) {
        end_index = i;
        found = true;
        break;
      }
    }
    if (!found) ASSERT_TRUE(exec.advance(64));
  }
  ASSERT_TRUE(found);

  Rng rng(7);
  const auto fault = ch->inject_fault_at(end_index, rng, soc.max_cycle());
  ASSERT_TRUE(fault.has_value());
  ASSERT_EQ(fault->item_kind, fs::StreamItem::Kind::kSegmentEnd);

  bool detected = false;
  fs::DetectKind kind{};
  while (!detected && exec.advance(64)) {
    for (const auto& event : soc.fabric().reporter().events()) {
      if (event.attributed) {
        detected = true;
        kind = event.kind;
        break;
      }
    }
  }
  ASSERT_TRUE(detected);
  EXPECT_TRUE(kind == fs::DetectKind::kEcpReg || kind == fs::DetectKind::kEcpPc)
      << detect_kind_name(kind);
}

TEST(FaultCampaign, ShorterSegmentsDetectFaster) {
  soc::SocConfig fast = soc::SocConfig::paper_default(2);
  fast.flexstep.segment_limit = 1000;
  soc::SocConfig slow = soc::SocConfig::paper_default(2);
  slow.flexstep.segment_limit = 10000;
  slow.flexstep.channel_capacity = 12000;  // keep a full segment buffered

  const auto& profile = workloads::find_profile("swaptions");
  const auto stats_fast = run_fault_campaign(profile, fast, small_campaign(200));
  const auto stats_slow = run_fault_campaign(profile, slow, small_campaign(200));
  const auto lat_fast = stats_fast.latencies_us();
  const auto lat_slow = stats_slow.latencies_us();
  ASSERT_FALSE(lat_fast.empty());
  ASSERT_FALSE(lat_slow.empty());
  EXPECT_LT(mean(lat_fast), mean(lat_slow));
}

// ---------------------------------------------------------------------------
// Whole-SoC fault sites (fault/sites.h)
// ---------------------------------------------------------------------------

/// A warmed dual-core session with live DBC state (non-empty channel and at
/// least one complete segment queued), so every component class has sites.
sim::Session warmed_session() {
  sim::Scenario scenario;
  scenario.workload(workloads::find_profile("swaptions"))
      .seed(3)
      .iterations(20'000)
      .soc(soc::SocConfig::paper_default(2))
      .main_core(0)
      .checkers({1})
      .tolerate_stall(true);
  sim::Session session = scenario.build();
  EXPECT_TRUE(session.advance(30'000));
  fs::Channel* ch = session.channel();
  EXPECT_NE(ch, nullptr);
  while (ch->empty() || ch->complete_segments_queued() == 0) {
    EXPECT_TRUE(session.advance(64));
  }
  return session;
}

TEST(FaultSites, EveryComponentEnumeratesSites) {
  sim::Session session = warmed_session();
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    const auto component = static_cast<Component>(c);
    EXPECT_GT(site_index_count(session.soc(), component), 0u)
        << component_name(component);
  }
}

TEST(FaultSites, FlipIsSelfInverseForEveryComponent) {
  sim::Session session = warmed_session();
  Rng rng(0x51735);
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    const auto component = static_cast<Component>(c);
    // Several random sites per component so the per-field sub-routing (BTB
    // target/pc/valid, MAL addr/data, SCP pc/regs, ...) gets exercised.
    for (int trial = 0; trial < 8; ++trial) {
      const u64 before = snapshot_digest(session.snapshot());
      const FaultSite site = random_site(session.soc(), component, rng);
      flip(session.soc(), site);
      EXPECT_NE(snapshot_digest(session.snapshot()), before) << describe(site);
      flip(session.soc(), site);
      EXPECT_EQ(snapshot_digest(session.snapshot()), before) << describe(site);
    }
  }
}

// ---------------------------------------------------------------------------
// Vulnerability campaigns (fault/vuln.h)
// ---------------------------------------------------------------------------

VulnConfig small_vuln(u32 faults = 28) {
  VulnConfig config;
  config.target_faults = faults;
  config.shards = 4;
  config.warmup_rounds = 20'000;
  config.gap_rounds = 1'000;
  config.horizon = 16'000;
  config.workload_iterations = 20'000;
  return config;
}

TEST(VulnCampaign, ClassifiesEveryInjectionAcrossAllComponents) {
  auto config = small_vuln();
  config.root_cause = true;
  const auto report = run_vuln_campaign(workloads::find_profile("swaptions"),
                                        soc::SocConfig::paper_default(2), config);
  EXPECT_EQ(report.injected, 28u);
  EXPECT_EQ(report.records.size(), 28u);
  // The four-way classification must be exhaustive and exclusive.
  EXPECT_EQ(report.masked + report.detected + report.sdc + report.due,
            report.injected);
  report.check_invariant();
  // 28 faults round-robined over 7 component classes: exactly 4 each.
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    EXPECT_EQ(report.components[c].injected, 4u)
        << component_name(static_cast<Component>(c));
  }
  EXPECT_GT(report.detected, 0u);
  for (const auto& record : report.records) {
    if (record.outcome == OutcomeKind::kDetected) {
      EXPECT_GE(record.latency_us, 0.0);
    }
    // Root-cause attribution only ever fires on SDC/DUE outcomes, and an
    // attributed divergence names two distinct replay positions or pcs.
    if (record.rc_valid) {
      EXPECT_TRUE(record.outcome == OutcomeKind::kSdc ||
                  record.outcome == OutcomeKind::kDue);
    }
  }
}

TEST(VulnCampaign, TimingOnlyFaultsNeverClassifySdc) {
  // Cache-tag and branch-predictor flips change timing only, so the victim
  // and the golden run agree architecturally where both stop: at the same
  // main-core user-instruction count, however the flip moved the victim's
  // rounds.
  auto config = small_vuln(28);
  config.components = {Component::kCacheTag, Component::kBranchPred};
  for (soc::Engine engine : {soc::Engine::kStepwise, soc::Engine::kQuantum,
                             soc::Engine::kQuantumBounded}) {
    config.engine = engine;
    for (const char* name : {"swaptions", "mcf", "hmmer"}) {
      SCOPED_TRACE(std::string(soc::engine_name(engine)) + " " + name);
      const VulnReport report = run_vuln_campaign(
          workloads::find_profile(name), soc::SocConfig::paper_default(2), config);
      EXPECT_EQ(report.injected, 28u);
      EXPECT_EQ(report.sdc, 0u);
    }
  }
}

/// Recorded bounded-engine campaigns of both kinds. The records (digests) are
/// the same in both materialisation modes; the instructions executed are
/// each mode's own.
struct CampaignPin {
  const char* profile;
  u64 dbc_digest;
  u64 dbc_fork_instructions;
  u64 dbc_reexec_instructions;
  u64 vuln_digest;
  u64 vuln_fork_instructions;
  u64 vuln_reexec_instructions;
};
constexpr CampaignPin kCampaignPins[] = {
    {"swaptions", 0x3e010c621fa285eeULL, 329'121, 894'108, 0x78c7253a0539b61fULL,
     404'836, 945'920},
    {"mcf", 0x4089c7e4570b85c7ULL, 314'995, 879'982, 0x6677ec1f3b7cfa00ULL, 421'495,
     961'555},
};

/// The pinned whole-SoC campaign of `profile`.
VulnConfig pinned_vuln(const workloads::WorkloadProfile& profile, CampaignMode mode,
                       soc::Engine engine) {
  VulnConfig vuln;
  vuln.target_faults = 28;
  vuln.warmup_rounds = 10'000;
  vuln.gap_rounds = 1'000;
  vuln.horizon = 12'000;
  vuln.seed = 0x5EED;
  vuln.workload_iterations = profile.iterations * 2;
  vuln.shards = 2;
  vuln.threads = 2;
  vuln.mode = mode;
  vuln.engine = engine;
  return vuln;
}

/// How a victim is materialised or rewound is host machinery: it may not
/// change a campaign's records (digest). The instruction counts are the
/// simulation work each mode does, so they move with simulated behaviour and
/// with what a campaign chooses to simulate. A whole-SoC injection runs its
/// golden session for a horizon only when the detection window leaves the
/// outcome open, so skipping the golden run for decided faults lowered the
/// vuln counts by exactly horizon x (injections decided in the window):
/// 7 x 12,000 on swaptions and 5 x 12,000 on mcf. Comparing a victim that ran
/// ahead only after the golden run catches up re-recorded mcf's vuln digest
/// and added 2,764 golden instructions in both modes. Stopping victims at the
/// round end where their outcome settles, instead of at fixed-stride polls,
/// moved no digest and every count by the same amount in both modes: DBC
/// victims run on to the end of the round their fault resolved in (+36,352
/// swaptions, +33,234 mcf), whole-SoC victims stop at the detecting round
/// (-1,578, -12,372). Comparing each open whole-SoC fault at a fixed
/// main-core target (horizon / 2 user instructions past its injection
/// point), with one golden session per baseline that only ever advances,
/// instead of rewinding the golden session for a horizon per fault, moved no
/// digest and lowered the vuln counts by the same amount in both modes:
/// -199,208 swaptions, -210,511 mcf. The constants are recorded runs;
/// re-record them only for such a change, and say which.
void expect_pinned_records(CampaignMode mode) {
  const bool fork = mode == CampaignMode::kSnapshotFork;
  const auto soc_config = soc::SocConfig::paper_default(2);
  for (const CampaignPin& pin : kCampaignPins) {
    SCOPED_TRACE(pin.profile);
    const auto& profile = workloads::find_profile(pin.profile);
    CampaignConfig dbc;
    dbc.target_faults = 24;
    dbc.warmup_rounds = 10'000;
    dbc.gap_rounds = 2'000;
    dbc.seed = 0x5EED;
    dbc.workload_iterations = profile.iterations * 2;
    dbc.shards = 2;
    dbc.threads = 2;
    dbc.mode = mode;
    dbc.engine = soc::Engine::kQuantumBounded;
    const CampaignStats stats = run_fault_campaign(profile, soc_config, dbc);
    EXPECT_EQ(stats.digest(), pin.dbc_digest);
    EXPECT_EQ(stats.total_instructions,
              fork ? pin.dbc_fork_instructions : pin.dbc_reexec_instructions);

    const VulnReport report = run_vuln_campaign(
        profile, soc_config, pinned_vuln(profile, mode, soc::Engine::kQuantumBounded));
    EXPECT_EQ(report.digest(), pin.vuln_digest);
    EXPECT_EQ(report.total_instructions,
              fork ? pin.vuln_fork_instructions : pin.vuln_reexec_instructions);
    EXPECT_GT(report.masked, 0u);
  }
}

TEST(CampaignRecords, ForkModeBoundedCampaignsMatchPinnedRecords) {
  expect_pinned_records(CampaignMode::kSnapshotFork);
}

TEST(CampaignRecords, ReexecutionBoundedCampaignsMatchPinnedRecords) {
  expect_pinned_records(CampaignMode::kWarmupReexecution);
}

/// The pinned whole-SoC campaigns' records under the other two engines, in
/// both modes. Where an advance() stops differs between kQuantum and
/// kStepwise, but in these campaigns not where any record does: both
/// engines classify every injection alike. Recorded before whole-SoC faults
/// were compared at a fixed main-core target, which moved neither digest.
TEST(CampaignRecords, WholeSocRecordsArePinnedUnderQuantumAndStepwise) {
  constexpr struct {
    const char* profile;
    u64 digest;
  } kPins[] = {{"swaptions", 0x0f970ae609362860ULL}, {"mcf", 0x33654aa18456e64eULL}};
  for (soc::Engine engine : {soc::Engine::kQuantum, soc::Engine::kStepwise}) {
    for (CampaignMode mode :
         {CampaignMode::kSnapshotFork, CampaignMode::kWarmupReexecution}) {
      for (const auto& pin : kPins) {
        SCOPED_TRACE(std::string(soc::engine_name(engine)) + " " + pin.profile);
        const auto& profile = workloads::find_profile(pin.profile);
        const VulnReport report =
            run_vuln_campaign(profile, soc::SocConfig::paper_default(2),
                              pinned_vuln(profile, mode, engine));
        EXPECT_EQ(report.digest(), pin.digest);
      }
    }
  }
}

TEST(VulnCampaign, DeterministicAcrossModesAndThreads) {
  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = soc::SocConfig::paper_default(2);
  auto config = small_vuln(14);
  config.threads = 1;
  const auto fork_serial = run_vuln_campaign(profile, soc_config, config);
  config.threads = 8;
  const auto fork_wide = run_vuln_campaign(profile, soc_config, config);
  config.mode = CampaignMode::kWarmupReexecution;
  const auto reexec = run_vuln_campaign(profile, soc_config, config);

  EXPECT_EQ(fork_serial.digest(), fork_wide.digest());
  EXPECT_EQ(fork_serial.digest(), reexec.digest());
  EXPECT_EQ(fork_serial.injected, 14u);
  // Re-execution simulates every warmup prefix again; fork restores them.
  EXPECT_GT(reexec.total_instructions, fork_serial.total_instructions);
}

TEST(VulnCampaign, ComponentCoverageCountsDetectionsOnly) {
  VulnReport report;
  InjectionRecord detected;
  detected.site.component = Component::kDbcEntry;
  detected.outcome = OutcomeKind::kDetected;
  detected.latency_us = 5.0;
  InjectionRecord masked;
  masked.site.component = Component::kMemory;
  report.add(detected);
  report.add(masked);
  report.check_invariant();
  EXPECT_DOUBLE_EQ(
      report.components[static_cast<std::size_t>(Component::kDbcEntry)]
          .coverage(),
      1.0);
  EXPECT_DOUBLE_EQ(
      report.components[static_cast<std::size_t>(Component::kMemory)]
          .coverage(),
      0.0);
}

// ---------------------------------------------------------------------------
// Config validation (FLEX_CHECK aborts with a usable message)
// ---------------------------------------------------------------------------

/// A distributed run's campaign directory, absent: a rejected config must
/// abort before it is created.
DistributedConfig rejected_dist() {
  DistributedConfig dist;
  dist.dir = "test_fault_rejected_campaign";
  std::error_code ec;
  std::filesystem::remove_all(dist.dir, ec);
  return dist;
}

TEST(CampaignValidationDeathTest, RejectsDegenerateConfigs) {
  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = soc::SocConfig::paper_default(2);
  const DistributedConfig dist = rejected_dist();
  // Rejected alike in process and across worker processes.
  const auto expect_rejected = [&](const CampaignConfig& config, const char* message) {
    EXPECT_DEATH(run_fault_campaign(profile, soc_config, config), message);
    EXPECT_DEATH(run_distributed_campaign(profile, soc_config, config, dist), message);
    EXPECT_FALSE(std::filesystem::exists(dist.dir));
  };
  auto no_shards = small_campaign(10);
  no_shards.shards = 0;
  expect_rejected(no_shards, "fault campaign: shards must be >= 1");
  auto no_faults = small_campaign(10);
  no_faults.target_faults = 0;
  expect_rejected(no_faults, "fault campaign: target_faults must be > 0");
  auto no_warmup = small_campaign(10);
  no_warmup.warmup_rounds = 0;
  expect_rejected(no_warmup, "fault campaign: warmup_rounds and gap_rounds must be nonzero");
  auto no_gap = small_campaign(10);
  no_gap.gap_rounds = 0;
  expect_rejected(no_gap, "fault campaign: warmup_rounds and gap_rounds must be nonzero");
  auto exhausted = small_campaign(10);
  exhausted.workload_iterations = 10;
  exhausted.warmup_rounds = 1'000'000'000;
  EXPECT_DEATH(run_fault_campaign(profile, soc_config, exhausted),
               "fault campaign: workload exhausts before warmup_rounds completes");
}

TEST(VulnValidationDeathTest, RejectsDegenerateConfigs) {
  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = soc::SocConfig::paper_default(2);
  const DistributedConfig dist = rejected_dist();
  const auto expect_rejected = [&](const VulnConfig& config, const char* message) {
    EXPECT_DEATH(run_vuln_campaign(profile, soc_config, config), message);
    EXPECT_DEATH(run_distributed_vuln_campaign(profile, soc_config, config, dist), message);
    EXPECT_FALSE(std::filesystem::exists(dist.dir));
  };
  // The main core runs horizon / 2 user instructions past each injection.
  for (u64 horizon : {0, 1}) {
    auto short_horizon = small_vuln(4);
    short_horizon.horizon = horizon;
    expect_rejected(short_horizon, "vuln campaign: horizon must be >= 2");
  }
  auto no_shards = small_vuln(4);
  no_shards.shards = 0;
  expect_rejected(no_shards, "vuln campaign: shards must be >= 1");
  auto no_faults = small_vuln(4);
  no_faults.target_faults = 0;
  expect_rejected(no_faults, "vuln campaign: target_faults must be > 0");
  auto no_warmup = small_vuln(4);
  no_warmup.warmup_rounds = 0;
  expect_rejected(no_warmup, "vuln campaign: warmup_rounds and gap_rounds must be nonzero");
  auto no_gap = small_vuln(4);
  no_gap.gap_rounds = 0;
  expect_rejected(no_gap, "vuln campaign: warmup_rounds and gap_rounds must be nonzero");
  auto exhausted = small_vuln(4);
  exhausted.workload_iterations = 10;
  exhausted.warmup_rounds = 1'000'000'000;
  EXPECT_DEATH(run_vuln_campaign(profile, soc_config, exhausted),
               "vuln campaign: workload exhausts before warmup_rounds completes");
}

}  // namespace
}  // namespace flexstep::fault
