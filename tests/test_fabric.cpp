// Fabric (system interconnect) tests: association, conflict waitlists,
// dissociation, channel reuse across preemptions.
#include <gtest/gtest.h>

#include "soc/soc.h"
#include "soc/verified_run.h"

namespace flexstep::fs {
namespace {

using soc::Soc;
using soc::SocConfig;

SocConfig small(u32 cores) {
  SocConfig config = SocConfig::paper_default(cores);
  config.flexstep.segment_limit = 50;
  return config;
}

TEST(Fabric, AssociateCreatesChannelAndBindsChecker) {
  Soc soc(small(3));
  soc.fabric().associate(0, 0b010);
  const auto channels = soc.fabric().channels();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels[0]->main_id(), 0u);
  EXPECT_EQ(channels[0]->checker_id(), 1u);
  EXPECT_EQ(soc.unit(0).out_channels().size(), 1u);
  EXPECT_EQ(soc.unit(1).in_channel(), channels[0]);
}

TEST(Fabric, OneToTwoAssociation) {
  Soc soc(small(3));
  soc.fabric().associate(0, 0b110);  // checkers 1 and 2 (TCLS-like)
  EXPECT_EQ(soc.fabric().channels().size(), 2u);
  EXPECT_EQ(soc.unit(0).out_channels().size(), 2u);
  EXPECT_NE(soc.unit(1).in_channel(), nullptr);
  EXPECT_NE(soc.unit(2).in_channel(), nullptr);
}

TEST(Fabric, ReassociationReusesOpenChannel) {
  Soc soc(small(3));
  soc.fabric().associate(0, 0b010);
  Channel* first = soc.fabric().channels().front();
  // Alg. 1 re-associates on every context switch; the open channel persists.
  soc.fabric().associate(0, 0b010);
  ASSERT_EQ(soc.fabric().channels().size(), 1u);
  EXPECT_EQ(soc.unit(0).out_channels().front(), first);
}

TEST(Fabric, DissociateClosesAndFreshAssociateCreatesNew) {
  Soc soc(small(3));
  soc.fabric().associate(0, 0b010);
  Channel* first = soc.fabric().channels().front();
  soc.fabric().dissociate(0);
  EXPECT_TRUE(first->closed());
  EXPECT_TRUE(soc.unit(0).out_channels().empty());
  // Next verification job gets a fresh channel.
  soc.fabric().associate(0, 0b010);
  ASSERT_EQ(soc.fabric().channels().size(), 2u);
  EXPECT_NE(soc.unit(0).out_channels().front(), first);
}

TEST(Fabric, ConflictingMainsWaitlistOnBusyChecker) {
  // Paper Sec. III-C: when two main cores compete for a checker, one buffers
  // in its own FIFO until the checker is released.
  Soc soc(small(3));
  soc.fabric().associate(0, 0b100);  // main 0 -> checker 2
  soc.fabric().associate(1, 0b100);  // main 1 -> checker 2 (busy)
  const auto channels = soc.fabric().channels();
  ASSERT_EQ(channels.size(), 2u);
  EXPECT_EQ(soc.unit(2).in_channel(), channels[0]);  // serving main 0
  // Main 1's channel exists and accepts pushes (its own buffering).
  EXPECT_EQ(soc.unit(1).out_channels().size(), 1u);
  EXPECT_TRUE(soc.unit(1).out_channels().front()->producer_can_push(2));

  // When main 0's stream drains and closes, the checker picks up main 1.
  soc.fabric().dissociate(0);
  soc.fabric().pump_assignments();
  EXPECT_EQ(soc.unit(2).in_channel(), channels[1]);
  EXPECT_EQ(soc.unit(2).in_channel()->main_id(), 1u);
}

TEST(Fabric, PumpKeepsBusyCheckerAttached) {
  Soc soc(small(3));
  soc.fabric().associate(0, 0b100);
  soc.fabric().associate(1, 0b100);
  // Main 0 still open: pump must not steal the checker.
  soc.fabric().pump_assignments();
  EXPECT_EQ(soc.unit(2).in_channel()->main_id(), 0u);
}

TEST(Fabric, WaitlistDepthTracksParkedChannels) {
  Soc soc(small(4));
  EXPECT_EQ(soc.fabric().waitlist_depth(3), 0u);
  soc.fabric().associate(0, 0b1000);  // main 0 -> checker 3 (attached)
  EXPECT_EQ(soc.fabric().waitlist_depth(3), 0u);
  soc.fabric().associate(1, 0b1000);  // parked
  soc.fabric().associate(2, 0b1000);  // parked
  EXPECT_EQ(soc.fabric().waitlist_depth(3), 2u);
  soc.fabric().dissociate(0);
  soc.fabric().pump_assignments();
  EXPECT_EQ(soc.fabric().waitlist_depth(3), 1u);
}

TEST(Fabric, HandoffEventsRecordArbitrationDecisions) {
  Soc soc(small(4));
  soc.fabric().associate(0, 0b1000);
  soc.fabric().associate(1, 0b1000);
  soc.fabric().associate(2, 0b1000);
  EXPECT_TRUE(soc.fabric().handoff_events().empty());  // attach != handoff

  soc.fabric().dissociate(0);
  soc.fabric().pump_assignments();
  soc.fabric().dissociate(1);
  soc.fabric().pump_assignments();

  const auto& handoffs = soc.fabric().handoff_events();
  ASSERT_EQ(handoffs.size(), 2u);
  EXPECT_EQ(handoffs[0].checker, 3u);
  EXPECT_EQ(handoffs[0].from_main, 0u);
  EXPECT_EQ(handoffs[0].to_main, 1u);
  EXPECT_EQ(handoffs[1].checker, 3u);
  EXPECT_EQ(handoffs[1].from_main, 1u);
  EXPECT_EQ(handoffs[1].to_main, 2u);
}

TEST(Fabric, SequentialVerifiedRunsOnSharedChecker) {
  // End-to-end: two mains verified by the same checker, one after another.
  Soc soc(small(3));
  isa::Assembler a0(0x10000);
  a0.li(10, 0x200000);
  a0.li(5, 60);
  auto l0 = a0.new_label();
  a0.bind(l0);
  a0.sd(5, 10, 0);
  a0.ld(6, 10, 0);
  a0.addi(5, 5, -1);
  a0.bne(5, 0, l0);
  a0.halt();
  const auto prog0 = a0.finalize("m0", 0x200000, 4096);

  soc::VerifiedExecution exec0(soc, soc::VerifiedRunConfig{.roles = {{0, {2}}}});
  exec0.prepare({prog0});
  const auto stats0 = exec0.run();
  EXPECT_EQ(stats0.segments_failed, 0u);
  EXPECT_GT(stats0.segments_verified, 0u);

  // Second main reuses the (now released) checker.
  isa::Assembler a1(0x40000);
  a1.li(10, 0x300000);
  a1.li(5, 40);
  auto l1 = a1.new_label();
  a1.bind(l1);
  a1.sd(5, 10, 8);
  a1.addi(5, 5, -1);
  a1.bne(5, 0, l1);
  a1.halt();
  const auto prog1 = a1.finalize("m1", 0x300000, 4096);

  soc::VerifiedExecution exec1(soc, soc::VerifiedRunConfig{.roles = {{1, {2}}}});
  exec1.prepare({prog1});
  const auto stats1 = exec1.run();
  EXPECT_EQ(stats1.segments_failed, 0u);
  EXPECT_GT(stats1.segments_verified, 0u);
  EXPECT_EQ(soc.fabric().reporter().detections(), 0u);
}

TEST(GlobalConfigDeath, RejectsOverlappingMasks) {
  GlobalConfig config;
  EXPECT_DEATH(config.configure(0b011, 0b010), "main and checker");
}

TEST(FabricDeath, SelfCheckingRejected) {
  Soc soc(small(2));
  EXPECT_DEATH(soc.fabric().associate(0, 0b001), "cannot check itself");
}

}  // namespace
}  // namespace flexstep::fs
