// FlexStep end-to-end mechanism tests on a 2-4 core SoC: checking segments,
// asynchronous replay, ECP verification, multi-uop logging, custom ISA,
// global configuration.
#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "soc/soc.h"
#include "soc/verified_run.h"

namespace flexstep {
namespace {

using fs::CoreAttr;
using isa::Assembler;
using isa::Opcode;
using soc::Soc;
using soc::SocConfig;
using soc::VerifiedExecution;
using soc::VerifiedRunConfig;

SocConfig test_config(u32 cores = 2, u32 segment_limit = 50) {
  SocConfig config = SocConfig::paper_default(cores);
  config.flexstep.segment_limit = segment_limit;
  return config;
}

/// A small self-checking compute/memory loop.
isa::Program small_program(u32 iterations = 40) {
  Assembler a;
  a.li(10, 0x200000);  // data base
  a.li(5, iterations);
  a.li(6, 0x1234);
  a.li(14, 1);
  auto loop = a.new_label();
  a.bind(loop);
  a.mul(6, 6, 14);
  a.addi(6, 6, 37);
  a.andi(7, 6, 0xFF8);
  a.add(7, 10, 7);
  a.sd(6, 7, 0);
  a.ld(8, 7, 0);
  a.add(14, 14, 8);
  a.amoadd_d(9, 10, 14);
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();
  return a.finalize("small");
}

TEST(FlexStep, GlobalConfigAttributes) {
  fs::GlobalConfig g;
  g.configure(0b0001, 0b0010);
  EXPECT_EQ(g.attr_of(0), CoreAttr::kMain);
  EXPECT_EQ(g.attr_of(1), CoreAttr::kChecker);
  EXPECT_EQ(g.attr_of(2), CoreAttr::kCompute);
}

TEST(FlexStep, CustomIsaConfigureAndQuery) {
  Soc soc(test_config(3));
  arch::Core& core = soc.core(0);
  core.set_user_mode(false);
  core.set_reg(5, 0b001);
  core.set_reg(6, 0b110);
  core.exec_kernel_instruction(isa::make_r(Opcode::kGConfigure, 0, 5, 6));
  // G.IDs.contain: query each core's attribute through the ISA.
  core.set_reg(7, 0);
  EXPECT_EQ(core.exec_kernel_instruction(isa::make_r(Opcode::kGIdsContain, 8, 7, 0)),
            static_cast<u64>(CoreAttr::kMain));
  core.set_reg(7, 1);
  EXPECT_EQ(core.exec_kernel_instruction(isa::make_r(Opcode::kGIdsContain, 8, 7, 0)),
            static_cast<u64>(CoreAttr::kChecker));
  EXPECT_EQ(core.reg(8), static_cast<u64>(CoreAttr::kChecker));  // rd written
}

TEST(FlexStep, UnverifiedRunMatchesPlainExecution) {
  Soc soc(test_config());
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {}}}});
  exec.prepare({small_program()});
  const auto stats = exec.run();
  EXPECT_GT(stats.main_instructions, 100u);
  EXPECT_EQ(stats.segments_produced, 0u);
  EXPECT_EQ(soc.core(0).status(), arch::Core::Status::kHalted);
}

TEST(FlexStep, DualCoreVerificationCleanRun) {
  Soc soc(test_config());
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({small_program()});
  const auto stats = exec.run();

  EXPECT_GT(stats.segments_produced, 2u);
  EXPECT_EQ(stats.segments_verified, stats.segments_produced);
  EXPECT_EQ(stats.segments_failed, 0u);
  EXPECT_EQ(soc.fabric().reporter().detections(), 0u);  // no false positives
  // All channels fully drained.
  for (const fs::Channel* ch : soc.fabric().channels()) {
    EXPECT_TRUE(ch->drained());
  }
}

TEST(FlexStep, VerificationCoversEveryUserInstruction) {
  Soc soc(test_config());
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({small_program()});
  exec.run();
  // The checker replayed exactly the main core's user-mode instructions.
  EXPECT_EQ(soc.unit(1).replayed_instructions(), soc.core(0).user_instret());
}

TEST(FlexStep, TripleCoreVerificationBothCheckersVerify) {
  Soc soc(test_config(3));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1, 2}}}});
  exec.prepare({small_program()});
  const auto stats = exec.run();
  EXPECT_EQ(soc.unit(1).segments_verified(), stats.segments_produced);
  EXPECT_EQ(soc.unit(2).segments_verified(), stats.segments_produced);
  EXPECT_EQ(stats.segments_failed, 0u);
}

TEST(FlexStep, SegmentLimitBoundsSegmentSize) {
  Soc soc(test_config(2, 100));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({small_program(100)});
  const auto stats = exec.run();
  const u64 user_insts = soc.core(0).user_instret();
  // Segments of <= 100 instructions: at least user/100 segments.
  EXPECT_GE(stats.segments_produced, user_insts / 100);
}

TEST(FlexStep, EcallSplitsSegments) {
  // A program with frequent ecalls produces more (shorter) segments than the
  // instruction-count limit alone would.
  Assembler a;
  a.li(5, 30);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(6, 6, 1);
  a.ecall();
  a.addi(5, 5, -1);
  a.bne(5, 0, loop);
  a.halt();

  Soc soc(test_config(2, 5000));
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({a.finalize("ecalls")});
  const auto stats = exec.run();
  EXPECT_GE(stats.segments_produced, 30u);  // one boundary per kernel entry
  EXPECT_EQ(stats.segments_failed, 0u);
  EXPECT_EQ(stats.segments_verified, stats.segments_produced);
}

TEST(FlexStep, MultiUopInstructionsProduceMultipleEntries) {
  Assembler a;
  a.li(10, 0x200000);
  a.li(1, 7);
  a.amoadd_d(2, 10, 1);  // 2 entries
  a.lr_d(3, 10);         // 1 entry
  a.sc_d(4, 10, 1);      // flag + store = 2 entries
  a.sd(1, 10, 8);        // 1 entry
  a.ld(5, 10, 8);        // 1 entry
  a.halt();

  Soc soc(test_config());
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({a.finalize("multiuop")});
  const auto stats = exec.run();
  EXPECT_EQ(stats.mem_entries, 7u);
  EXPECT_EQ(stats.segments_failed, 0u);
}

TEST(FlexStep, FailedScProducesFlagOnly) {
  Assembler a;
  a.li(10, 0x200000);
  a.li(1, 7);
  a.sc_d(4, 10, 1);  // no reservation: fails -> flag entry only
  a.halt();
  Soc soc(test_config());
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({a.finalize("scfail")});
  const auto stats = exec.run();
  EXPECT_EQ(stats.mem_entries, 1u);
  EXPECT_EQ(stats.segments_failed, 0u);
}

TEST(FlexStep, BackpressureThrottlesMainWithTinyChannel) {
  SocConfig config = test_config(2, 50);
  config.flexstep.channel_capacity = 64;
  Soc soc(config);
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({small_program(200)});
  const auto stats = exec.run();
  EXPECT_EQ(stats.segments_failed, 0u);
  EXPECT_LE(stats.max_channel_occupancy, 64u + 4u);  // soft cap + overshoot
}

TEST(FlexStep, CheckerLagBoundedByChannelCapacity) {
  SocConfig config = test_config(2, 50);
  config.flexstep.channel_capacity = 256;
  Soc soc(config);
  VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
  exec.prepare({small_program(300)});
  const auto stats = exec.run();
  EXPECT_LE(stats.max_channel_occupancy, 256u + 4u);
  // Completion (detection done) trails the main core's finish.
  EXPECT_GE(stats.completion_cycles, stats.main_cycles);
}

TEST(FlexStep, SlowdownIsSmall) {
  // The same program with and without verification: FlexStep's slowdown
  // should be in the low single digits of percent (paper: ~1%).
  const auto program = small_program(400);
  Cycle plain = 0;
  Cycle verified = 0;
  {
    Soc soc(test_config(2, 5000));
    VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {}}}});
    exec.prepare({program});
    plain = exec.run().main_cycles;
  }
  {
    Soc soc(test_config(2, 5000));
    VerifiedExecution exec(soc, VerifiedRunConfig{.roles = {{0, {1}}}});
    exec.prepare({program});
    verified = exec.run().main_cycles;
  }
  const double slowdown = static_cast<double>(verified) / plain;
  EXPECT_GE(slowdown, 1.0);
  EXPECT_LT(slowdown, 1.10);
}

TEST(FlexStep, ReplayContextExtractAdoptRoundTrip) {
  Soc soc(test_config());
  fs::CoreUnit& unit = soc.unit(1);
  auto ctx = unit.extract_replay_context();
  EXPECT_FALSE(ctx.active);
  ctx.replayed = 17;
  ctx.expected_ic = 50;
  ctx.active = true;
  unit.adopt_replay_context(ctx);
  EXPECT_TRUE(unit.replay_suspended());
  const auto back = unit.extract_replay_context();
  EXPECT_TRUE(back.active);
  EXPECT_EQ(back.replayed, 17u);
  EXPECT_EQ(back.expected_ic, 50u);
  EXPECT_FALSE(unit.replay_suspended());
}

}  // namespace
}  // namespace flexstep
