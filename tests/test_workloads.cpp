// Workload generator tests: profile coverage, determinism, mix realisation,
// and the Nzdc transformation's semantic equivalence.
#include <gtest/gtest.h>

#include <map>

#include "arch/core.h"
#include "arch/memory.h"
#include "arch/program_image.h"
#include "workloads/nzdc.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep::workloads {
namespace {

arch::ArchState run_to_halt(const isa::Program& program, u64 max_insts = 20'000'000) {
  arch::Memory memory;
  arch::ImageRegistry images;
  images.load(memory, program);
  arch::Core core(0, arch::CoreConfig{}, memory, images, nullptr);
  core.set_pc(program.entry());
  core.run(max_insts);
  EXPECT_EQ(core.status(), arch::Core::Status::kHalted);
  return core.capture_state();
}

BuildOptions tiny(u32 iterations = 3, u64 seed = 1) {
  BuildOptions options;
  options.iterations_override = iterations;
  options.seed = seed;
  return options;
}

TEST(Profiles, SuitesHaveThePaperCounts) {
  EXPECT_EQ(parsec_profiles().size(), 8u);   // Fig. 4(a)
  EXPECT_EQ(specint_profiles().size(), 11u); // Fig. 4(b)
}

TEST(Profiles, NzdcBuildFailuresMatchThePaper) {
  // Paper Sec. VI-A: nZDC fails to compile bodytrack, ferret and gcc.
  EXPECT_FALSE(find_profile("bodytrack").nzdc_compiles);
  EXPECT_FALSE(find_profile("ferret").nzdc_compiles);
  EXPECT_FALSE(find_profile("gcc").nzdc_compiles);
  EXPECT_TRUE(find_profile("blackscholes").nzdc_compiles);
  EXPECT_TRUE(find_profile("mcf").nzdc_compiles);
}

TEST(Profiles, MixFractionsAreSane) {
  for (const auto& profiles : {parsec_profiles(), specint_profiles()}) {
    for (const auto& p : profiles) {
      const double sum =
          p.f_load + p.f_store + p.f_branch + p.f_mul + p.f_div + p.f_amo;
      EXPECT_LT(sum, 0.9) << p.name;
      EXPECT_GT(p.f_load, 0.0) << p.name;
    }
  }
}

TEST(Builder, DeterministicForSeed) {
  const auto& profile = find_profile("bzip2");
  const auto a = build_workload(profile, tiny(3, 7));
  const auto b = build_workload(profile, tiny(3, 7));
  ASSERT_EQ(a.code.size(), b.code.size());
  EXPECT_EQ(a.code, b.code);
}

TEST(Builder, DifferentSeedsDiffer) {
  const auto& profile = find_profile("bzip2");
  const auto a = build_workload(profile, tiny(3, 7));
  const auto b = build_workload(profile, tiny(3, 8));
  EXPECT_NE(a.code, b.code);
}

TEST(Builder, ProgramsHaltAndProduceState) {
  for (const char* name : {"blackscholes", "dedup", "mcf", "gobmk"}) {
    const auto program = build_workload(find_profile(name), tiny());
    const auto state = run_to_halt(program);
    // Accumulators hold nontrivial values.
    EXPECT_NE(state.regs[14] | state.regs[15] | state.regs[3], 0u) << name;
  }
}

TEST(Builder, RegistersStayWithinNzdcRange) {
  for (const auto& p : parsec_profiles()) {
    const auto program = build_workload(p, tiny());
    for (const auto& inst : program.code) {
      EXPECT_LT(inst.rd, 16) << p.name;
      EXPECT_LT(inst.rs1, 16) << p.name;
      EXPECT_LT(inst.rs2, 16) << p.name;
    }
  }
}

TEST(Builder, RealisesTheInstructionMix) {
  const auto& profile = find_profile("sjeng");
  const auto program = build_workload(profile, tiny(1));
  std::map<isa::MemKind, u32> kinds;
  u32 branches = 0;
  for (const auto& inst : program.code) {
    ++kinds[isa::opcode_mem_kind(inst.op)];
    branches += isa::is_cond_branch(inst.op);
  }
  const double n = static_cast<double>(program.code.size());
  // Each load slot expands to 3-4 instructions (address + load + consume), so
  // the per-instruction load fraction sits between f_load/4 and f_load.
  EXPECT_GT(kinds[isa::MemKind::kLoad] / n, profile.f_load / 4.0);
  EXPECT_LT(kinds[isa::MemKind::kLoad] / n, profile.f_load);
  EXPECT_GT(branches / n, profile.f_branch * 0.5);
}

// ---- Nzdc transformation ----

TEST(Nzdc, ShadowMapping) {
  EXPECT_EQ(nzdc_shadow(3), 18);
  EXPECT_EQ(nzdc_shadow(15), 30);
  EXPECT_EQ(nzdc_shadow(0), 0);
}

TEST(Nzdc, RejectsProgramsUsingShadowRegisters) {
  isa::Assembler a;
  a.addi(20, 0, 1);  // x20 is shadow space
  a.halt();
  EXPECT_FALSE(nzdc_supported(a.finalize("bad")));
}

TEST(Nzdc, ExpansionFactorInRange) {
  const auto program = build_workload(find_profile("swaptions"), tiny(2));
  const auto transformed = nzdc_transform(program);
  const double factor =
      static_cast<double>(transformed.code.size()) / program.code.size();
  EXPECT_GT(factor, 1.4);
  EXPECT_LT(factor, 2.6);
}

class NzdcEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(NzdcEquivalence, TransformedProgramComputesIdenticalResults) {
  const auto& profile = find_profile(GetParam());
  if (!profile.nzdc_compiles) GTEST_SKIP();
  const auto program = build_workload(profile, tiny(3));
  const auto transformed = nzdc_transform(program);

  const auto original_state = run_to_halt(program);
  const auto nzdc_state = run_to_halt(transformed);
  // All original computational registers (x3..x15) must match, and every
  // shadow must equal its master (no divergence, no false errors).
  for (u8 r = 3; r <= 15; ++r) {
    EXPECT_EQ(nzdc_state.regs[r], original_state.regs[r]) << "x" << int(r);
    EXPECT_EQ(nzdc_state.regs[nzdc_shadow(r)], nzdc_state.regs[r])
        << "shadow of x" << int(r);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, NzdcEquivalence,
                         ::testing::Values("blackscholes", "dedup", "swaptions",
                                           "bzip2", "mcf", "hmmer", "libquantum",
                                           "streamcluster"));

TEST(Nzdc, ErrorHandlerUnreachableInFaultFreeRun) {
  // The transformed program ends with the error handler (halt); a fault-free
  // run must halt at the *program's* halt, i.e. execute every iteration.
  const auto program = build_workload(find_profile("hmmer"), tiny(2));
  const auto transformed = nzdc_transform(program);

  arch::Memory memory;
  arch::ImageRegistry images;
  images.load(memory, transformed);
  arch::Core core(0, arch::CoreConfig{}, memory, images, nullptr);
  core.set_pc(transformed.entry());
  core.run(20'000'000);
  EXPECT_EQ(core.status(), arch::Core::Status::kHalted);
  // The error handler is the final instruction; halting there would leave
  // pc at the last slot. The normal halt sits earlier.
  const Addr error_handler_pc = transformed.code_base + (transformed.code.size() - 1) * 4;
  EXPECT_NE(core.pc(), error_handler_pc);
}

}  // namespace
}  // namespace flexstep::workloads
