// ISA tests: encode/decode round trips (parameterized over every opcode),
// assembler label resolution, li materialisation, disassembly.
#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/disasm.h"
#include "isa/instruction.h"

namespace flexstep::isa {
namespace {

class EncodeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EncodeRoundTrip, AllOpcodesSurviveEncodeDecode) {
  const auto op = static_cast<Opcode>(GetParam());
  Instruction inst;
  inst.op = op;
  switch (opcode_format(op)) {
    case Format::kR:
      inst = make_r(op, 3, 14, 29);
      break;
    case Format::kI:
      inst = make_i(op, 7, 12, -1234);
      break;
    case Format::kS:
      inst = make_s(op, 9, 11, 4088);
      break;
    case Format::kB:
      inst = make_b(op, 4, 5, -64);
      break;
    case Format::kUJ:
      inst = make_uj(op, 1, op == Opcode::kJal ? 4096 : -777);
      break;
    case Format::kC:
      inst = make_c(op);
      break;
  }
  const u32 word = encode(inst);
  const auto decoded = decode(word);
  ASSERT_TRUE(decoded.has_value()) << opcode_name(op);
  EXPECT_EQ(*decoded, inst) << opcode_name(op);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodeRoundTrip,
                         ::testing::Range(0, static_cast<int>(kOpcodeCount)));

TEST(Decode, RejectsUnknownOpcodeByte) {
  const u32 word = 0xFFu << 24;
  EXPECT_FALSE(decode(word).has_value());
}

TEST(Decode, RejectsReservedBitsInRFormat) {
  u32 word = encode(make_r(Opcode::kAdd, 1, 2, 3));
  word |= 0x1;  // reserved low bits must be zero
  EXPECT_FALSE(decode(word).has_value());
}

TEST(Decode, RejectsPayloadInCFormat) {
  u32 word = encode(make_c(Opcode::kEcall));
  word |= 0x40;
  EXPECT_FALSE(decode(word).has_value());
}

TEST(Encode, ImmediateBoundaries) {
  EXPECT_NO_FATAL_FAILURE(encode(make_i(Opcode::kAddi, 1, 0, kImm14Max)));
  EXPECT_NO_FATAL_FAILURE(encode(make_i(Opcode::kAddi, 1, 0, kImm14Min)));
  const auto hi = decode(encode(make_i(Opcode::kAddi, 1, 0, kImm14Max)));
  EXPECT_EQ(hi->imm, kImm14Max);
  const auto lo = decode(encode(make_i(Opcode::kAddi, 1, 0, kImm14Min)));
  EXPECT_EQ(lo->imm, kImm14Min);
}

TEST(OpcodeProperties, MemoryClassification) {
  EXPECT_TRUE(is_memory(Opcode::kLd));
  EXPECT_TRUE(is_memory(Opcode::kScD));
  EXPECT_TRUE(is_memory(Opcode::kAmoswapD));
  EXPECT_FALSE(is_memory(Opcode::kAdd));
}

TEST(OpcodeProperties, AccessWidths) {
  EXPECT_EQ(mem_access_bytes(Opcode::kLb), 1u);
  EXPECT_EQ(mem_access_bytes(Opcode::kLh), 2u);
  EXPECT_EQ(mem_access_bytes(Opcode::kLw), 4u);
  EXPECT_EQ(mem_access_bytes(Opcode::kLd), 8u);
  EXPECT_EQ(mem_access_bytes(Opcode::kAmoaddD), 8u);
  EXPECT_EQ(mem_access_bytes(Opcode::kAdd), 0u);
}

TEST(OpcodeProperties, FlexStepCustomRange) {
  EXPECT_TRUE(is_flexstep_custom(Opcode::kGIdsContain));
  EXPECT_TRUE(is_flexstep_custom(Opcode::kCResult));
  EXPECT_FALSE(is_flexstep_custom(Opcode::kEcall));
  EXPECT_FALSE(is_flexstep_custom(Opcode::kAdd));
}

TEST(Assembler, ForwardAndBackwardLabels) {
  Assembler a(0x1000);
  auto top = a.new_label();
  auto end = a.new_label();
  a.bind(top);
  a.addi(1, 1, 1);
  a.beq(1, 2, end);     // forward
  a.jal(0, top);        // backward
  a.bind(end);
  a.halt();
  const auto prog = a.finalize("labels");
  // beq at index 1, target index 3: offset (3-1)*4 = 8.
  EXPECT_EQ(prog.code[1].imm, 8);
  // jal at index 2, target index 0: offset -8.
  EXPECT_EQ(prog.code[2].imm, -8);
}

TEST(Assembler, HereTracksAddresses) {
  Assembler a(0x2000);
  EXPECT_EQ(a.here(), 0x2000u);
  a.nop();
  a.nop();
  EXPECT_EQ(a.here(), 0x2008u);
}

TEST(Assembler, ProgramEncodesFully) {
  Assembler a;
  a.li(5, 123456789);
  a.halt();
  const auto prog = a.finalize("enc");
  const auto words = prog.encode_all();
  EXPECT_EQ(words.size(), prog.code.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    const auto decoded = decode(words[i]);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, prog.code[i]);
  }
}

TEST(Disasm, FormatsRepresentatives) {
  EXPECT_EQ(disasm(make_r(Opcode::kAdd, 3, 1, 2)), "add            x3, x1, x2");
  const std::string load = disasm(make_i(Opcode::kLd, 5, 10, 16));
  EXPECT_NE(load.find("ld"), std::string::npos);
  EXPECT_NE(load.find("x5"), std::string::npos);
  const std::string store = disasm(make_s(Opcode::kSd, 5, 10, 8));
  EXPECT_NE(store.find("8(x10)"), std::string::npos);
}

TEST(EncodeDeath, RejectsOutOfRangeImmediate) {
  EXPECT_DEATH(encode(make_i(Opcode::kAddi, 1, 0, kImm14Max + 1)), "imm14");
  EXPECT_DEATH(encode(make_i(Opcode::kAddi, 1, 0, kImm14Min - 1)), "imm14");
}

TEST(EncodeDeath, RejectsMisalignedBranchOffset) {
  EXPECT_DEATH(encode(make_b(Opcode::kBeq, 1, 2, 6)), "aligned");
}

TEST(AssemblerDeath, UnboundLabelRejectedAtFinalize) {
  Assembler a;
  auto dangling = a.new_label();
  a.beq(1, 2, dangling);
  EXPECT_DEATH(a.finalize("dangling"), "unbound label");
}

TEST(AssemblerDeath, DoubleBindRejected) {
  Assembler a;
  auto label = a.new_label();
  a.bind(label);
  EXPECT_DEATH(a.bind(label), "already bound");
}

TEST(Disasm, FlexStepCustomMnemonics) {
  EXPECT_NE(disasm(make_c(Opcode::kCApply)).find("c.apply"), std::string::npos);
  EXPECT_NE(disasm(make_c(Opcode::kCJal)).find("c.jal"), std::string::npos);
  EXPECT_NE(disasm(make_r(Opcode::kGIdsContain, 1, 2, 0)).find("g.ids.contain"),
            std::string::npos);
}

TEST(Disasm, ProgramListingHasAddresses) {
  Assembler a(0x1000);
  a.nop();
  a.halt();
  const auto prog = a.finalize("listing");
  const std::string text = disasm(prog);
  EXPECT_NE(text.find("00001000"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace flexstep::isa
