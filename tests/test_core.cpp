// Core execution tests: ISA semantics, branches, memory, traps, timers.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.h"
#include "arch/memory.h"
#include "arch/program_image.h"
#include "arch/trace.h"
#include "isa/assembler.h"
#include "isa/csr.h"
#include "sim/scenario.h"

namespace flexstep::arch {
namespace {

using isa::Assembler;
using isa::Opcode;

class CoreTest : public ::testing::Test {
 protected:
  Core& make_core() {
    core_ = std::make_unique<Core>(0, CoreConfig{}, memory_, images_, nullptr);
    return *core_;
  }

  Core& run_program(Assembler& a, u64 max_insts = 100000) {
    program_ = a.finalize("test");
    images_.load(memory_, program_);
    Core& core = make_core();
    core.set_pc(program_.entry());
    core.run(max_insts);
    return core;
  }

  Memory memory_;
  ImageRegistry images_;
  isa::Program program_;
  std::unique_ptr<Core> core_;
};

TEST_F(CoreTest, ArithmeticBasics) {
  Assembler a;
  a.li(1, 20);
  a.li(2, 22);
  a.add(3, 1, 2);
  a.sub(4, 1, 2);
  a.mul(5, 1, 2);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(3), 42u);
  EXPECT_EQ(core.reg(4), static_cast<u64>(-2));
  EXPECT_EQ(core.reg(5), 440u);
  EXPECT_EQ(core.status(), Core::Status::kHalted);
}

TEST_F(CoreTest, X0IsHardwiredZero) {
  Assembler a;
  a.li(1, 7);
  a.add(0, 1, 1);  // write to x0 discarded
  a.add(2, 0, 0);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(0), 0u);
  EXPECT_EQ(core.reg(2), 0u);
}

TEST_F(CoreTest, DivisionSemantics) {
  Assembler a;
  a.li(1, -100);
  a.li(2, 7);
  a.div(3, 1, 2);   // -14
  a.rem(4, 1, 2);   // -2
  a.li(5, 0);
  a.div(6, 1, 5);   // div by zero -> all ones
  a.rem(7, 1, 5);   // rem by zero -> dividend
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(static_cast<i64>(core.reg(3)), -14);
  EXPECT_EQ(static_cast<i64>(core.reg(4)), -2);
  EXPECT_EQ(core.reg(6), ~u64{0});
  EXPECT_EQ(static_cast<i64>(core.reg(7)), -100);
}

TEST_F(CoreTest, ShiftsAndCompares) {
  Assembler a;
  a.li(1, -8);
  a.srai(2, 1, 1);    // -4 arithmetic
  a.srli(3, 1, 60);   // logical: top bits shift in zeros
  a.li(4, 3);
  a.slt(5, 1, 4);     // -8 < 3 signed -> 1
  a.sltu(6, 1, 4);    // huge unsigned < 3 -> 0
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(static_cast<i64>(core.reg(2)), -4);
  EXPECT_EQ(core.reg(3), 0xFu);
  EXPECT_EQ(core.reg(5), 1u);
  EXPECT_EQ(core.reg(6), 0u);
}

class LiMaterialisation : public CoreTest,
                          public ::testing::WithParamInterface<i64> {};

TEST_P(LiMaterialisation, LoadsExactValue) {
  Assembler a;
  a.li(1, GetParam());
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(static_cast<i64>(core.reg(1)), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, LiMaterialisation,
    ::testing::Values(0, 1, -1, 8191, -8192, 8192, 65536, -65536, 1103515245,
                      -2147483648LL, 2147483647LL, 0x123456789ABCDEFLL,
                      -0x123456789ABCDEFLL, INT64_MAX, INT64_MIN));

TEST_F(CoreTest, LoadStoreRoundTrip) {
  Assembler a;
  a.li(10, 0x20000);
  a.li(1, 0x1122334455667788LL);
  a.sd(1, 10, 0);
  a.ld(2, 10, 0);
  a.lw(3, 10, 0);   // sign-extended low word
  a.lb(4, 10, 7);   // high byte 0x11
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(2), 0x1122334455667788u);
  EXPECT_EQ(core.reg(3), 0x55667788u);
  EXPECT_EQ(core.reg(4), 0x11u);
}

TEST_F(CoreTest, SignExtensionOnLoads) {
  Assembler a;
  a.li(10, 0x20000);
  a.li(1, -1);
  a.sw(1, 10, 0);
  a.lw(2, 10, 0);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(2), ~u64{0});
}

TEST_F(CoreTest, BranchLoopExecutes) {
  Assembler a;
  a.li(1, 0);
  a.li(2, 10);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(1, 1, 1);
  a.bne(1, 2, loop);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(1), 10u);
}

TEST_F(CoreTest, JalLinksReturnAddress) {
  Assembler a;           // 0x10000 base
  auto target = a.new_label();
  a.jal(1, target);      // at 0x10000; link = 0x10004
  a.nop();
  a.bind(target);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(1), 0x10004u);
}

TEST_F(CoreTest, JalrComputedTarget) {
  Assembler a;
  a.li(1, 0x10010);  // address of the halt below (4 insts li + this + jalr)
  a.jalr(2, 1, 0);
  a.nop();           // skipped
  a.nop();
  a.halt();
  isa::Program p = a.finalize("jalr");
  // Fix the li to point at the halt (index size-1).
  // Rebuild with exact address:
  Assembler b;
  const Addr halt_addr = isa::kDefaultCodeBase + (p.code.size() - 1) * 4;
  b.li(1, static_cast<i64>(halt_addr));
  b.jalr(2, 1, 0);
  b.nop();
  b.nop();
  b.halt();
  program_ = b.finalize("jalr2");
  images_.load(memory_, program_);
  Core& core = make_core();
  core.set_pc(program_.entry());
  core.run(100);
  EXPECT_EQ(core.status(), Core::Status::kHalted);
  EXPECT_EQ(core.instret(), 4u);  // li(2 insts) + jalr + halt
}

TEST_F(CoreTest, AmoAndLrSc) {
  Assembler a;
  a.li(10, 0x30000);
  a.li(1, 5);
  a.sd(1, 10, 0);
  a.li(2, 3);
  a.amoadd_d(3, 10, 2);   // old = 5, mem = 8
  a.ld(4, 10, 0);
  a.lr_d(5, 10);          // 8
  a.addi(6, 5, 1);        // 9
  a.sc_d(7, 10, 6);       // success -> 0, mem = 9
  a.ld(8, 10, 0);
  a.sc_d(9, 10, 6);       // no reservation -> fail = 1
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(3), 5u);
  EXPECT_EQ(core.reg(4), 8u);
  EXPECT_EQ(core.reg(5), 8u);
  EXPECT_EQ(core.reg(7), 0u);
  EXPECT_EQ(core.reg(8), 9u);
  EXPECT_EQ(core.reg(9), 1u);
}

TEST_F(CoreTest, DivisionCornerCasesWrapLikeRv64) {
  // INT64_MIN / -1 must wrap to INT64_MIN (remainder 0) and x / 0 must give
  // all-ones (remainder x) — the naive host division is UB / SIGFPE.
  Assembler a;
  a.li(1, 1);
  a.slli(1, 1, 63);   // x1 = INT64_MIN
  a.li(2, -1);
  a.div(3, 1, 2);
  a.rem(4, 1, 2);
  a.div(5, 1, 0);     // divide by x0 (= 0)
  a.rem(6, 1, 0);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(3), u64{1} << 63);
  EXPECT_EQ(core.reg(4), 0u);
  EXPECT_EQ(core.reg(5), ~u64{0});
  EXPECT_EQ(core.reg(6), u64{1} << 63);
}

TEST_F(CoreTest, AmoBreaksOwnReservation) {
  // Regression: an AMO is a store. One that hits this core's own reserved
  // granule must break the reservation exactly as an ordinary store does —
  // the following SC has to fail, and its data must not reach memory.
  Assembler a;
  a.li(10, 0x30000);
  a.li(1, 5);
  a.sd(1, 10, 0);
  a.lr_d(5, 10);          // reserve 0x30000; value 5
  a.li(2, 3);
  a.amoadd_d(3, 10, 2);   // old = 5, mem = 8 — and the reservation dies
  a.sc_d(7, 10, 2);       // must fail = 1
  a.ld(8, 10, 0);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(5), 5u);
  EXPECT_EQ(core.reg(3), 5u);
  EXPECT_EQ(core.reg(7), 1u);  // SC failed
  EXPECT_EQ(core.reg(8), 8u);  // memory holds the AMO result, not the SC data
}

TEST_F(CoreTest, CrossCoreStoreBreaksReservation) {
  // Same-address-different-core store: previously nothing invalidated the
  // reservation (the old comment claimed sc() handled it — it only checked
  // the local flags), so the SC spuriously succeeded.
  Assembler a;
  a.li(10, 0x30000);
  a.li(1, 5);
  a.sd(1, 10, 0);
  a.lr_d(5, 10);
  a.sc_d(7, 10, 1);
  a.ld(8, 10, 0);
  a.halt();
  program_ = a.finalize("test");
  images_.load(memory_, program_);
  Core& core = make_core();
  core.set_pc(program_.entry());

  // Run core 0 up to (and including) the LR, detected via the shared
  // reservation registry rather than instruction counting.
  while (memory_.reservation_count() == 0 && core.status() == Core::Status::kRunning) {
    core.step();
  }
  ASSERT_EQ(memory_.reservation_count(), 1u);

  // Another core stores to the reserved granule through its own cache port.
  Core other(1, CoreConfig{}, memory_, images_, nullptr);
  other.cache_mem_port().store(Opcode::kSd, 0x30000, 8, 99);
  EXPECT_EQ(memory_.reservation_count(), 0u);

  core.run(100);
  EXPECT_EQ(core.reg(7), 1u);   // SC failed: the other core's store intervened
  EXPECT_EQ(core.reg(8), 99u);  // the other core's value survived
}

TEST_F(CoreTest, CsrAccess) {
  Assembler a;
  a.csrrs(1, isa::kCsrMhartid, 0);
  a.csrrs(2, isa::kCsrInstret, 0);
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.reg(1), 0u);   // core id 0
  EXPECT_EQ(core.reg(2), 1u);   // one instruction retired before the read
}

TEST_F(CoreTest, HaltWithoutHandlerStops) {
  Assembler a;
  a.halt();
  Core& core = run_program(a);
  EXPECT_EQ(core.status(), Core::Status::kHalted);
}

namespace {
class CountingHandler : public TrapHandler {
 public:
  TrapAction on_trap(Core&, TrapCause cause) override {
    ++counts[static_cast<int>(cause)];
    if (cause == TrapCause::kTaskExit) return {TrapAction::Kind::kHalt, 0};
    return {TrapAction::Kind::kResumeUser, 100};
  }
  int counts[8] = {};
};
}  // namespace

TEST_F(CoreTest, EcallTrapsAndResumes) {
  Assembler a;
  a.li(1, 1);
  a.ecall();
  a.addi(1, 1, 1);
  a.halt();
  program_ = a.finalize("ecall");
  images_.load(memory_, program_);
  Core& core = make_core();
  CountingHandler handler;
  core.set_trap_handler(&handler);
  core.set_pc(program_.entry());
  core.run(100);
  EXPECT_EQ(handler.counts[static_cast<int>(TrapCause::kEcall)], 1);
  EXPECT_EQ(core.reg(1), 2u);  // resumed after the ecall
  EXPECT_EQ(core.status(), Core::Status::kHalted);
}

TEST_F(CoreTest, EcallKernelCostAddsCycles) {
  Assembler a;
  a.ecall();
  a.halt();
  program_ = a.finalize("cost");
  images_.load(memory_, program_);
  Core& core = make_core();
  CountingHandler handler;
  core.set_trap_handler(&handler);
  core.set_pc(program_.entry());
  const Cycle before = core.cycle();
  core.run(100);
  EXPECT_GE(core.cycle() - before, 100u);  // the modelled excursion
}

TEST_F(CoreTest, TimerInterruptFires) {
  Assembler a;
  a.li(1, 0);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(1, 1, 1);
  a.jal(0, loop);  // infinite loop; only the timer stops it
  program_ = a.finalize("timer");
  images_.load(memory_, program_);
  Core& core = make_core();
  CountingHandler handler;
  core.set_trap_handler(&handler);
  core.set_pc(program_.entry());
  core.set_timer(500);
  core.run(100000);
  EXPECT_GE(handler.counts[static_cast<int>(TrapCause::kTimer)], 1);
  EXPECT_GE(core.cycle(), 500u);
}

TEST_F(CoreTest, FetchFaultOnWildPc) {
  Assembler a;
  a.halt();
  program_ = a.finalize("fault");
  images_.load(memory_, program_);
  Core& core = make_core();
  core.set_pc(0xDEAD0000);
  core.step();
  EXPECT_EQ(core.status(), Core::Status::kHalted);  // default action
}

TEST_F(CoreTest, CaptureRestoreRoundTrip) {
  Assembler a;
  a.li(1, 111);
  a.li(2, 222);
  a.halt();
  Core& core = run_program(a);
  ArchState s = core.capture_state();
  EXPECT_EQ(s.regs[1], 111u);
  s.regs[1] = 999;
  s.pc = 0x4444;
  core.restore_state(s);
  EXPECT_EQ(core.reg(1), 999u);
  EXPECT_EQ(core.pc(), 0x4444u);
}

TEST_F(CoreTest, MispredictsCostCycles) {
  // Data-dependent alternating branch: the 2-bit BHT cannot track it.
  Assembler a;
  a.li(1, 0);
  a.li(2, 2000);
  auto loop = a.new_label();
  auto skip = a.new_label();
  a.bind(loop);
  a.andi(3, 1, 1);
  a.beq(3, 0, skip);
  a.nop();
  a.bind(skip);
  a.addi(1, 1, 1);
  a.bne(1, 2, loop);
  a.halt();
  Core& core = run_program(a, 100000);
  EXPECT_GT(core.mispredicts(), 500u);  // ~50% of 2000 alternating branches
}

TEST_F(CoreTest, WfiParksUntilWake) {
  Assembler a;
  a.emit(isa::make_c(Opcode::kWfi));
  a.halt();
  program_ = a.finalize("wfi");
  images_.load(memory_, program_);
  Core& core = make_core();
  core.set_pc(program_.entry());
  core.step();
  EXPECT_EQ(core.status(), Core::Status::kWaitingInterrupt);
  core.wake(12345);
  EXPECT_EQ(core.status(), Core::Status::kRunning);
  EXPECT_GE(core.cycle(), 12345u);
  core.step();
  EXPECT_EQ(core.status(), Core::Status::kHalted);
}

// ---------------------------------------------------------------------------
// Truth table: every fast-path opcode [kAdd, kSd] against hand-computed
// values. step(), run_fast_path and trace replay share each opcode's
// definition, so comparing them with each other (test_exec_engine) cannot
// catch a wrong one; this holds all three to the constants below.
// ---------------------------------------------------------------------------

constexpr Addr kTruthData = isa::kDefaultDataBase;
constexpr Addr kTruthResults = isa::kDefaultDataBase + 0x1000;
constexpr u8 kResultBase = 20;  // x20 = kTruthResults
constexpr u8 kDataBase = 21;    // x21 = kTruthData
constexpr u8 kDataEnd = 22;     // x22 = kTruthData + 128, for negative offsets
constexpr u8 kLoopCount = 31;
constexpr i64 kMin = std::numeric_limits<i64>::min();
constexpr i64 kMax = std::numeric_limits<i64>::max();
constexpr u64 kStoreBackground = 0xAAAA'AAAA'AAAA'AAAA;

/// The truth-table program: each case leaves a value in a register and
/// stores it to the next result slot; the body loops so that it also runs
/// as traces.
struct TruthProgram {
  isa::Program program;
  std::vector<std::string> names;  ///< Per result slot.
  std::vector<u64> want;           ///< Per result slot: the hand-computed value.
  std::vector<std::pair<Addr, u64>> stored;  ///< Data words the stores leave.
  std::set<Opcode> covered;                  ///< Opcodes under test.
};

void emit_branch(Assembler& a, Opcode op, Assembler::Label target) {
  switch (op) {
    case Opcode::kBeq: a.beq(1, 2, target); break;
    case Opcode::kBne: a.bne(1, 2, target); break;
    case Opcode::kBlt: a.blt(1, 2, target); break;
    case Opcode::kBge: a.bge(1, 2, target); break;
    case Opcode::kBltu: a.bltu(1, 2, target); break;
    default: a.bgeu(1, 2, target); break;
  }
}

TruthProgram build_truth_program() {
  TruthProgram out;
  Assembler a;
  const auto record = [&](Opcode op, const std::string& what, u8 reg, u64 want) {
    a.sd(reg, kResultBase, static_cast<i32>(8 * out.want.size()));
    out.names.push_back(std::string(isa::opcode_name(op)) + " " + what);
    out.want.push_back(want);
    out.covered.insert(op);
  };

  auto main = a.new_label();
  a.j(main);
  // Callee of the call cases; returns through the RAS (jalr x0, x1, 0).
  auto callee = a.new_label();
  const Addr callee_pc = a.here();
  a.bind(callee);
  a.jalr(0, 1, 0);
  a.bind(main);
  a.li(kResultBase, static_cast<i64>(kTruthResults));
  a.li(kDataBase, static_cast<i64>(kTruthData));
  a.addi(kDataEnd, kDataBase, 128);
  // A block longer than one trace records its continuation only once its
  // head trace dispatches, so warming the whole body takes about two heat
  // thresholds; the last iterations then run wholly from traces.
  a.li(kLoopCount, 3 * TraceCache::kHeatThreshold);
  auto loop = a.new_label();
  a.bind(loop);

  // ---- ALU: x3 = x1 op x2 (register-register) or x1 op imm ----
  struct AluCase {
    Opcode op;
    i64 a;
    i64 b;  ///< rs2's value, or the immediate.
    u64 want;
  };
  const AluCase alu_cases[] = {
      {Opcode::kAdd, kMax, 1, 0x8000'0000'0000'0000},
      {Opcode::kAdd, -5, 3, static_cast<u64>(-2)},
      {Opcode::kSub, 0, 1, ~u64{0}},
      {Opcode::kSub, kMin, 1, static_cast<u64>(kMax)},
      {Opcode::kSll, 1, 63, 0x8000'0000'0000'0000},
      {Opcode::kSll, 1, 64, 1},  // register shift amounts are taken mod 64
      {Opcode::kSll, 3, 65, 6},
      {Opcode::kSrl, kMin, 63, 1},
      {Opcode::kSrl, kMin, 64, 0x8000'0000'0000'0000},
      {Opcode::kSrl, -1, 127, 1},
      {Opcode::kSra, kMin, 63, ~u64{0}},
      {Opcode::kSra, -16, 66, static_cast<u64>(-4)},
      {Opcode::kAnd, 0xF0F0, 0xFF00, 0xF000},
      {Opcode::kAnd, -1, kMin, 0x8000'0000'0000'0000},
      {Opcode::kOr, 0xF0F0, 0x0F0F, 0xFFFF},
      {Opcode::kXor, -1, 0x5555, 0xFFFF'FFFF'FFFF'AAAA},
      {Opcode::kSlt, -1, 1, 1},
      {Opcode::kSlt, 1, -1, 0},
      {Opcode::kSlt, kMin, kMax, 1},
      {Opcode::kSltu, -1, 1, 0},
      {Opcode::kSltu, 1, -1, 1},
      {Opcode::kMul, -3, 7, static_cast<u64>(-21)},
      {Opcode::kMul, i64{1} << 32, i64{1} << 32, 0},  // wraps
      {Opcode::kMulh, kMin, 2, ~u64{0}},
      {Opcode::kMulh, i64{1} << 32, i64{1} << 32, 1},
      {Opcode::kMulh, -1, -1, 0},
      {Opcode::kDiv, kMin, -1, 0x8000'0000'0000'0000},  // overflow wraps
      {Opcode::kDiv, 7, 0, ~u64{0}},
      {Opcode::kDiv, -7, 2, static_cast<u64>(-3)},  // truncates toward zero
      {Opcode::kDivu, 7, 0, ~u64{0}},
      {Opcode::kDivu, -1, 2, 0x7FFF'FFFF'FFFF'FFFF},
      {Opcode::kRem, kMin, -1, 0},
      {Opcode::kRem, 7, 0, 7},
      {Opcode::kRem, -7, 2, static_cast<u64>(-1)},
      {Opcode::kRemu, 7, 0, 7},
      {Opcode::kRemu, -1, 10, 5},
      {Opcode::kAddi, 5, -8, static_cast<u64>(-3)},
      {Opcode::kAddi, 0, isa::kImm14Min, static_cast<u64>(-8192)},
      {Opcode::kAndi, 0xFFFF, -16, 0xFFF0},
      {Opcode::kAndi, -1, 0x7F, 0x7F},
      {Opcode::kOri, 1, -256, static_cast<u64>(-255)},
      {Opcode::kXori, 0x0F, -1, 0xFFFF'FFFF'FFFF'FFF0},
      {Opcode::kSlli, 1, 63, 0x8000'0000'0000'0000},
      {Opcode::kSlli, 3, 4, 0x30},
      {Opcode::kSrli, -1, 60, 0xF},
      {Opcode::kSrli, kMin, 65, 0x4000'0000'0000'0000},  // immediate mod 64 too
      {Opcode::kSrai, -256, 4, static_cast<u64>(-16)},
      {Opcode::kSlti, -5, -4, 1},
      {Opcode::kSlti, -4, -5, 0},
      {Opcode::kSltiu, 5, -1, 1},  // -1 sign-extends to the largest u64
      {Opcode::kSltiu, -1, -1, 0},
  };
  for (const AluCase& c : alu_cases) {
    a.li(1, c.a);
    if (isa::opcode_format(c.op) == isa::Format::kR) {
      a.li(2, c.b);
      a.emit(isa::make_r(c.op, 3, 1, 2));
    } else {
      a.emit(isa::make_i(c.op, 3, 1, static_cast<i32>(c.b)));
    }
    record(c.op, std::to_string(c.a) + ", " + std::to_string(c.b), 3, c.want);
  }
  // An ALU write into x0 is dropped.
  a.li(1, 7);
  a.add(0, 1, 1);
  record(Opcode::kAdd, "into x0", 0, 0);
  // LUI: imm19 << 13.
  const std::pair<i32, u64> lui_cases[] = {
      {-1, 0xFFFF'FFFF'FFFF'E000},
      {isa::kImm19Max, 0x7FFF'E000},
      {isa::kImm19Min, 0xFFFF'FFFF'8000'0000},
  };
  for (const auto& [imm, want] : lui_cases) {
    a.lui(3, imm);
    record(Opcode::kLui, std::to_string(imm), 3, want);
  }

  // ---- loads: the sign bit set at every width, negative offsets ----
  a.li(1, static_cast<i64>(0x8081'8283'8485'8687));
  a.sd(1, kDataBase, 0);
  const std::pair<Opcode, u64> load_cases[] = {
      {Opcode::kLb, 0xFFFF'FFFF'FFFF'FF87}, {Opcode::kLbu, 0x87},
      {Opcode::kLh, 0xFFFF'FFFF'FFFF'8687}, {Opcode::kLhu, 0x8687},
      {Opcode::kLw, 0xFFFF'FFFF'8485'8687}, {Opcode::kLwu, 0x8485'8687},
      {Opcode::kLd, 0x8081'8283'8485'8687},
  };
  for (const auto& [op, want] : load_cases) {
    a.emit(isa::make_i(op, 3, kDataEnd, -128));
    record(op, "of 0x8081828384858687", 3, want);
  }
  a.emit(isa::make_i(Opcode::kLw, 0, kDataEnd, -128));
  record(Opcode::kLw, "into x0", 0, 0);

  // ---- stores: width masking over a background word ----
  const std::pair<Opcode, u64> store_cases[] = {
      {Opcode::kSb, 0xAAAA'AAAA'AAAA'AA88},
      {Opcode::kSh, 0xAAAA'AAAA'AAAA'7788},
      {Opcode::kSw, 0xAAAA'AAAA'5566'7788},
      {Opcode::kSd, 0x1122'3344'5566'7788},
  };
  a.li(1, static_cast<i64>(kStoreBackground));
  a.li(2, 0x1122'3344'5566'7788);
  i32 offset = 8;
  for (const auto& [op, want] : store_cases) {
    a.sd(1, kDataBase, offset);
    a.emit(isa::make_s(op, 2, kDataEnd, offset - 128));
    a.ld(3, kDataBase, offset);
    record(op, "of 0x1122334455667788", 3, want);
    out.stored.emplace_back(kTruthData + static_cast<Addr>(offset), want);
    offset += 8;
  }

  // ---- branches: x3 = 2 when taken, 1 when not, in both directions ----
  struct BranchCase {
    Opcode op;
    i64 a;
    i64 b;
    bool taken;
  };
  const BranchCase branch_cases[] = {
      {Opcode::kBeq, 5, 5, true},    {Opcode::kBeq, 5, 6, false},
      {Opcode::kBne, 5, 6, true},    {Opcode::kBne, 5, 5, false},
      {Opcode::kBlt, -1, 0, true},   {Opcode::kBlt, 0, -1, false},
      {Opcode::kBge, 0, -1, true},   {Opcode::kBge, -1, 0, false},
      {Opcode::kBge, 3, 3, true},    {Opcode::kBltu, 0, -1, true},
      {Opcode::kBltu, -1, 0, false}, {Opcode::kBgeu, -1, 0, true},
      {Opcode::kBgeu, 0, -1, false},
  };
  for (const BranchCase& c : branch_cases) {
    const std::string what = std::to_string(c.a) + ", " + std::to_string(c.b);
    // Forward.
    auto taken = a.new_label();
    auto join = a.new_label();
    a.li(1, c.a);
    a.li(2, c.b);
    emit_branch(a, c.op, taken);
    a.li(3, 1);
    a.j(join);
    a.bind(taken);
    a.li(3, 2);
    a.bind(join);
    record(c.op, what + " forward", 3, c.taken ? 2 : 1);
    // Backward.
    auto back = a.new_label();
    auto setup = a.new_label();
    join = a.new_label();
    a.j(setup);
    a.bind(back);
    a.li(3, 2);
    a.j(join);
    a.bind(setup);
    a.li(1, c.a);
    a.li(2, c.b);
    emit_branch(a, c.op, back);
    a.li(3, 1);
    a.bind(join);
    record(c.op, what + " backward", 3, c.taken ? 2 : 1);
  }

  // ---- jumps ----
  auto over = a.new_label();
  a.li(3, 1);
  a.j(over);  // jal x0
  a.li(3, 2);
  a.bind(over);
  record(Opcode::kJal, "x0", 3, 1);
  // jal x1 links and pushes the RAS; the callee returns through it.
  Addr link = a.here() + 4;
  a.jal(1, callee);
  record(Opcode::kJal, "x1 link", 1, link);
  // jalr x1: negative offset, target's low bit cleared.
  a.li(5, static_cast<i64>(callee_pc) + 9);
  link = a.here() + 4;
  a.jalr(1, 5, -8);
  record(Opcode::kJalr, "x1 link", 1, link);
  // jalr x0 through another register: a BTB-predicted indirect jump.
  auto setup = a.new_label();
  auto join = a.new_label();
  a.j(setup);
  const Addr target = a.here();
  a.li(3, 2);
  a.j(join);
  a.bind(setup);
  a.li(5, static_cast<i64>(target) + 9);
  a.li(3, 1);
  a.jalr(0, 5, -8);
  a.li(3, 3);
  a.bind(join);
  record(Opcode::kJalr, "x0", 3, 2);

  a.addi(kLoopCount, kLoopCount, -1);
  a.bne(kLoopCount, 0, loop);
  a.halt();
  out.program = a.finalize("truth_table");
  return out;
}

/// One core of its own running the truth-table program.
struct TruthRun {
  TruthRun(const isa::Program& program, bool traces) {
    images.load(memory, program);
    CoreConfig config;
    config.trace.enabled = traces;
    core = std::make_unique<Core>(0, config, memory, images, nullptr);
    core->set_pc(program.entry());
  }
  Memory memory;
  ImageRegistry images;
  std::unique_ptr<Core> core;
};

TEST(CoreTruthTable, EveryFastPathOpcodeOnEveryPath) {
  const TruthProgram truth = build_truth_program();
  for (u8 op = 0; op <= static_cast<u8>(Opcode::kSd); ++op) {
    EXPECT_TRUE(truth.covered.count(static_cast<Opcode>(op)))
        << "no case for " << isa::opcode_name(static_cast<Opcode>(op));
  }

  TruthRun stepped(truth.program, false);
  for (int i = 0; i < 1'000'000 && stepped.core->status() == Core::Status::kRunning; ++i) {
    stepped.core->step();
  }
  TruthRun batched(truth.program, false);
  batched.core->run(1'000'000);
  TruthRun traced(truth.program, true);
  traced.core->run(1'000'000);
  ASSERT_NE(traced.core->trace_cache(), nullptr);
  EXPECT_GT(traced.core->trace_cache()->stats().insts_from_traces, 0u);

  for (TruthRun* run : {&stepped, &batched, &traced}) {
    SCOPED_TRACE(run == &stepped   ? "step()"
                 : run == &batched ? "run(), no traces"
                                   : "run(), traces");
    Core& core = *run->core;
    EXPECT_EQ(core.status(), Core::Status::kHalted);
    for (std::size_t i = 0; i < truth.want.size(); ++i) {
      EXPECT_EQ(run->memory.read(kTruthResults + 8 * i, 8), truth.want[i]) << truth.names[i];
    }
    for (const auto& [addr, want] : truth.stored) {
      EXPECT_EQ(run->memory.read(addr, 8), want);
    }
    EXPECT_EQ(core.reg(0), 0u);
    EXPECT_EQ(core.reg(kLoopCount), 0u);
    EXPECT_EQ(core.reg(kResultBase), kTruthResults);
    EXPECT_EQ(core.reg(kDataEnd), kTruthData + 128);
    EXPECT_EQ(core.reg(2), ~u64{0});  // the last branch case's rs2
    EXPECT_EQ(core.reg(3), 2u);  // the last jump case's marker
    EXPECT_EQ(core.cycle(), stepped.core->cycle());
    EXPECT_EQ(core.instret(), stepped.core->instret());
    EXPECT_EQ(core.mispredicts(), stepped.core->mispredicts());
    EXPECT_EQ(core.capture_state().regs, stepped.core->capture_state().regs);
  }
  EXPECT_GT(stepped.core->mispredicts(), 0u);
}

// ---------------------------------------------------------------------------
// Truth table for the atomics: the five AMOs and LR/SC against hand-computed
// values. The core's cache port, the checker's replay port and the
// producer's MAL logging all compute an AMO's write-back through
// isa::amo_result, so a dual run alone cannot catch a wrong one; the
// constants below can.
// ---------------------------------------------------------------------------

constexpr u64 kAmoOld = 0xF0F0'1234'5678'9ABC;
constexpr u64 kAmoOperand = 0x0FF0'8765'4321'1111;

TruthProgram build_atomics_program() {
  TruthProgram out;
  Assembler a;
  const auto record = [&](Opcode op, const std::string& what, u8 reg, u64 want) {
    a.sd(reg, kResultBase, static_cast<i32>(8 * out.want.size()));
    out.names.push_back(std::string(isa::opcode_name(op)) + " " + what);
    out.want.push_back(want);
    out.covered.insert(op);
  };
  a.li(kResultBase, static_cast<i64>(kTruthResults));
  a.li(kDataBase, static_cast<i64>(kTruthData));
  a.li(1, static_cast<i64>(kAmoOld));
  a.li(2, static_cast<i64>(kAmoOperand));

  // Each AMO gets its own word: x3 = the old value, x4 = the write-back.
  const std::pair<Opcode, u64> amo_cases[] = {
      {Opcode::kAmoaddD, 0x00E0'9999'9999'ABCD},  // the carry out wraps
      {Opcode::kAmoswapD, kAmoOperand},
      {Opcode::kAmoxorD, 0xFF00'9551'1559'8BAD},
      {Opcode::kAmoandD, 0x00F0'0224'4220'1010},
      {Opcode::kAmoorD, 0xFFF0'9775'5779'9BBD},
  };
  i32 offset = 0;
  for (const auto& [op, want] : amo_cases) {
    a.addi(10, kDataBase, offset);
    a.sd(1, 10, 0);
    a.emit(isa::make_r(op, 3, 10, 2));  // not every AMO has a mnemonic
    record(op, "old value", 3, kAmoOld);
    a.ld(4, 10, 0);
    record(op, "write-back", 4, want);
    out.stored.emplace_back(kTruthData + static_cast<Addr>(offset), want);
    offset += 8;
  }

  // LR/SC: a reserved SC succeeds and writes; a second SC, with the
  // reservation consumed, fails and leaves memory alone.
  a.addi(10, kDataBase, offset);
  a.sd(1, 10, 0);
  a.lr_d(5, 10);
  record(Opcode::kLrD, "value", 5, kAmoOld);
  a.addi(6, 5, 1);
  a.sc_d(7, 10, 6);
  record(Opcode::kScD, "success flag", 7, 0);
  a.ld(8, 10, 0);
  record(Opcode::kScD, "success write", 8, kAmoOld + 1);
  a.sc_d(9, 10, 2);
  record(Opcode::kScD, "failure flag", 9, 1);
  a.ld(8, 10, 0);
  record(Opcode::kScD, "failure leaves memory", 8, kAmoOld + 1);
  out.stored.emplace_back(kTruthData + static_cast<Addr>(offset), kAmoOld + 1);

  a.halt();
  out.program = a.finalize("atomics_truth_table");
  return out;
}

TEST(CoreTruthTable, EveryAtomicOnACoreAndUnderReplay) {
  const TruthProgram truth = build_atomics_program();
  for (u8 op = static_cast<u8>(Opcode::kLrD); op <= static_cast<u8>(Opcode::kAmoorD); ++op) {
    EXPECT_TRUE(truth.covered.count(static_cast<Opcode>(op)))
        << "no case for " << isa::opcode_name(static_cast<Opcode>(op));
  }
  const auto expect_values = [&truth](Memory& memory) {
    for (std::size_t i = 0; i < truth.want.size(); ++i) {
      EXPECT_EQ(memory.read(kTruthResults + 8 * i, 8), truth.want[i]) << truth.names[i];
    }
    for (const auto& [addr, want] : truth.stored) {
      EXPECT_EQ(memory.read(addr, 8), want);
    }
  };

  TruthRun stepped(truth.program, false);
  for (int i = 0; i < 10'000 && stepped.core->status() == Core::Status::kRunning; ++i) {
    stepped.core->step();
  }
  TruthRun batched(truth.program, true);
  batched.core->run(10'000);
  for (TruthRun* run : {&stepped, &batched}) {
    SCOPED_TRACE(run == &stepped ? "step()" : "run()");
    EXPECT_EQ(run->core->status(), Core::Status::kHalted);
    expect_values(run->memory);
  }

  // A dual run: the checker replays every atomic from the producer's log
  // (the AMO's old value served, its write-back verified) without a
  // detection.
  for (const soc::Engine engine :
       {soc::Engine::kStepwise, soc::Engine::kQuantum, soc::Engine::kQuantumBounded}) {
    SCOPED_TRACE(soc::engine_name(engine));
    sim::Session session = sim::Scenario().program(truth.program).dual().engine(engine).build();
    const soc::RunStats stats = session.run();
    expect_values(session.soc().memory());
    EXPECT_GT(stats.segments_verified, 0u);
    EXPECT_EQ(stats.segments_verified, stats.segments_produced);
    EXPECT_EQ(stats.segments_failed, 0u);
    EXPECT_EQ(session.reporter().detections(), 0u);
  }
}

// The trace recorder and the static lint share one fusion rule; pin each
// fused kind it names and the near misses it must refuse.
TEST(TraceFusion, OneRuleNamesEveryFusedKind) {
  using isa::make_b;
  using isa::make_i;
  using isa::make_r;
  struct Case {
    isa::Instruction first;
    isa::Instruction second;
    std::optional<TraceOpKind> want;
  };
  const Case cases[] = {
      {make_i(Opcode::kLd, 5, 10, 8), make_r(Opcode::kAdd, 6, 6, 5), TraceOpKind::kLdAddAcc},
      {make_i(Opcode::kLd, 5, 10, 8), make_r(Opcode::kXor, 6, 6, 5), TraceOpKind::kLdXorAcc},
      {make_i(Opcode::kLd, 5, 10, 8), make_r(Opcode::kAdd, 6, 7, 5), std::nullopt},
      {make_i(Opcode::kLd, 0, 10, 8), make_r(Opcode::kAdd, 6, 6, 0), std::nullopt},
      {make_i(Opcode::kAndi, 5, 6, 3), make_b(Opcode::kBne, 5, 0, 8), TraceOpKind::kAndiBne},
      {make_i(Opcode::kAndi, 5, 6, 3), make_b(Opcode::kBeq, 5, 0, 8), TraceOpKind::kAndiBeq},
      {make_i(Opcode::kAndi, 5, 6, 3), make_b(Opcode::kBne, 5, 7, 8), std::nullopt},
      {make_r(Opcode::kMul, 5, 6, 7), make_i(Opcode::kAddi, 5, 5, 9), TraceOpKind::kMulAddi},
      {make_r(Opcode::kMul, 5, 6, 7), make_i(Opcode::kAddi, 5, 6, 9), std::nullopt},
      {make_r(Opcode::kAnd, 5, 6, 7), make_r(Opcode::kAdd, 5, 8, 5), TraceOpKind::kAndAdd},
      {make_r(Opcode::kAnd, 5, 6, 7), make_r(Opcode::kAdd, 5, 5, 5), std::nullopt},
      {make_r(Opcode::kAdd, 5, 6, 7), make_r(Opcode::kAdd, 8, 9, 10), TraceOpKind::kPairAddAdd},
      {make_r(Opcode::kSub, 5, 6, 7), make_i(Opcode::kSlli, 8, 9, 3), TraceOpKind::kPairSubSlli},
      {make_i(Opcode::kAddi, 5, 6, 1), make_i(Opcode::kAddi, 8, 9, 2),
       TraceOpKind::kPairAddiAddi},
      {make_r(Opcode::kAdd, 5, 6, 7), make_r(Opcode::kAdd, 0, 9, 10), std::nullopt},
      {make_r(Opcode::kAdd, 5, 6, 7), make_r(Opcode::kAnd, 8, 9, 10), std::nullopt},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(isa::opcode_name(c.first.op)) + " ; " +
                 isa::opcode_name(c.second.op));
    EXPECT_EQ(fused_pair_kind(c.first, c.second), c.want);
  }
}

}  // namespace
}  // namespace flexstep::arch
