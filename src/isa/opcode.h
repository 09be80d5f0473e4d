// Instruction set of the simulated FlexStep SoC.
//
// The simulated cores execute an RV64-flavoured subset (integer ALU, M-ext
// multiply/divide, A-ext LR/SC/AMO, branches, loads/stores, a small CSR file)
// plus the FlexStep custom control ISA of the paper's Tab. I. Encodings are a
// regular 32-bit format of our own (documented in instruction.h); the paper's
// contribution is the *control interface*, not RISC-V binary compatibility.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/types.h"

namespace flexstep::isa {

/// Instruction encoding formats (see instruction.h for bit layouts).
enum class Format : u8 {
  kR,   ///< rd, rs1, rs2
  kI,   ///< rd, rs1, imm14 (also CSR ops: imm = CSR index)
  kS,   ///< rs2 (data), rs1 (base), imm14 — stores
  kB,   ///< rs1, rs2, imm14 (instruction offset) — conditional branches
  kUJ,  ///< rd, imm19 — LUI / JAL
  kC,   ///< no operands (system / FlexStep control)
};

/// Memory behaviour of an opcode; drives MAL logging and cache accesses.
enum class MemKind : u8 { kNone, kLoad, kStore, kAmo, kLoadReserved, kStoreConditional };

// X-macro: mnemonic, format, memory kind, result-latency cycles (Rocket-like:
// 1 for ALU, 4 for MUL, 33 for DIV per the in-order Rocket divider).
// clang-format off
#define FLEXSTEP_OPCODE_LIST(X)                                   \
  /* ALU register-register */                                     \
  X(kAdd,    kR, kNone, 1)  X(kSub,    kR, kNone, 1)              \
  X(kSll,    kR, kNone, 1)  X(kSrl,    kR, kNone, 1)              \
  X(kSra,    kR, kNone, 1)  X(kAnd,    kR, kNone, 1)              \
  X(kOr,     kR, kNone, 1)  X(kXor,    kR, kNone, 1)              \
  X(kSlt,    kR, kNone, 1)  X(kSltu,   kR, kNone, 1)              \
  X(kMul,    kR, kNone, 4)  X(kMulh,   kR, kNone, 4)              \
  X(kDiv,    kR, kNone, 33) X(kDivu,   kR, kNone, 33)             \
  X(kRem,    kR, kNone, 33) X(kRemu,   kR, kNone, 33)             \
  /* ALU register-immediate */                                    \
  X(kAddi,   kI, kNone, 1)  X(kAndi,   kI, kNone, 1)              \
  X(kOri,    kI, kNone, 1)  X(kXori,   kI, kNone, 1)              \
  X(kSlli,   kI, kNone, 1)  X(kSrli,   kI, kNone, 1)              \
  X(kSrai,   kI, kNone, 1)  X(kSlti,   kI, kNone, 1)              \
  X(kSltiu,  kI, kNone, 1)                                        \
  X(kLui,    kUJ, kNone, 1)                                       \
  /* Control transfer */                                          \
  X(kBeq,    kB, kNone, 1)  X(kBne,    kB, kNone, 1)              \
  X(kBlt,    kB, kNone, 1)  X(kBge,    kB, kNone, 1)              \
  X(kBltu,   kB, kNone, 1)  X(kBgeu,   kB, kNone, 1)              \
  X(kJal,    kUJ, kNone, 1) X(kJalr,   kI, kNone, 1)              \
  /* Loads / stores */                                            \
  X(kLb,     kI, kLoad, 1)  X(kLbu,    kI, kLoad, 1)              \
  X(kLh,     kI, kLoad, 1)  X(kLhu,    kI, kLoad, 1)              \
  X(kLw,     kI, kLoad, 1)  X(kLwu,    kI, kLoad, 1)              \
  X(kLd,     kI, kLoad, 1)                                        \
  X(kSb,     kS, kStore, 1) X(kSh,     kS, kStore, 1)             \
  X(kSw,     kS, kStore, 1) X(kSd,     kS, kStore, 1)             \
  /* A-extension (64-bit) */                                      \
  X(kLrD,    kI, kLoadReserved, 2)                                \
  X(kScD,    kR, kStoreConditional, 2)                            \
  X(kAmoaddD, kR, kAmo, 2) X(kAmoswapD, kR, kAmo, 2)              \
  X(kAmoxorD, kR, kAmo, 2) X(kAmoandD,  kR, kAmo, 2)              \
  X(kAmoorD,  kR, kAmo, 2)                                        \
  /* System */                                                    \
  X(kEcall,  kC, kNone, 1) X(kMret,   kC, kNone, 1)               \
  X(kWfi,    kC, kNone, 1) X(kFence,  kC, kNone, 1)               \
  X(kHalt,   kC, kNone, 1)                                        \
  X(kCsrrw,  kI, kNone, 1) X(kCsrrs,  kI, kNone, 1)               \
  /* FlexStep custom ISA (paper Tab. I) */                        \
  X(kGIdsContain, kR, kNone, 1)  /* G.IDs.contain  */             \
  X(kGConfigure,  kR, kNone, 1)  /* G.Configure    */             \
  X(kMAssociate,  kR, kNone, 1)  /* M.associate    */             \
  X(kMCheck,      kI, kNone, 1)  /* M.check        */             \
  X(kCCheckState, kI, kNone, 1)  /* C.check_state  */             \
  X(kCRecord,     kC, kNone, 1)  /* C.record       */             \
  X(kCApply,      kC, kNone, 1)  /* C.apply        */             \
  X(kCJal,        kC, kNone, 1)  /* C.jal          */             \
  X(kCResult,     kR, kNone, 1)  /* C.result       */
// clang-format on

enum class Opcode : u8 {
#define FLEXSTEP_ENUM(name, fmt, mem, lat) name,
  FLEXSTEP_OPCODE_LIST(FLEXSTEP_ENUM)
#undef FLEXSTEP_ENUM
      kCount_,
};

inline constexpr std::size_t kOpcodeCount = static_cast<std::size_t>(Opcode::kCount_);

namespace detail {
struct OpInfo {
  const char* name;
  Format format;
  MemKind mem;
  u8 latency;
};

inline constexpr OpInfo kOpInfo[kOpcodeCount] = {
#define FLEXSTEP_INFO(name, fmt, mem, lat) {#name, Format::fmt, MemKind::mem, lat},
    FLEXSTEP_OPCODE_LIST(FLEXSTEP_INFO)
#undef FLEXSTEP_INFO
};
}  // namespace detail

constexpr const char* opcode_name(Opcode op) {
  return detail::kOpInfo[static_cast<std::size_t>(op)].name;
}
constexpr Format opcode_format(Opcode op) {
  return detail::kOpInfo[static_cast<std::size_t>(op)].format;
}
constexpr MemKind opcode_mem_kind(Opcode op) {
  return detail::kOpInfo[static_cast<std::size_t>(op)].mem;
}
/// Functional-unit result latency in cycles (Rocket: iterative divider).
constexpr u8 opcode_latency(Opcode op) {
  return detail::kOpInfo[static_cast<std::size_t>(op)].latency;
}

constexpr bool is_cond_branch(Opcode op) { return opcode_format(op) == Format::kB; }
constexpr bool is_jump(Opcode op) { return op == Opcode::kJal || op == Opcode::kJalr; }
constexpr bool is_memory(Opcode op) { return opcode_mem_kind(op) != MemKind::kNone; }
constexpr bool is_load_like(Opcode op) {
  const MemKind k = opcode_mem_kind(op);
  return k == MemKind::kLoad || k == MemKind::kLoadReserved || k == MemKind::kAmo;
}
constexpr bool is_store_like(Opcode op) {
  const MemKind k = opcode_mem_kind(op);
  return k == MemKind::kStore || k == MemKind::kStoreConditional || k == MemKind::kAmo;
}
constexpr bool is_flexstep_custom(Opcode op) {
  return op >= Opcode::kGIdsContain && op <= Opcode::kCResult;
}

/// The value an AMO writes back, from the old memory value and the rs2
/// operand. The core's cache port, the checker's replay port and the
/// producer's MAL logging all compute it here, so they cannot disagree.
inline u64 amo_result(Opcode op, u64 old, u64 operand) {
  switch (op) {
    case Opcode::kAmoaddD: return old + operand;
    case Opcode::kAmoswapD: return operand;
    case Opcode::kAmoxorD: return old ^ operand;
    case Opcode::kAmoandD: return old & operand;
    case Opcode::kAmoorD: return old | operand;
    default: break;
  }
  FLEX_CHECK_MSG(false, "not an AMO opcode");
  return 0;
}

/// Number of bytes touched by a memory opcode (access width).
constexpr u32 mem_access_bytes(Opcode op) {
  switch (op) {
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kSb: return 1;
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kSh: return 2;
    case Opcode::kLw:
    case Opcode::kLwu:
    case Opcode::kSw: return 4;
    default: return is_memory(op) ? 8 : 0;
  }
}

}  // namespace flexstep::isa
