#include "workloads/program_builder.h"

#include <bit>

#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"

namespace flexstep::workloads {

using isa::Assembler;

namespace {

// Register allocation (see header).
constexpr u8 kAcc0 = 3, kAcc1 = 4, kAcc2 = 14, kAcc3 = 15;
constexpr u8 kLoopCtr = 5, kLcg = 6, kTmp0 = 7, kTmp1 = 8;
constexpr u8 kMask = 9, kBase = 10, kRoam = 11, kLcgMul = 12, kPtr2 = 13;

constexpr u8 kAccs[] = {kAcc0, kAcc1, kAcc2, kAcc3};

class BodyEmitter {
 public:
  BodyEmitter(Assembler& a, const WorkloadProfile& profile, Rng& rng)
      : a_(a), profile_(profile), rng_(rng) {}

  /// Emit ~profile.body_instructions instructions realising the mix.
  void emit_body() {
    const std::size_t start = a_.size();
    const auto target = static_cast<std::size_t>(profile_.body_instructions);
    // Pre-computed gated ECALL schedule.
    const double per_body =
        profile_.ecalls_per_kinst * profile_.body_instructions / 1000.0;
    u32 ungated = static_cast<u32>(per_body);
    const double frac = per_body - ungated;
    i32 gate_mask = -1;
    if (frac > 1e-9) {
      // Fire roughly every 1/frac iterations via loop-counter bits.
      u32 period = std::bit_ceil(static_cast<u32>(1.0 / frac));
      gate_mask = static_cast<i32>(period - 1);
    }
    bool gated_emitted = false;

    while (a_.size() - start < target) {
      const std::size_t remaining = target - (a_.size() - start);
      // Leave room for ECALL sequences near the end.
      if (ungated > 0 && rng_.next_bool(0.02)) {
        a_.ecall();
        --ungated;
        continue;
      }
      if (!gated_emitted && gate_mask >= 0 && remaining < target / 4) {
        emit_gated_ecall(gate_mask);
        gated_emitted = true;
        continue;
      }
      const double r = rng_.next_double();
      double acc = profile_.f_load;
      if (r < acc) {
        emit_load();
        continue;
      }
      acc += profile_.f_store;
      if (r < acc) {
        emit_store();
        continue;
      }
      acc += profile_.f_branch;
      if (r < acc) {
        emit_branch();
        continue;
      }
      acc += profile_.f_mul;
      if (r < acc) {
        emit_mul();
        continue;
      }
      acc += profile_.f_div;
      if (r < acc) {
        emit_div();
        continue;
      }
      acc += profile_.f_amo;
      if (r < acc) {
        emit_amo();
        continue;
      }
      emit_alu();
    }
    // Flush any ECALLs the probability gate missed.
    while (ungated-- > 0) a_.ecall();
    if (!gated_emitted && gate_mask >= 0) emit_gated_ecall(gate_mask);
  }

 private:
  u8 pick_acc() { return kAccs[rng_.next_below(4)]; }
  u8 pick_ptr() { return rng_.next_bool(0.5) ? kRoam : kPtr2; }

  /// x7 = base + (lcg & mask): pseudo-random 8-aligned working-set address.
  void emit_random_addr() {
    a_.and_(kTmp0, kLcg, kMask);
    a_.add(kTmp0, kBase, kTmp0);
  }

  /// Fraction of memory accesses that wander the whole working set (cold /
  /// pointer-chasing behaviour); the rest exhibit spatial locality around the
  /// roaming pointers. Real integer codes hit L1 for ~85-90% of accesses.
  static constexpr double kWanderFraction = 0.06;

  void emit_load() {
    // Loads feed a consuming accumulation, as real code consumes its loads
    // (a dead load would make forwarded-data faults trivially maskable).
    if (rng_.next_bool(kWanderFraction)) {
      emit_random_addr();
      a_.ld(kTmp1, kTmp0, 0);
    } else {
      // Pointer-relative access with a small immediate (spatial locality).
      const i32 off = static_cast<i32>(rng_.next_below(64)) * 8;
      a_.ld(kTmp1, pick_ptr(), off);
    }
    const u8 acc = pick_acc();
    if (rng_.next_bool(0.5)) {
      a_.add(acc, acc, kTmp1);
    } else {
      a_.xor_(acc, acc, kTmp1);
    }
  }

  void emit_store() {
    if (rng_.next_bool(kWanderFraction)) {
      emit_random_addr();
      a_.sd(pick_acc(), kTmp0, 0);
    } else {
      const i32 off = static_cast<i32>(rng_.next_below(64)) * 8;
      a_.sd(pick_acc(), pick_ptr(), off);
    }
  }

  void emit_branch() {
    const bool data_dependent = rng_.next_bool(profile_.branch_entropy);
    auto skip = a_.new_label();
    if (data_dependent) {
      a_.andi(kTmp0, kLcg, 1);       // ~50/50, BHT-hostile
      a_.bne(kTmp0, 0, skip);
    } else {
      a_.andi(kTmp0, kLoopCtr, 63);  // taken 63/64 iterations: predictable
      a_.beq(kTmp0, 0, skip);
    }
    const u32 skipped = 1 + static_cast<u32>(rng_.next_below(2));
    for (u32 i = 0; i < skipped; ++i) emit_alu();
    a_.bind(skip);
  }

  void emit_mul() {
    if (rng_.next_bool(0.5)) {
      // Advance the LCG (keeps the address/branch entropy flowing).
      a_.mul(kLcg, kLcg, kLcgMul);
      a_.addi(kLcg, kLcg, 12345 & 0x1FFF);
    } else {
      a_.mul(pick_acc(), pick_acc(), pick_acc());
    }
  }

  void emit_div() {
    a_.ori(kTmp1, kLcg, 1);  // non-zero divisor
    a_.div(pick_acc(), pick_acc(), kTmp1);
  }

  void emit_amo() {
    // Small shared region at the start of the working set.
    a_.andi(kTmp0, kLcg, 0xFF8);
    a_.add(kTmp0, kBase, kTmp0);
    a_.amoadd_d(kTmp1, kTmp0, pick_acc());
  }

  void emit_alu() {
    const u8 rd = pick_acc();
    switch (rng_.next_below(6)) {
      case 0: a_.add(rd, rd, pick_acc()); break;
      case 1: a_.xor_(rd, rd, kLcg); break;
      case 2: a_.sub(rd, rd, pick_acc()); break;
      case 3: a_.slli(rd, rd, 1); break;  // gentle shift: bits erode slowly
      case 4: a_.or_(rd, rd, pick_acc()); break;
      case 5: a_.addi(rd, rd, static_cast<i32>(rng_.next_below(256))); break;
    }
  }

  void emit_gated_ecall(i32 gate_mask) {
    auto skip = a_.new_label();
    a_.andi(kTmp0, kLoopCtr, gate_mask);
    a_.bne(kTmp0, 0, skip);
    a_.ecall();
    a_.bind(skip);
  }

  Assembler& a_;
  const WorkloadProfile& profile_;
  Rng& rng_;
};

}  // namespace

isa::Program build_workload(const WorkloadProfile& profile, const BuildOptions& options) {
  const u64 ws_bytes = static_cast<u64>(profile.working_set_kb) * 1024;
  FLEX_CHECK_MSG(std::has_single_bit(ws_bytes), "working set must be a power of two");
  const u32 iterations =
      options.iterations_override != 0 ? options.iterations_override : profile.iterations;

  FLEX_CHECK_MSG(profile.body_instructions <= 7000,
                 "body too large for 14-bit branch offsets");

  Assembler a(options.code_base);
  // FNV-1a over the name, deterministic across platforms/stdlib versions.
  // The offset basis is not FNV's (Fnv1a::kOffsetBasis); it seeds every
  // generated program, so it stays as it is.
  Fnv1a name_hash(1469598103934665603ULL);
  name_hash.text(profile.name);
  Rng rng(options.seed ^ name_hash.value());

  // ---- prologue: self-contained register setup ----
  a.li(kBase, static_cast<i64>(options.data_base));
  a.li(kMask, static_cast<i64>((ws_bytes - 1) & ~u64{7}));
  a.li(kLoopCtr, iterations);
  a.li(kLcg, static_cast<i64>(0x2545F491 ^ options.seed));
  a.li(kLcgMul, 1103515245);
  a.li(kRoam, static_cast<i64>(options.data_base));
  a.li(kPtr2, static_cast<i64>(options.data_base + ws_bytes / 2));
  a.li(kAcc0, 17);
  a.li(kAcc1, 29);
  a.li(kAcc2, 43);
  a.li(kAcc3, 71);

  // ---- main loop ----
  auto loop = a.new_label();
  a.bind(loop);
  BodyEmitter(a, profile, rng).emit_body();
  // Re-point the roaming pointers once per iteration (working-set coverage
  // beyond the 4 KB immediate window).
  a.and_(kTmp0, kLcg, kMask);
  a.add(kRoam, kBase, kTmp0);
  a.xor_(kTmp0, kLcg, kLoopCtr);
  a.and_(kTmp0, kTmp0, kMask);
  a.add(kPtr2, kBase, kTmp0);
  a.addi(kLoopCtr, kLoopCtr, -1);
  a.bne(kLoopCtr, 0, loop);
  a.halt();

  return a.finalize(profile.name, options.data_base, ws_bytes);
}

}  // namespace flexstep::workloads
