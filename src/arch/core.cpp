#include "arch/core.h"

#include "arch/trace.h"
#include "common/archive.h"
#include "common/check.h"

namespace flexstep::arch {

using isa::Instruction;
using isa::MemKind;
using isa::Opcode;

// The fast-path prefix [kAdd, kSd] by shape, for code generated per opcode.
// LUI, JAL and JALR sit outside: each has its own immediate or link handling.
#define FLEX_ALU_OPS(X)                                                       \
  X(kAdd) X(kSub) X(kSll) X(kSrl) X(kSra) X(kAnd) X(kOr) X(kXor) X(kSlt)      \
  X(kSltu) X(kMul) X(kMulh) X(kDiv) X(kDivu) X(kRem) X(kRemu) X(kAddi)        \
  X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai) X(kSlti) X(kSltiu)
#define FLEX_BRANCH_OPS(X) X(kBeq) X(kBne) X(kBlt) X(kBge) X(kBltu) X(kBgeu)
#define FLEX_LOAD_OPS(X) X(kLb) X(kLbu) X(kLh) X(kLhu) X(kLw) X(kLwu) X(kLd)
#define FLEX_STORE_OPS(X) X(kSb) X(kSh) X(kSw) X(kSd)
#define FLEX_CASE(name) case Opcode::name:

// Semantics of the fast-path opcodes, defined once and shared by all three
// engines (step(), run_fast_path(), trace replay) so they stay bit-identical.
// The trace handlers call them with constant opcodes.
namespace {

// RV64 M-extension corner cases: x/0 = -1, x%0 = x, and INT64_MIN / -1
// wraps to INT64_MIN with remainder 0 — the naive host division would be
// undefined behaviour (SIGFPE on x86).
inline u64 div_signed(u64 a, u64 b) {
  if (b == 0) return ~u64{0};
  if (a == (u64{1} << 63) && b == ~u64{0}) return a;
  return static_cast<u64>(static_cast<i64>(a) / static_cast<i64>(b));
}
inline u64 rem_signed(u64 a, u64 b) {
  if (b == 0) return a;
  if (a == (u64{1} << 63) && b == ~u64{0}) return 0;
  return static_cast<u64>(static_cast<i64>(a) % static_cast<i64>(b));
}

/// An ALU op's second operand: register rs2 for register-register ops, the
/// sign-extended immediate otherwise — without reading regs[rs2], a field
/// fused trace ops reuse.
[[gnu::always_inline]] inline u64 alu_operand(Opcode op, const u64* regs, u8 rs2, i32 imm) {
  return isa::opcode_format(op) == isa::Format::kR ? regs[rs2]
                                                   : static_cast<u64>(static_cast<i64>(imm));
}

/// Result of an ALU op (opcodes below kBeq) on `a` and alu_operand's `b`.
[[gnu::always_inline]] inline u64 alu(Opcode op, u64 a, u64 b) {
  switch (op) {
    case Opcode::kAdd: case Opcode::kAddi: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kSll: case Opcode::kSlli: return a << (b & 63);
    case Opcode::kSrl: case Opcode::kSrli: return a >> (b & 63);
    case Opcode::kSra: case Opcode::kSrai:
      return static_cast<u64>(static_cast<i64>(a) >> (b & 63));
    case Opcode::kAnd: case Opcode::kAndi: return a & b;
    case Opcode::kOr: case Opcode::kOri: return a | b;
    case Opcode::kXor: case Opcode::kXori: return a ^ b;
    case Opcode::kSlt: case Opcode::kSlti:
      return static_cast<i64>(a) < static_cast<i64>(b) ? 1 : 0;
    case Opcode::kSltu: case Opcode::kSltiu: return a < b ? 1 : 0;
    case Opcode::kMul: return a * b;
    case Opcode::kMulh:
      return static_cast<u64>(
          (static_cast<__int128>(static_cast<i64>(a)) * static_cast<i64>(b)) >> 64);
    case Opcode::kDiv: return div_signed(a, b);
    case Opcode::kDivu: return b == 0 ? ~u64{0} : a / b;
    case Opcode::kRem: return rem_signed(a, b);
    case Opcode::kRemu: return b == 0 ? a : a % b;
    case Opcode::kLui: return b << isa::kLuiShift;
    default: return 0;  // not an ALU op
  }
}

/// Direction of a conditional branch (kBeq..kBgeu).
[[gnu::always_inline]] inline bool branch_taken(Opcode op, u64 a, u64 b) {
  switch (op) {
    case Opcode::kBeq: return a == b;
    case Opcode::kBne: return a != b;
    case Opcode::kBlt: return static_cast<i64>(a) < static_cast<i64>(b);
    case Opcode::kBge: return static_cast<i64>(a) >= static_cast<i64>(b);
    case Opcode::kBltu: return a < b;
    case Opcode::kBgeu: return a >= b;
    default: return false;  // not a conditional branch
  }
}

/// A plain load's register value from the raw (zero-extended) access.
[[gnu::always_inline]] inline u64 extend_load(Opcode op, u64 raw) {
  switch (op) {
    case Opcode::kLb: return static_cast<u64>(static_cast<i64>(static_cast<i8>(raw)));
    case Opcode::kLh: return static_cast<u64>(static_cast<i64>(static_cast<i16>(raw)));
    case Opcode::kLw: return static_cast<u64>(static_cast<i64>(static_cast<i32>(raw)));
    default: return raw;
  }
}

/// The bytes a `bytes`-wide store writes: `value` masked to the width.
[[gnu::always_inline]] inline u64 store_data(u32 bytes, u64 value) {
  return bytes == 8 ? value : value & ((u64{1} << (bytes * 8)) - 1);
}

// The fused fast paths' segment-cursor record protocol, the batched analogue
// of CoreUnit's stepwise ReplayPort (replay) and log_memory (produce).

/// Replay: consume the next staged record and check the access against it —
/// the address, then a store's width-masked data, the stepwise checker's
/// precedence. `clock` is the PRE-commit clock, exactly when the stepwise
/// ReplayPort pops the entry (before this instruction's cost is added).
/// Returns the record's data: a load's value.
[[gnu::always_inline]] inline u64 replay_access(SegmentCursor& cursor, bool store,
                                                Addr addr, u64 data, Cycle clock) {
  const MemRecord& e = cursor.slots[cursor.used++];
  cursor.last_cycle = clock;
  if (e.addr != addr) [[unlikely]] {
    cursor.on_mismatch(cursor.ctx, store ? ReplayMismatch::kStoreAddr : ReplayMismatch::kLoadAddr,
                       clock);
  } else if (store && e.data != data) [[unlikely]] {
    cursor.on_mismatch(cursor.ctx, ReplayMismatch::kStoreData, clock);
  }
  return e.data;
}

/// Produce: stage a record of the access (a load's raw value, a store's
/// masked data). `clock` is the POST-commit clock — the instruction's cost is
/// final once its data probe is charged — matching the stepwise on_commit ->
/// log_memory ordering.
[[gnu::always_inline]] inline void stage_access(SegmentCursor& cursor, bool store, u32 bytes,
                                                Addr addr, u64 data, Cycle clock) {
  MemRecord& rec = cursor.slots[cursor.used++];
  rec.kind = store ? cursor.store_kind : cursor.load_kind;
  rec.bytes = static_cast<u8>(bytes);
  rec.addr = addr;
  rec.data = data;
  rec.cycle = clock;
}

}  // namespace

[[gnu::always_inline]] inline Cycle Core::resolve_branch(Addr pc, bool taken) {
  const bool predicted = bpred_.predict_taken(pc);
  bpred_.update(pc, taken);
  if (predicted == taken) return 0;
  ++mispredicts_;
  return bpred_.config().mispredict_penalty;
}

[[gnu::always_inline]] inline Cycle Core::resolve_jal(Addr pc, Addr target, u8 rd) {
  Cycle extra = 0;
  const auto hit = bpred_.btb_lookup(pc);
  if (!hit.has_value() || *hit != target) {
    extra = 1;  // decode-stage redirect bubble
    bpred_.btb_insert(pc, target);
  }
  if (rd == 1) bpred_.ras_push(pc + 4);
  return extra;
}

[[gnu::always_inline]] inline Cycle Core::resolve_jalr(Addr pc, Addr target, u8 rd, u8 rs1) {
  std::optional<Addr> predicted;
  if (rd == 0 && rs1 == 1) {
    predicted = bpred_.ras_pop();  // return: predicted through the RAS
  } else {
    predicted = bpred_.btb_lookup(pc);
    if (!predicted.has_value() || *predicted != target) bpred_.btb_insert(pc, target);
    if (rd == 1) bpred_.ras_push(pc + 4);
  }
  if (predicted.has_value() && *predicted == target) return 0;
  ++mispredicts_;
  return bpred_.config().mispredict_penalty;
}

[[gnu::always_inline]] inline Cycle Core::execute_prefix(const Instruction& inst, Addr pc,
                                                         u64& rd_value, bool& write_rd,
                                                         Addr& next_pc) {
  const u64 a = regs_[inst.rs1];  // NOLINT: x0 reads as 0 by invariant
  const auto imm = static_cast<u64>(static_cast<i64>(inst.imm));
  write_rd = true;
  switch (inst.op) {
#define FLEX_ALU_CASE(name)                                                      \
  case Opcode::name:                                                             \
    rd_value = alu(Opcode::name, a,                                              \
                   alu_operand(Opcode::name, regs_.data(), inst.rs2, inst.imm)); \
    return isa::opcode_latency(Opcode::name) - 1;
    FLEX_ALU_OPS(FLEX_ALU_CASE)
    FLEX_ALU_CASE(kLui)
#undef FLEX_ALU_CASE
#define FLEX_BRANCH_CASE(name)                                         \
  case Opcode::name: {                                                 \
    write_rd = false;                                                  \
    const bool taken = branch_taken(Opcode::name, a, regs_[inst.rs2]); \
    if (taken) next_pc = pc + imm;                                     \
    return resolve_branch(pc, taken);                                  \
  }
    FLEX_BRANCH_OPS(FLEX_BRANCH_CASE)
#undef FLEX_BRANCH_CASE
    case Opcode::kJal:
      rd_value = pc + 4;
      next_pc = pc + imm;
      return resolve_jal(pc, next_pc, inst.rd);
    case Opcode::kJalr:
      rd_value = pc + 4;
      next_pc = (a + imm) & ~u64{1};
      return resolve_jalr(pc, next_pc, inst.rd, inst.rs1);
    default:
      write_rd = false;
      return 0;  // not in the prefix
  }
}

// ---------------------------------------------------------------------------
// Default data-memory port: real memory + cache-hierarchy timing + LR/SC
// reservation handling.
// ---------------------------------------------------------------------------
class Core::CachePort final : public MemPort {
 public:
  explicit CachePort(Core& core) : core_(core) {}

  MemResult load(Opcode, Addr addr, u32 bytes) override {
    MemResult r;
    r.stall = core_.caches_.data(addr) + core_.config_.load_use_penalty;
    r.data = core_.memory_.read(addr, bytes);
    return r;
  }

  // Reservation invalidation — own stores, own AMOs (which used to leave the
  // owner's reservation standing: an AMO is a store too), other cores'
  // writes to the same granule, and bulk writes — is centralised in the
  // Memory reservation registry: every write path checks it, so no per-op
  // special casing can be missed here or in the batched engine's inlined
  // store paths.
  MemResult store(Opcode, Addr addr, u32 bytes, u64 data) override {
    MemResult r;
    r.stall = core_.caches_.data(addr);
    core_.memory_.write(addr, bytes, data);
    return r;
  }

  MemResult amo(Opcode op, Addr addr, u64 operand) override {
    MemResult r;
    r.stall = core_.caches_.data(addr) + 1;  // read-modify-write occupies an extra cycle
    const u64 old = core_.memory_.read(addr, 8);
    // Writing breaks any reservation on the granule.
    core_.memory_.write(addr, 8, isa::amo_result(op, old, operand));
    r.data = old;
    return r;
  }

  MemResult load_reserved(Addr addr) override {
    MemResult r;
    r.stall = core_.caches_.data(addr) + 1;
    r.data = core_.memory_.read(addr, 8);
    core_.set_reservation(addr & ~Addr{7});
    return r;
  }

  MemResult store_conditional(Addr addr, u64 data) override {
    MemResult r;
    r.stall = core_.caches_.data(addr) + 1;
    const bool ok = core_.reservation_valid_ && core_.reservation_addr_ == (addr & ~Addr{7});
    if (ok) core_.memory_.write(addr, 8, data);
    core_.release_reservation();  // SC consumes the reservation either way
    r.data = ok ? 0 : 1;
    return r;
  }

 private:
  Core& core_;
};

// ---------------------------------------------------------------------------

Core::Core(CoreId id, const CoreConfig& config, Memory& memory, const ImageRegistry& images,
           Cache* shared_l2)
    : id_(id),
      config_(config),
      memory_(memory),
      images_(images),
      caches_(config.l1i, config.l1d, shared_l2, config.memory_latency),
      bpred_(config.bpred),
      cache_port_(std::make_unique<CachePort>(*this)) {
  port_ = cache_port_.get();
  if (config_.trace.enabled) {
    trace_cache_ = std::make_unique<TraceCache>(
        memory_, TraceCostModel{caches_.worst_miss_cost(), config_.load_use_penalty,
                                bpred_.config().mispredict_penalty});
  }
}

Core::~Core() { memory_.clear_reservation(this); }

u32 Core::seed_traces(const std::vector<Addr>& seeds) {
  if (trace_cache_ == nullptr) return 0;
  u32 covered = 0;
  for (const Addr pc : seeds) {
    const LoadedImage* image = images_.find(pc);
    if (image == nullptr) continue;
    if (trace_cache_->seed(pc, image->code.data(), image->base, image->end)) {
      ++covered;
    }
  }
  return covered;
}

void Core::set_reservation(Addr granule) {
  reservation_addr_ = granule;
  reservation_valid_ = true;
  memory_.set_reservation(this, granule);
}

void Core::release_reservation() {
  reservation_valid_ = false;
  memory_.clear_reservation(this);
}

void Core::set_mem_port(MemPort* port) { port_ = port != nullptr ? port : cache_port_.get(); }

MemPort& Core::cache_mem_port() { return *cache_port_; }

ArchState Core::capture_state() const {
  ArchState s;
  s.pc = pc_;
  s.regs = regs_;
  s.regs[0] = 0;
  return s;
}

void Core::restore_state(const ArchState& state) {
  pc_ = state.pc;
  regs_ = state.regs;
  regs_[0] = 0;
  image_ = nullptr;  // force image re-lookup
}

template <class Ar>
void Core::Snapshot::transfer(Ar& ar) {
  for (u64& r : regs) ar.fixed(r);
  ar.fixed(pc);
  ar.boolean(user_mode);
  ar.fixed(csr_mepc);
  ar.fixed(csr_mcause);
  ar.fixed(csr_mscratch);
  caches.transfer(ar);
  bpred.transfer(ar);
  ar.fixed(last_fetch_line);
  ar.fixed(reservation_addr);
  ar.boolean(reservation_valid);
  ar.varint(cycle);
  ar.varint(instret);
  ar.varint(user_instret);
  ar.varint(stall_cycles);
  ar.varint(mispredicts);
  ar.varint(timer_at);
  ar.boolean(timer_armed);
  ar.boolean(suppress_traps);
  ar.enumeration(status, Status::kHalted, "core status out of domain");
}
template void Core::Snapshot::transfer(io::ArchiveWriter&);
template void Core::Snapshot::transfer(io::ArchiveReader&);

void Core::save(Snapshot& out) const {
  out.regs = regs_;
  out.pc = pc_;
  out.user_mode = user_mode_;
  out.csr_mepc = csr_mepc_;
  out.csr_mcause = csr_mcause_;
  out.csr_mscratch = csr_mscratch_;
  caches_.save(out.caches);
  bpred_.save(out.bpred);
  out.last_fetch_line = last_fetch_line_;
  out.reservation_addr = reservation_addr_;
  out.reservation_valid = reservation_valid_;
  out.cycle = cycle_;
  out.instret = instret_;
  out.user_instret = user_instret_;
  out.stall_cycles = stall_cycles_;
  out.mispredicts = mispredicts_;
  out.timer_at = timer_at_;
  out.timer_armed = timer_armed_;
  out.suppress_traps = suppress_traps_;
  out.status = status_;
  out.traces = trace_cache_ != nullptr ? trace_cache_->share() : nullptr;
}

void Core::restore(const Snapshot& snapshot) {
  regs_ = snapshot.regs;
  regs_[0] = 0;
  pc_ = snapshot.pc;
  user_mode_ = snapshot.user_mode;
  csr_mepc_ = snapshot.csr_mepc;
  csr_mcause_ = snapshot.csr_mcause;
  csr_mscratch_ = snapshot.csr_mscratch;
  caches_.restore(snapshot.caches);
  bpred_.restore(snapshot.bpred);
  last_fetch_line_ = snapshot.last_fetch_line;
  // Re-sync the shared Memory registry with the restored architectural
  // reservation, so a post-restore (or forked) SC observes invalidations
  // exactly as the original would have — never spuriously succeeds.
  reservation_addr_ = snapshot.reservation_addr;
  reservation_valid_ = snapshot.reservation_valid;
  if (reservation_valid_) {
    memory_.set_reservation(this, reservation_addr_);
  } else {
    memory_.clear_reservation(this);
  }
  cycle_ = snapshot.cycle;
  instret_ = snapshot.instret;
  user_instret_ = snapshot.user_instret;
  stall_cycles_ = snapshot.stall_cycles;
  mispredicts_ = snapshot.mispredicts;
  timer_at_ = snapshot.timer_at;
  timer_armed_ = snapshot.timer_armed;
  suppress_traps_ = snapshot.suppress_traps;
  status_ = snapshot.status;
  quantum_break_ = false;  // never set between scheduling rounds
  run_exit_ = RunExit::kNone;
  image_ = nullptr;        // may belong to another SoC's registry; re-lookup
  // Continue from the saver's traces, so this core evolves exactly as the
  // saver did from here; without tables (a snapshot from a file) start cold.
  if (trace_cache_ != nullptr) trace_cache_->adopt(snapshot.traces);
}

u64 Core::read_csr(u16 csr) const {
  switch (csr) {
    case isa::kCsrMhartid: return id_;
    case isa::kCsrCycle: return cycle_;
    case isa::kCsrInstret: return instret_;
    case isa::kCsrMstatus: return user_mode_ ? 0 : 1;
    case isa::kCsrMepc: return csr_mepc_;
    case isa::kCsrMcause: return csr_mcause_;
    case isa::kCsrMscratch: return csr_mscratch_;
    default: return 0;
  }
}

void Core::write_csr(u16 csr, u64 value) {
  switch (csr) {
    case isa::kCsrMepc: csr_mepc_ = value; break;
    case isa::kCsrMcause: csr_mcause_ = value; break;
    case isa::kCsrMscratch: csr_mscratch_ = value; break;
    default: break;  // read-only / unimplemented CSRs ignore writes
  }
}

void Core::unblock_at(Cycle at) {
  FLEX_CHECK(status_ == Status::kBlocked);
  status_ = Status::kRunning;
  advance_to(at);
}

void Core::cancel_block() {
  if (status_ == Status::kBlocked) status_ = Status::kRunning;
}

void Core::wake(Cycle at) {
  if (status_ == Status::kWaitingInterrupt) {
    status_ = Status::kRunning;
    advance_to(at);
  }
}

void Core::deliver_interrupt(TrapCause cause, Cycle at) {
  FLEX_CHECK(status_ == Status::kBlocked || status_ == Status::kWaitingInterrupt ||
             status_ == Status::kRunning || status_ == Status::kIdle);
  advance_to(at);
  if (status_ == Status::kBlocked) cancel_block();
  if (status_ == Status::kWaitingInterrupt) status_ = Status::kRunning;
  take_trap(cause);
}

bool Core::poll_interrupts() {
  if (!user_mode_) return false;  // kernel excursions are modelled atomic
  if (timer_armed_ && cycle_ >= timer_at_) {
    timer_armed_ = false;
    take_trap(TrapCause::kTimer);
    return true;
  }
  return false;
}

void Core::take_trap(TrapCause cause) {
  // ECALL and HALT commit before trapping, so user execution resumes (or the
  // checking-segment boundary sits) just past them.
  csr_mepc_ =
      (cause == TrapCause::kEcall || cause == TrapCause::kTaskExit) ? pc_ + 4 : pc_;
  csr_mcause_ = static_cast<u64>(cause);
  const bool was_user = user_mode_;
  user_mode_ = false;
  if (was_user && hooks_ != nullptr) hooks_->on_enter_kernel(*this);

  TrapAction action;
  if (handler_ != nullptr) {
    action = handler_->on_trap(*this, cause);
  } else {
    action.kind = (cause == TrapCause::kTaskExit || cause == TrapCause::kIllegal ||
                   cause == TrapCause::kFetchFault)
                      ? TrapAction::Kind::kHalt
                      : TrapAction::Kind::kResumeUser;
  }
  cycle_ += action.kernel_cycles;

  switch (action.kind) {
    case TrapAction::Kind::kResumeUser:
      user_mode_ = true;
      pc_ = csr_mepc_;
      if (hooks_ != nullptr) hooks_->on_exit_kernel(*this);
      break;
    case TrapAction::Kind::kHalt:
      status_ = Status::kHalted;
      break;
    case TrapAction::Kind::kContextSwitched:
      // The handler installed the next context (and, per Alg. 1, handled the
      // FlexStep reconfiguration itself). Nothing more to do here.
      break;
  }
}

Core::Status Core::run(u64 max_instructions) {
  return run_until(kNoCycleBound, max_instructions);
}

Core::Status Core::run_until(Cycle stop_before, u64 max_instructions) {
  quantum_break_ = false;
  const u64 instret_end = max_instructions > ~u64{0} - instret_
                              ? ~u64{0}
                              : instret_ + max_instructions;
  while (status_ == Status::kRunning && cycle_ < stop_before &&
         instret_ < instret_end && !quantum_break_) {
    // The fast path engages only where it is provably equivalent to step():
    // user mode, passive hooks (no commit observation possible) and the
    // default cache memory port. All of these can only change inside
    // slow-path events, so they are hoisted out of the hot loop and
    // re-evaluated here after every slow-path instruction.
    if (user_mode_) {
      if ((hooks_ == nullptr || hooks_->passive()) && port_ == cache_port_.get()) {
        run_fast_path<FastMode::kFull>(stop_before, instret_end, nullptr);
        if (status_ != Status::kRunning || cycle_ >= stop_before ||
            instret_ >= instret_end || quantum_break_) {
          break;
        }
      } else if (hooks_ != nullptr && !hooks_->passive()) {
        // Batchable hooks: live (FlexStep segment production or checker
        // replay) but declaring a span over which non-memory commits reduce
        // to a count. With a segment cursor, plain loads/stores ride the fast
        // path too (staged MAL records / in-loop replay compare); without
        // one, memory ops bail to step() per instruction. Custom ISA and the
        // declared boundary itself always stay on the step() path below.
        const u64 batch = hooks_->commit_batch_limit();
        if (batch > 0) {
          const u64 batch_end =
              batch < instret_end - instret_ ? instret_ + batch : instret_end;
          const u64 before = instret_;
          // Upper bound on memory ops this span can commit: its instruction
          // budget, additionally capped by the cycle window (every commit
          // costs at least one cycle) so the hook never stages more than a
          // short quantum could consume.
          u64 window = batch_end - instret_;
          if (stop_before - cycle_ < window) window = stop_before - cycle_;
          // Cursor setup (staging copy, headroom scan, publish) is per-span
          // overhead; under the strict-leapfrog engine spans are a handful of
          // cycles and the cursor cannot pay for itself. Fuse only when the
          // span can plausibly amortize it — below the threshold the batch
          // runs in counting mode exactly as before the fused path existed.
          constexpr u64 kFusedMinWindow = 32;
          SegmentCursor* cursor = window >= kFusedMinWindow
                                       ? hooks_->open_segment_cursor(*this, window)
                                       : nullptr;
          if (cursor != nullptr && cursor->produce && port_ != cache_port_.get()) {
            // Producer staging inlines the cache-port memory path; with any
            // other port installed the fused path would bypass it.
            cursor = nullptr;
          }
          if (cursor == nullptr) {
            run_fast_path<FastMode::kCount>(stop_before, batch_end, nullptr);
          } else if (cursor->produce) {
            run_fast_path<FastMode::kProduce>(stop_before, batch_end, cursor);
          } else {
            run_fast_path<FastMode::kReplay>(stop_before, batch_end, cursor);
          }
          if (instret_ != before) hooks_->on_commit_batch(*this, instret_ - before);
          if (status_ != Status::kRunning || cycle_ >= stop_before ||
              instret_ >= instret_end || quantum_break_) {
            break;
          }
        }
      }
    }
    // Slow path: one instruction (or trap delivery) in full generality.
    {
      step();
    }
  }
  run_exit_ = status_ != Status::kRunning ? RunExit::kStatusChange
              : quantum_break_            ? RunExit::kQuantumBreak
              : cycle_ >= stop_before     ? RunExit::kCycleBound
                                          : RunExit::kInstretBound;
  return status_;
}

template <Core::FastMode M>
void Core::run_fast_path(Cycle stop_before, u64 instret_end,
                         SegmentCursor* cursor) {
  (void)cursor;  // unused in kFull/kCount instantiations
  // Hoisted fetch window: while the PC stays inside the cached image,
  // straight-line fetch is a bounds check and an indexed load off the
  // pre-decoded stream (no registry lookup).
  Addr base = 0;
  Addr end = 0;
  const Instruction* code = nullptr;
  if (image_ != nullptr) {
    base = image_->base;
    end = image_->end;
    code = image_->code.data();
  }

  // The interrupt poll folds into the loop bound: the timer deadline is
  // fixed until a trap handler re-arms it — so running while
  // cycle < min(stop_before, timer_at) polls at every instruction boundary
  // exactly as step() does. Architectural counters live in locals for the
  // duration (the out-of-line cache/memory miss paths would otherwise force
  // reloads every iteration) and are written back on every exit.
  Cycle limit = stop_before;
  if (timer_armed_ && timer_at_ < limit) limit = timer_at_;

  Addr pc = pc_;
  Cycle cycle = cycle_;
  const Cycle cycle_start = cycle_;
  u64 instret = instret_;
  const u64 instret_start = instret_;
  Addr last_line = last_fetch_line_;
  // Counting mode: live hooks must see every memory instruction (CommitInfo
  // logging / replay verification / backpressure pre-check), so the fast set
  // shrinks to the non-memory prefix [kAdd, kJalr] and traces stay off
  // (recorded traces embed inlined loads/stores). The fused modes widen the
  // set back to [kAdd, kSd]: the segment cursor carries the per-quantum MAL
  // staging (produce) or the pre-staged log window (replay), so plain
  // loads/stores commit in-loop and traces re-engage.
  TraceCache* const traces =
      (M == FastMode::kCount) ? nullptr : trace_cache_.get();
  constexpr u8 max_fast_op = static_cast<u8>(
      M == FastMode::kCount ? Opcode::kJalr : Opcode::kSd);

trace_point:
  // Trace dispatch: reached on fast-path entry and after every control
  // transfer (the only places a recorded region can begin). Chain hot traces
  // back-to-back while the quantum has headroom for each trace's worst-case
  // cycle cost and full instruction count — that guarantee is what lets the
  // replay loop skip every per-instruction bound/interrupt check without
  // becoming observable (no interrupt, quantum break or bound can land
  // mid-trace; hooks are passive by the fast path's precondition).
  // The outer guard is constexpr so the kCount instantiation (traces is a
  // literal nullptr) drops the block entirely instead of tripping GCC's
  // null-deref analysis on the statically dead calls.
  if constexpr (M != FastMode::kCount)
  if (traces != nullptr) {
    while (cycle < limit && instret < instret_end && pc - base < end - base) {
      const Trace* t = traces->lookup(pc);
      if (t == nullptr) {
        t = traces->notice_entry(pc, code, base, end);
        if (t == nullptr) break;
      }
      // Replay serves loads/stores from the staged log at a deterministic
      // FIFO stall — no d-cache probe, no load-use penalty — so its dispatch
      // bound drops the data-memory share of worst_cost and charges the exact
      // per-access stall instead. Without the correction, memory-heavy hot
      // traces out-budget an entire checker quantum and never dispatch.
      Cycle worst = t->worst_cost;
      if constexpr (M == FastMode::kReplay) {
        worst = t->worst_cost - t->mem_worst_cost +
                static_cast<Cycle>(t->mem_ops) * cursor->replay_stall;
      }
      bool fits = worst <= limit - cycle;
      if constexpr (M == FastMode::kReplay) {
        // Scheduler-only bound (bulk-consume horizon): the quantum bound only
        // exists to keep this checker's pops in the producer's past, so a
        // trace whose last pop lands strictly below the bound may dispatch
        // even though its tail (trailing ALU / probes / terminal) would
        // overrun — the cycle trajectory is engine-independent, making the
        // overrun unobservable. Quantum tails otherwise fall back to the
        // per-instruction loop and were the dominant trace-coverage loss.
        // An armed timer deadline stays hard (the trap cycle must be exact).
        if (!fits && cursor->allow_bound_overrun &&
            (!timer_armed_ || worst <= timer_at_ - cycle)) {
          fits = t->mem_ops == 0 ||
                 t->last_pop_worst +
                         static_cast<Cycle>(t->mem_ops - 1) *
                             cursor->replay_stall <
                     limit - cycle;
        }
      }
      if (!fits || t->inst_count > instret_end - instret) {
        break;  // near a bound: the stepwise loop below handles the tail
      }
      if constexpr (M == FastMode::kProduce || M == FastMode::kReplay) {
        // Fused gating: every memory op in the trace consumes one cursor
        // slot, so the whole trace must fit the remaining window.
        if (cursor->used + t->mem_ops > cursor->capacity) break;
        if constexpr (M == FastMode::kReplay) {
          // Kind-for-kind pre-check against the staged log window: a
          // diverged or faulted stream falls back to stepwise compare.
          bool kinds_match = true;
          for (u32 i = 0; i < t->mem_ops; ++i) {
            const u8 expect =
                t->mem_kinds[i] != 0 ? cursor->store_kind : cursor->load_kind;
            if (cursor->slots[cursor->used + i].kind != expect) {
              kinds_match = false;
              break;
            }
          }
          if (!kinds_match) break;
        }
      }
      execute_trace<M>(*t, pc, cycle, instret, last_line, cursor);
    }
  }

  while (cycle < limit && instret < instret_end) {
    if (pc - base >= end - base) [[unlikely]] {
      const LoadedImage* img = images_.find(pc);
      if (img == nullptr) break;  // fetch fault: step() raises the trap
      image_ = img;
      base = img->base;
      end = img->end;
      code = img->code.data();
    }
    const Instruction& inst = code[(pc - base) / 4];

    // Slow-path opcodes bail out BEFORE the I-cache probe: step() must see
    // the untouched fetch-line state so it performs the probe (and charges a
    // miss penalty) exactly as the stepwise engine would. The fast-path set
    // is contiguous at the front of the opcode enum, so this is one compare;
    // the switch below handles every opcode in [kAdd, kSd].
    static_assert(static_cast<u8>(Opcode::kAdd) == 0 &&
                      static_cast<u8>(Opcode::kLrD) ==
                          static_cast<u8>(Opcode::kSd) + 1,
                  "fast-path opcode range must stay contiguous");
    static_assert(static_cast<u8>(Opcode::kLb) ==
                      static_cast<u8>(Opcode::kJalr) + 1,
                  "counting-mode opcode range must end where memory ops begin");
    if (static_cast<u8>(inst.op) > max_fast_op) goto writeback;

    if constexpr (M == FastMode::kProduce || M == FastMode::kReplay) {
      // Memory ops must clear the cursor BEFORE the I-probe: a bail-out to
      // step() has to leave the fetch-line state untouched so step() performs
      // (and charges) the probe exactly as the stepwise engine would.
      if (static_cast<u8>(inst.op) >= static_cast<u8>(Opcode::kLb)) {
        if (cursor->used == cursor->capacity) goto writeback;
        if constexpr (M == FastMode::kReplay) {
          const bool is_store =
              static_cast<u8>(inst.op) >= static_cast<u8>(Opcode::kSb);
          const u8 expect = is_store ? cursor->store_kind : cursor->load_kind;
          if (cursor->slots[cursor->used].kind != expect) goto writeback;
        }
      }
    }

    Cycle cost = 1;
    const Addr fetch_line = pc >> 6;
    if (fetch_line != last_line) {
      cost += caches_.fetch(pc);
      last_line = fetch_line;
    }

    Addr next_pc = pc + 4;
    u64 rd_value = 0;
    bool write_rd = true;  // cleared by stores and conditional branches

    const Addr addr = regs_[inst.rs1] + static_cast<u64>(static_cast<i64>(inst.imm));

    // Plain loads and stores: inlined CachePort (the default port is
    // guaranteed) in the plain modes; in the fused ones the cursor protocol,
    // at the pre-commit clock `cycle` (replay) or the post-commit clock
    // `cycle + cost` (produce: nothing is added after the data probe).
    const auto load = [&](u32 bytes) __attribute__((always_inline)) -> u64 {
      if constexpr (M == FastMode::kReplay) {
        cost += cursor->replay_stall;
        return replay_access(*cursor, false, addr, 0, cycle);
      } else {
        cost += caches_.data(addr) + config_.load_use_penalty;
        const u64 value = memory_.read(addr, bytes);
        if constexpr (M == FastMode::kProduce) {
          stage_access(*cursor, false, bytes, addr, value, cycle + cost);
        }
        return value;
      }
    };
    const auto store = [&](u32 bytes) __attribute__((always_inline)) {
      const u64 data = store_data(bytes, regs_[inst.rs2]);
      write_rd = false;
      if constexpr (M == FastMode::kReplay) {
        replay_access(*cursor, true, addr, data, cycle);
        cost += cursor->replay_stall;  // checker never writes memory
      } else {
        cost += caches_.data(addr);
        // Reservation invalidation happens inside Memory's write path (the
        // shared registry), identically for every store flavour and core.
        memory_.write(addr, bytes, data);
        if constexpr (M == FastMode::kProduce) {
          stage_access(*cursor, true, bytes, addr, data, cycle + cost);
        }
      }
    };

    // Memory cases split by width, so each access is a fixed-size move.
    // Slow-path opcodes never get here (bailed out above).
    switch (inst.op) {
      case Opcode::kLb:
      case Opcode::kLbu: rd_value = extend_load(inst.op, load(1)); break;
      case Opcode::kLh:
      case Opcode::kLhu: rd_value = extend_load(inst.op, load(2)); break;
      case Opcode::kLw:
      case Opcode::kLwu: rd_value = extend_load(inst.op, load(4)); break;
      case Opcode::kLd: rd_value = load(8); break;
      case Opcode::kSb: store(1); break;
      case Opcode::kSh: store(2); break;
      case Opcode::kSw: store(4); break;
      case Opcode::kSd: store(8); break;
      default: cost += execute_prefix(inst, pc, rd_value, write_rd, next_pc);
    }

    // ---- commit (mirrors step(); hooks are passive by precondition) ----
    if (write_rd && inst.rd != 0) regs_[inst.rd] = rd_value;
    cycle += cost;
    ++instret;
    {
      const bool transfer = next_pc != pc + 4;
      pc = next_pc;
      // Control transfers land on block entries — the only PCs a trace can
      // start at. Re-attempt trace dispatch there (also counts entry heat).
      if (transfer && traces != nullptr) goto trace_point;
    }
  }

writeback:
  pc_ = pc;
  cycle_ = cycle;
  instret_ = instret;
  const u64 retired = instret - instret_start;
  user_instret_ += retired;  // fast path runs in user mode only
  // Identity: every instruction charges cost = 1 + stall, so the summed stall
  // is the cycle delta minus the retired count (exactly step()'s accounting).
  stall_cycles_ += (cycle - cycle_start) - retired;
  last_fetch_line_ = last_line;
}

template void Core::run_fast_path<Core::FastMode::kFull>(Cycle, u64,
                                                         SegmentCursor*);
template void Core::run_fast_path<Core::FastMode::kCount>(Cycle, u64,
                                                          SegmentCursor*);
template void Core::run_fast_path<Core::FastMode::kProduce>(Cycle, u64,
                                                            SegmentCursor*);
template void Core::run_fast_path<Core::FastMode::kReplay>(Cycle, u64,
                                                           SegmentCursor*);

// ---------------------------------------------------------------------------
// Trace replay.
//
// On GCC/Clang the dispatch is threaded (computed goto): every
// superinstruction ends in its own indirect jump, so the host BTB learns
// per-op successor patterns instead of thrashing one shared switch jump
// (Ertl & Gregg, "The Structure and Performance of Efficient Interpreters").
// The portable fallback is a conventional switch loop with identical bodies.
// ---------------------------------------------------------------------------
#if defined(__GNUC__) || defined(__clang__)
#define FLEX_TRACE_THREADED 1
#endif

#if FLEX_TRACE_THREADED
#define TRACE_OP(name) lbl_##name:
#define TRACE_NEXT() do { ++op; goto *kDispatch[op->kind]; } while (0)
#else
#define TRACE_OP(name) case TraceOpKind::name:
#define TRACE_NEXT() break
#endif
#define TRACE_DONE() goto trace_done

// Mode-routed accumulators. The plain modes keep the original scheme: static
// costs pre-summed in t.base_cost, `extra` collects dynamic stalls. The fused
// modes additionally need the per-instruction commit clock at each memory op
// (produce stamps records with it, replay compares at it), so they thread a
// running clock `rc` through the handlers instead:
//   - TRACE_STATIC(c) folds an op's static cost into rc;
//   - replay defers fetch-probe costs in `carry` until the next fold, because
//     a probe precedes its instruction and the replay compare stamp is the
//     PRE-commit clock, which excludes the instruction's own probe;
//   - terminal-op dynamic costs (mispredict/redirect) still go through
//     `extra` in every mode — terminals commit after every memory op, so
//     their placement relative to rc is unobservable.
#define TRACE_STATIC(c)                             \
  do {                                              \
    if constexpr (M == FastMode::kReplay) {         \
      rc += carry + (c);                            \
      carry = 0;                                    \
    } else if constexpr (M == FastMode::kProduce) { \
      rc += (c);                                    \
    }                                               \
  } while (0)
#define TRACE_PROBE(pc_expr)                              \
  do {                                                    \
    const Cycle probe_cost = caches_.fetch(pc_expr);      \
    if constexpr (M == FastMode::kReplay) {               \
      carry += probe_cost;                                \
    } else if constexpr (M == FastMode::kProduce) {       \
      rc += probe_cost;                                   \
    } else {                                              \
      extra += probe_cost;                                \
    }                                                     \
  } while (0)

template <Core::FastMode M>
void Core::execute_trace(const Trace& t, Addr& pc, Cycle& cycle, u64& instret,
                         Addr& last_line, SegmentCursor* cursor) {
  (void)cursor;  // unused in the plain instantiations
  // Dynamic stalls only (plain modes); every static cost (1/inst,
  // multiplier/divider latency, load-use bubbles) was pre-summed into
  // t.base_cost at record time. Equivalence with the stepwise loop holds
  // because all state-bearing probes (I-fetch, D-cache, BHT/BTB/RAS) still
  // run in program order and the per-instruction commits only differ in WHEN
  // the shared counters are summed — never in what any probe or operand
  // observes: within a trace no instruction reads cycle/instret (CSR reads
  // are slow-path), and x0 stays zero because ops writing it were dropped at
  // record time (their cost rides the kStaticCost pseudo-op).
  Cycle extra = 0;
  [[maybe_unused]] Cycle rc = cycle;
  [[maybe_unused]] Cycle carry = 0;
  if ((t.entry_pc >> 6) != last_line) TRACE_PROBE(t.entry_pc);
  Addr next_pc = t.exit_pc;
  u64* const regs = regs_.data();
  const TraceOp* op = t.ops.data();

  // ALU op `kind` on trace op `o` (never into x0: dropped at record time).
  const auto exec_alu = [regs](Opcode kind, const TraceOp* o) __attribute__((always_inline)) {
    regs[o->rd] = alu(kind, regs[o->rs1], alu_operand(kind, regs, o->rs2, o->imm));
  };
  // Terminal conditional branch at `bpc`.
  const auto branch = [&](Opcode kind, u64 a, u64 b, Addr bpc) __attribute__((always_inline)) {
    const bool taken = branch_taken(kind, a, b);
    extra += resolve_branch(bpc, taken);
    if (taken) next_pc = op->target;
  };
  // Plain loads and stores of the current op. Replay compares at the
  // PRE-commit clock: rc before folding the op's own cost (carry holds any
  // preceding probe). Produce stages at the post-commit clock, after folding
  // the full cost.
  const auto load = [&](u32 bytes) __attribute__((always_inline)) -> u64 {
    const Addr addr = regs[op->rs1] + static_cast<u64>(static_cast<i64>(op->imm));
    if constexpr (M == FastMode::kReplay) {
      const u64 value = replay_access(*cursor, false, addr, 0, rc);
      rc += carry + 1 + cursor->replay_stall;
      carry = 0;
      return value;
    } else {
      const Cycle dstall = caches_.data(addr);
      const u64 value = memory_.read(addr, bytes);
      if constexpr (M == FastMode::kProduce) {
        rc += 1 + config_.load_use_penalty + dstall;
        stage_access(*cursor, false, bytes, addr, value, rc);
      } else {
        extra += dstall;
      }
      return value;
    }
  };
  const auto store = [&](u32 bytes) __attribute__((always_inline)) {
    const Addr addr = regs[op->rs1] + static_cast<u64>(static_cast<i64>(op->imm));
    const u64 data = store_data(bytes, regs[op->rs2]);
    if constexpr (M == FastMode::kReplay) {
      replay_access(*cursor, true, addr, data, rc);
      rc += carry + 1 + cursor->replay_stall;
      carry = 0;
    } else {
      const Cycle dstall = caches_.data(addr);
      memory_.write(addr, bytes, data);
      if constexpr (M == FastMode::kProduce) {
        rc += 1 + dstall;
        stage_access(*cursor, true, bytes, addr, data, rc);
      } else {
        extra += dstall;
      }
    }
  };

#if FLEX_TRACE_THREADED
#define FLEX_TRACE_LABEL(name) &&lbl_##name,
#define FLEX_TRACE_PAIR_LABEL(name, first, second) &&lbl_kPair##name,
  static const void* const kDispatch[] = {
      FLEX_TRACE_KIND_LIST(FLEX_TRACE_LABEL)
      FLEX_TRACE_PAIR_LIST(FLEX_TRACE_PAIR_LABEL)};
#undef FLEX_TRACE_PAIR_LABEL
#undef FLEX_TRACE_LABEL
  goto *kDispatch[op->kind];
#else
  for (;;) {
    switch (static_cast<TraceOpKind>(op->kind)) {
#endif

  // ---- ALU (shift amounts pre-masked at record time) ----
#define FLEX_TRACE_ALU_HANDLER(name)                 \
  TRACE_OP(name)                                     \
    TRACE_STATIC(isa::opcode_latency(Opcode::name)); \
    exec_alu(Opcode::name, op);                      \
    TRACE_NEXT();
  FLEX_ALU_OPS(FLEX_TRACE_ALU_HANDLER)
#undef FLEX_TRACE_ALU_HANDLER
  TRACE_OP(kLui)  // immediate recorded pre-shifted
    TRACE_STATIC(1);
    regs[op->rd] = static_cast<u64>(static_cast<i64>(op->imm));
    TRACE_NEXT();

  // ---- terminal control transfers ----
#define FLEX_TRACE_BRANCH_HANDLER(name)                  \
  TRACE_OP(name)                                         \
    TRACE_STATIC(1);                                     \
    branch(Opcode::name, regs[op->rs1], regs[op->rs2],   \
           t.entry_pc + static_cast<Addr>(op->imm) * 4); \
    TRACE_DONE();
  FLEX_BRANCH_OPS(FLEX_TRACE_BRANCH_HANDLER)
#undef FLEX_TRACE_BRANCH_HANDLER
  TRACE_OP(kJal) {
    TRACE_STATIC(1);
    const Addr jpc = t.entry_pc + static_cast<Addr>(op->imm) * 4;
    extra += resolve_jal(jpc, op->target, op->rd);
    if (op->rd != 0) regs[op->rd] = jpc + 4;
    next_pc = op->target;
  }
  TRACE_DONE();
  TRACE_OP(kJalr) {
    TRACE_STATIC(1);
    const Addr jpc = op->target;
    const Addr target =
        (regs[op->rs1] + static_cast<u64>(static_cast<i64>(op->imm))) & ~u64{1};
    extra += resolve_jalr(jpc, target, op->rd, op->rs1);
    if (op->rd != 0) regs[op->rd] = jpc + 4;
    next_pc = target;
  }
  TRACE_DONE();

  // ---- loads and stores (load-use bubble folded into base_cost / rc) ----
#define FLEX_TRACE_LOAD_HANDLER(name)                                 \
  TRACE_OP(name) {                                                    \
    const u64 value = load(isa::mem_access_bytes(Opcode::name));      \
    if (op->rd != 0) regs[op->rd] = extend_load(Opcode::name, value); \
  }                                                                   \
  TRACE_NEXT();
  FLEX_LOAD_OPS(FLEX_TRACE_LOAD_HANDLER)
#undef FLEX_TRACE_LOAD_HANDLER
#define FLEX_TRACE_STORE_HANDLER(name)          \
  TRACE_OP(name)                                \
    store(isa::mem_access_bytes(Opcode::name)); \
    TRACE_NEXT();
  FLEX_STORE_OPS(FLEX_TRACE_STORE_HANDLER)
#undef FLEX_TRACE_STORE_HANDLER

  // ---- pseudo-ops ----
  TRACE_OP(kIFetchProbe) TRACE_PROBE(op->target); TRACE_NEXT();
  TRACE_OP(kExit) TRACE_DONE();
  TRACE_OP(kStaticCost)
    // Cost of ops elided at record time (ALU writes into x0); carried as an
    // explicit op so the fused modes keep the running clock in program order.
    TRACE_STATIC(static_cast<Cycle>(op->imm));
    TRACE_NEXT();

  // ---- fused superinstructions (both commits, in order) ----
  TRACE_OP(kLdAddAcc) {
    const u64 value = load(8);
    regs[op->rd] = value;  // fusion guarantees rd != 0
    regs[op->rs2] += value;
    TRACE_STATIC(1);  // the fused add's own commit cycle
  }
  TRACE_NEXT();
  TRACE_OP(kLdXorAcc) {
    const u64 value = load(8);
    regs[op->rd] = value;
    regs[op->rs2] ^= value;
    TRACE_STATIC(1);
  }
  TRACE_NEXT();
  TRACE_OP(kAndiBne)
    TRACE_STATIC(2);
    exec_alu(Opcode::kAndi, op);
    branch(Opcode::kBne, regs[op->rd], 0, t.entry_pc + static_cast<Addr>(op->rs2) * 4);
    TRACE_DONE();
  TRACE_OP(kAndiBeq)
    TRACE_STATIC(2);
    exec_alu(Opcode::kAndi, op);
    branch(Opcode::kBeq, regs[op->rd], 0, t.entry_pc + static_cast<Addr>(op->rs2) * 4);
    TRACE_DONE();
  TRACE_OP(kMulAddi)
    TRACE_STATIC(isa::opcode_latency(Opcode::kMul) + 1);
    regs[op->rd] = regs[op->rs1] * regs[op->rs2] +
                   static_cast<u64>(static_cast<i64>(op->imm));
    TRACE_NEXT();
  TRACE_OP(kAndAdd)
    TRACE_STATIC(2);
    regs[op->rd] = regs[static_cast<u8>(op->imm)] + (regs[op->rs1] & regs[op->rs2]);
    TRACE_NEXT();

  // ---- generic ALU pairs: first half in the pair op, second in the payload
  // slot it consumes. Sequential execution keeps intra-pair dependencies
  // (second half reading the first's rd) exact. ----
#define FLEX_TRACE_PAIR_HANDLER(name, first, second) \
  TRACE_OP(kPair##name)                              \
    TRACE_STATIC(2);                                 \
    exec_alu(Opcode::k##first, op);                  \
    ++op;                                            \
    exec_alu(Opcode::k##second, op);                 \
    TRACE_NEXT();
  FLEX_TRACE_PAIR_LIST(FLEX_TRACE_PAIR_HANDLER)
#undef FLEX_TRACE_PAIR_HANDLER

#if !FLEX_TRACE_THREADED
    }
    ++op;
  }
#endif

trace_done:
  pc = next_pc;
  if constexpr (M == FastMode::kProduce || M == FastMode::kReplay) {
    // rc already carries every static cost in program order; any probe cost
    // still parked in carry belongs to the terminal op, as do the dynamic
    // stalls in extra. Identical to base_cost + extra by construction — the
    // per-op folds partition the same sum.
    cycle = rc + carry + extra;
  } else {
    cycle += t.base_cost + extra;
  }
  instret += t.inst_count;
  last_line = t.exit_line;
  trace_cache_->count_dispatch(t.inst_count);
}

#undef TRACE_OP
#undef TRACE_NEXT
#undef TRACE_DONE
#undef TRACE_STATIC
#undef TRACE_PROBE

template void Core::execute_trace<Core::FastMode::kFull>(const Trace&, Addr&,
                                                         Cycle&, u64&, Addr&,
                                                         SegmentCursor*);
template void Core::execute_trace<Core::FastMode::kProduce>(const Trace&,
                                                            Addr&, Cycle&,
                                                            u64&, Addr&,
                                                            SegmentCursor*);
template void Core::execute_trace<Core::FastMode::kReplay>(const Trace&, Addr&,
                                                           Cycle&, u64&, Addr&,
                                                           SegmentCursor*);

Core::Status Core::step() {
  if (status_ != Status::kRunning) return status_;
  if (poll_interrupts()) return status_;

  // ---- fetch ----
  if (image_ == nullptr || !image_->contains(pc_)) {
    image_ = images_.find(pc_);
    if (image_ == nullptr) {
      take_trap(TrapCause::kFetchFault);
      return status_;
    }
  }
  const Instruction& inst = image_->at(pc_);

  Cycle cost = 1;
  const Addr fetch_line = pc_ >> 6;
  if (fetch_line != last_fetch_line_) {
    cost += caches_.fetch(pc_);
    last_fetch_line_ = fetch_line;
  }

  // ---- DBC backpressure pre-check (FlexStep main core, Sec. III-C) ----
  if (isa::is_memory(inst.op) && hooks_ != nullptr &&
      !hooks_->memory_can_commit(*this, inst)) {
    status_ = Status::kBlocked;
    return status_;
  }

  Addr next_pc = pc_ + 4;
  u64 rd_value = 0;
  bool write_rd = false;
  bool is_trap_op = false;
  TrapCause trap_cause = TrapCause::kEcall;

  CommitInfo info;
  info.pc = pc_;
  info.inst = &inst;
  info.user_mode = user_mode_;

  const u64 a = regs_[inst.rs1];  // NOLINT: x0 reads as 0 by invariant
  const u64 b = regs_[inst.rs2];
  const auto imm = static_cast<i64>(inst.imm);

  switch (inst.op) {
    // ---- ALU, conditional branches, jumps ----
    FLEX_ALU_OPS(FLEX_CASE)
    FLEX_BRANCH_OPS(FLEX_CASE)
    case Opcode::kLui:
    case Opcode::kJal:
    case Opcode::kJalr:
      cost += execute_prefix(inst, pc_, rd_value, write_rd, next_pc);
      break;

    // ---- loads ----
    FLEX_LOAD_OPS(FLEX_CASE) {
      const Addr addr = a + static_cast<u64>(imm);
      const u32 bytes = isa::mem_access_bytes(inst.op);
      const MemResult r = port_->load(inst.op, addr, bytes);
      cost += r.stall;
      rd_value = extend_load(inst.op, r.data);
      write_rd = true;
      info.mem_valid = true;
      info.mem_addr = addr;
      info.mem_rdata = r.data;
      info.mem_bytes = bytes;
      break;
    }

    // ---- stores ----
    FLEX_STORE_OPS(FLEX_CASE) {
      const Addr addr = a + static_cast<u64>(imm);
      const u32 bytes = isa::mem_access_bytes(inst.op);
      const u64 data = store_data(bytes, b);
      const MemResult r = port_->store(inst.op, addr, bytes, data);
      cost += r.stall;
      info.mem_valid = true;
      info.mem_addr = addr;
      info.mem_wdata = data;
      info.mem_bytes = bytes;
      break;
    }

    // ---- atomics ----
    case Opcode::kLrD: {
      const Addr addr = a;
      const MemResult r = port_->load_reserved(addr);
      cost += r.stall;
      rd_value = r.data;
      write_rd = true;
      info.mem_valid = true;
      info.mem_addr = addr;
      info.mem_rdata = r.data;
      info.mem_bytes = 8;
      break;
    }
    case Opcode::kScD: {
      const Addr addr = a;
      const MemResult r = port_->store_conditional(addr, b);
      cost += r.stall;
      rd_value = r.data;  // 0 = success
      write_rd = true;
      info.mem_valid = true;
      info.mem_addr = addr;
      info.mem_wdata = b;
      info.mem_rdata = r.data;
      info.mem_bytes = 8;
      info.sc_success = r.data == 0;
      break;
    }
    case Opcode::kAmoaddD:
    case Opcode::kAmoswapD:
    case Opcode::kAmoxorD:
    case Opcode::kAmoandD:
    case Opcode::kAmoorD: {
      const Addr addr = a;
      const MemResult r = port_->amo(inst.op, addr, b);
      cost += r.stall;
      rd_value = r.data;  // old value
      write_rd = true;
      info.mem_valid = true;
      info.mem_addr = addr;
      info.mem_wdata = b;
      info.mem_rdata = r.data;
      info.mem_bytes = 8;
      break;
    }

    // ---- system ----
    case Opcode::kEcall:
      if (!suppress_traps_) {
        is_trap_op = true;
        trap_cause = TrapCause::kEcall;
      }
      break;
    case Opcode::kHalt:
      if (!suppress_traps_) {
        is_trap_op = true;
        trap_cause = TrapCause::kTaskExit;
      }
      break;
    case Opcode::kMret:
      // Guest-level trap return (the host kernel model normally bypasses this).
      user_mode_ = true;
      next_pc = csr_mepc_;
      if (hooks_ != nullptr) hooks_->on_exit_kernel(*this);
      break;
    case Opcode::kWfi:
      cycle_ += cost;
      ++instret_;
      if (user_mode_) ++user_instret_;
      pc_ = next_pc;
      status_ = Status::kWaitingInterrupt;
      return status_;
    case Opcode::kFence:
      cost += 1;
      break;
    case Opcode::kCsrrw:
      rd_value = read_csr(static_cast<u16>(inst.imm));
      write_rd = inst.rd != 0;
      write_csr(static_cast<u16>(inst.imm), a);
      break;
    case Opcode::kCsrrs:
      rd_value = read_csr(static_cast<u16>(inst.imm));
      write_rd = inst.rd != 0;
      if (inst.rs1 != 0) write_csr(static_cast<u16>(inst.imm), rd_value | a);
      break;

    // ---- FlexStep custom ISA ----
    case Opcode::kGIdsContain:
    case Opcode::kGConfigure:
    case Opcode::kMAssociate:
    case Opcode::kMCheck:
    case Opcode::kCCheckState:
    case Opcode::kCRecord:
    case Opcode::kCApply:
    case Opcode::kCJal:
    case Opcode::kCResult:
      if (hooks_ == nullptr) {
        take_trap(TrapCause::kIllegal);
        return status_;
      }
      rd_value = hooks_->exec_custom(*this, inst);
      write_rd = isa::opcode_format(inst.op) == isa::Format::kR && inst.rd != 0;
      // A hook may redirect the PC (C.jal jumps to the SCP's npc). Detect the
      // redirect and route it through the normal commit path.
      if (pc_ != info.pc) {
        next_pc = pc_;
        pc_ = info.pc;
      }
      break;

    case Opcode::kCount_:
      take_trap(TrapCause::kIllegal);
      return status_;
  }

  // ---- commit ----
  if (write_rd && inst.rd != 0) regs_[inst.rd] = rd_value;
  regs_[0] = 0;
  stall_cycles_ += cost - 1;
  cycle_ += cost;
  ++instret_;
  if (user_mode_) ++user_instret_;
  if (hooks_ != nullptr) {
    info.next_pc = is_trap_op ? pc_ + 4 : next_pc;
    const Addr pc_before_hooks = pc_;
    const Cycle extra = hooks_->on_commit(*this, info);
    stall_cycles_ += extra;
    cycle_ += extra;
    if (pc_ != pc_before_hooks) {
      // The hook installed a new context (checker replay completed and the
      // thread context was restored, possibly followed by the next segment's
      // C.apply/C.jal). Honour the hook's PC instead of the fall-through.
      return status_;
    }
  }

  if (is_trap_op) {
    // pc_ still addresses the trapping instruction (mepc = pc_+4 for ecall).
    take_trap(trap_cause);
    return status_;
  }

  pc_ = next_pc;
  return status_;
}

u64 Core::exec_kernel_instruction(const Instruction& inst) {
  FLEX_CHECK_MSG(!user_mode_, "kernel instruction executed in user mode");
  FLEX_CHECK_MSG(hooks_ != nullptr, "FlexStep custom ISA requires attached hooks");
  FLEX_CHECK_MSG(isa::is_flexstep_custom(inst.op), "only FlexStep ops via this path");
  const u64 value = hooks_->exec_custom(*this, inst);
  if (isa::opcode_format(inst.op) == isa::Format::kR && inst.rd != 0) {
    regs_[inst.rd] = value;
  }
  cycle_ += 1;
  ++instret_;
  return value;
}

}  // namespace flexstep::arch
