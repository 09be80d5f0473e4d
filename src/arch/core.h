// In-order scalar core modelled after Rocket (paper Tab. II): 5-stage pipeline
// timing, private L1 caches over a shared L2, BHT/BTB/RAS branch prediction,
// user/kernel privilege, traps and a local timer.
//
// The core is FlexStep-agnostic: the FlexStep per-core unit attaches through
// CoreHooks (commit observation, custom ISA) and MemPort (checker replay).
#pragma once

#include <array>
#include <memory>

#include "arch/arch_state.h"
#include "arch/config.h"
#include "arch/memory.h"
#include "arch/ports.h"
#include "arch/program_image.h"
#include "arch/trap.h"
#include "common/types.h"
#include "isa/csr.h"

namespace flexstep::arch {

struct Trace;
struct TraceTables;
class TraceCache;

/// "No cycle bound" sentinel for Core::run_until.
inline constexpr Cycle kNoCycleBound = ~Cycle{0};

/// Why the last run_until() burst returned. The co-simulation driver reads
/// this after every quantum to attribute burst ends (soc::CosimStats — hook
/// break vs scheduling bound vs status change); tests use it to pin the
/// zero-progress classification the drivers' progress guard relies on.
enum class RunExit : u8 {
  kNone,          ///< No run_until() has completed yet.
  kStatusChange,  ///< Core left kRunning (halt, block, WFI, idle).
  kCycleBound,    ///< Local clock reached stop_before.
  kInstretBound,  ///< max_instructions commits retired.
  kQuantumBreak,  ///< A hook requested the quantum end (cross-core event).
};

class Core : private ReservationObserver {
 public:
  enum class Status : u8 {
    kIdle,              ///< Parked by the kernel; nothing to run.
    kRunning,
    kBlocked,           ///< Stalled on DBC backpressure.
    kWaitingInterrupt,  ///< WFI retired; waiting for a timer interrupt.
    kHalted,            ///< HALT retired with no scheduler attached.
  };

  Core(CoreId id, const CoreConfig& config, Memory& memory, const ImageRegistry& images,
       Cache* shared_l2);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;
  ~Core();

  /// Complete per-core state: architectural registers and CSRs, private-cache
  /// tags, branch-predictor tables, LR/SC reservation, interrupt/timer state,
  /// clocks and counters. Does NOT include the extension seams (hooks, trap
  /// handler, memory port) — those are ownership wiring, re-established by
  /// whoever restores the snapshot (fs::CoreUnit, soc::VerifiedExecution).
  /// The trace tables ride along by reference, host-only.
  struct Snapshot {
    // Architectural state.
    std::array<u64, 32> regs{};
    Addr pc = 0;
    bool user_mode = true;
    u64 csr_mepc = 0;
    u64 csr_mcause = 0;
    u64 csr_mscratch = 0;

    // Microarchitectural state.
    CacheHierarchy::Snapshot caches;
    BranchPredictor::Snapshot bpred;
    Addr last_fetch_line = ~Addr{0};
    Addr reservation_addr = 0;
    bool reservation_valid = false;

    // Time & counters.
    Cycle cycle = 0;
    u64 instret = 0;
    u64 user_instret = 0;
    u64 stall_cycles = 0;
    u64 mispredicts = 0;

    // Interrupts & status.
    Cycle timer_at = 0;
    bool timer_armed = false;
    bool suppress_traps = false;
    Status status = Status::kRunning;

    /// The trace cache's tables, shared with the core that saved them (and
    /// every other holder). Host-only: never serialized, never digested, not
    /// counted by bytes(). nullptr when tracing is off, the cache is empty,
    /// or the snapshot was decoded from a file.
    std::shared_ptr<const TraceTables> traces;

    std::size_t bytes() const { return sizeof(*this) + caches.bytes() + bpred.bytes(); }

    template <class Ar>
    void transfer(Ar& ar);
  };

  void save(Snapshot& out) const;
  void restore(const Snapshot& snapshot);

  // ---- execution ----

  /// Execute (at most) one instruction; advances the local clock. This is the
  /// reference (stepwise) engine: one image lookup, hook dispatch and virtual
  /// MemPort dispatch per retired instruction.
  Status step();

  /// Batched engine: execute until the status leaves kRunning or
  /// `max_instructions` commit. Produces bit-identical architectural state,
  /// cycle counts and hook observations to an equivalent step() loop (the
  /// fast path only engages where hooks/ports provably cannot observe the
  /// difference); tests/test_exec_engine.cpp holds it to that.
  Status run(u64 max_instructions);

  /// Batched engine with a local-clock quantum: execute while
  /// `cycle() < stop_before` (and `max_instructions` has not been reached and
  /// no quantum end was requested). Co-simulation drivers use this to advance
  /// one core in a burst exactly as long as the stepwise scheduler would have
  /// kept picking it.
  Status run_until(Cycle stop_before, u64 max_instructions = ~u64{0});

  /// End the current run_until() quantum after the in-flight instruction
  /// commits. Called (transitively) by hooks when the core performs an action
  /// another core could observe "in the past" of this core's clock — e.g.
  /// completing a checking segment or freeing DBC space a blocked producer
  /// waits on — so the driver can reschedule.
  void request_quantum_end() { quantum_break_ = true; }

  /// Why the most recent run_until() returned (kNone before the first one).
  RunExit last_run_exit() const { return run_exit_; }

  // ---- identity & time ----

  CoreId id() const { return id_; }
  Cycle cycle() const { return cycle_; }
  /// Move the local clock forward (never backward).
  void advance_to(Cycle c) { if (c > cycle_) cycle_ = c; }
  void add_cycles(Cycle c) { cycle_ += c; }
  u64 instret() const { return instret_; }
  u64 user_instret() const { return user_instret_; }

  // ---- extension seams ----

  void set_hooks(CoreHooks* hooks) { hooks_ = hooks; }
  CoreHooks* hooks() const { return hooks_; }
  void set_trap_handler(TrapHandler* handler) { handler_ = handler; }
  /// Install a replacement data-memory port (nullptr restores the cache port).
  void set_mem_port(MemPort* port);
  MemPort& cache_mem_port();

  // ---- privileged API (kernel model & FlexStep units) ----

  ArchState capture_state() const;
  void restore_state(const ArchState& state);

  Addr pc() const { return pc_; }
  void set_pc(Addr pc) { pc_ = pc; }
  u64 reg(u8 index) const { return regs_[index]; }
  void set_reg(u8 index, u64 value) {
    if (index != 0) regs_[index] = value;
  }
  bool user_mode() const { return user_mode_; }
  void set_user_mode(bool user) { user_mode_ = user; }

  u64 read_csr(u16 csr) const;
  void write_csr(u16 csr, u64 value);

  void set_timer(Cycle at) {
    timer_at_ = at;
    timer_armed_ = true;
  }
  void clear_timer() { timer_armed_ = false; }
  bool timer_armed() const { return timer_armed_; }
  Cycle timer_at() const { return timer_at_; }

  // ---- status transitions ----

  Status status() const { return status_; }
  /// Backpressure release: resume no earlier than `at`.
  void unblock_at(Cycle at);
  /// Kernel preemption of a blocked core: resume immediately (the pending
  /// instruction never committed and will re-execute under the new context).
  void cancel_block();
  /// Wake from WFI at cycle `at`.
  void wake(Cycle at);
  void set_idle() { status_ = Status::kIdle; }
  void activate() { status_ = Status::kRunning; }
  void halt() { status_ = Status::kHalted; }

  /// Checker replay: ECALL/HALT were committed by the main core as ordinary
  /// user instructions (the kernel excursion itself is not replayed), so the
  /// replaying core must treat them as no-ops instead of trapping.
  void set_trap_suppression(bool on) { suppress_traps_ = on; }

  /// Deliver a pending trap to a non-running core (kernel tick on a blocked /
  /// waiting core). Sets the clock to `at`, cancels the block, and traps.
  void deliver_interrupt(TrapCause cause, Cycle at);

  // ---- kernel-mode instruction execution ----

  /// Execute one instruction in kernel mode through the normal decode/execute
  /// path (used by the kernel model for the FlexStep custom ISA, Alg. 1/2).
  /// Returns the rd value (0 for instructions without a result).
  u64 exec_kernel_instruction(const isa::Instruction& inst);

  // ---- microarchitectural state & stats ----

  CacheHierarchy& caches() { return caches_; }
  BranchPredictor& bpred() { return bpred_; }
  u64 stall_cycles() const { return stall_cycles_; }
  u64 mispredicts() const { return mispredicts_; }

  /// Superinstruction trace cache (nullptr when disabled by CoreConfig).
  /// Host-only state: save() shares its tables into the snapshot, restore()
  /// adopts them (or flushes when the snapshot carries none).
  const TraceCache* trace_cache() const { return trace_cache_.get(); }

  /// Pre-record traces at statically-identified hot block entries (analysis
  /// trace_seeds), bypassing the heat counters. Returns how many seeds ended
  /// up covered. Host-speed only — seeded traces replay bit-identically to
  /// stepping, like every trace. Seeds whose pc lies outside any loaded
  /// image are skipped; no-op (returns 0) when tracing is disabled.
  u32 seed_traces(const std::vector<Addr>& seeds);

 private:
  class CachePort;  // default MemPort through the cache hierarchy

  void take_trap(TrapCause cause);
  /// Returns true if an interrupt was taken (step must return).
  bool poll_interrupts();

  // Fast-path opcode semantics, defined once in core.cpp and inlined into
  // each execution path: step() and run_fast_path() run ALU ops, branches
  // and jumps through execute_prefix; trace replay calls resolve_*() itself.

  /// Execute one opcode below kLb (ALU, conditional branch, jump) at `pc`:
  /// sets rd_value and write_rd, next_pc on a transfer, and returns the
  /// cycles beyond the base one.
  inline Cycle execute_prefix(const isa::Instruction& inst, Addr pc, u64& rd_value,
                              bool& write_rd, Addr& next_pc);
  /// Control-transfer timing: probe and train the predictor, count a
  /// mispredict, and return the cycles the transfer adds.
  inline Cycle resolve_branch(Addr pc, bool taken);
  inline Cycle resolve_jal(Addr pc, Addr target, u8 rd);
  inline Cycle resolve_jalr(Addr pc, Addr target, u8 rd, u8 rs1);

  /// Fast-path engagement modes for the batched engine (template parameter so
  /// each variant compiles to its own branch-free hot loop):
  ///   * kFull    — hooks passive: every fast-path opcode inlines, traces on.
  ///   * kCount   — hooks active but batchable, no segment cursor: memory
  ///     instructions bail to step() (full CommitInfo + backpressure
  ///     pre-check) and traces stay off — with every load/store leaving the
  ///     loop per instruction, trace replay would only add overhead. kCount
  ///     never dispatches a trace, so execute_trace has no kCount variant.
  ///   * kProduce — segment cursor staging MAL records: plain loads/stores
  ///     execute normally and append (addr, data, post-commit cycle) records;
  ///     traces on, gated on cursor headroom.
  ///   * kReplay  — segment cursor holding staged log entries: loads are
  ///     served from the log, stores verified against it, mismatches reported
  ///     through the cursor callback at the pre-commit clock; traces on,
  ///     gated on a kind-for-kind match of the staged prefix.
  /// The caller reports the retired count of kCount/kProduce/kReplay spans
  /// through on_commit_batch, which also publishes/retires cursor records.
  enum class FastMode : u8 { kFull, kCount, kProduce, kReplay };

  /// Hot loop of the batched engine: executes fast-path instructions (ALU,
  /// branches, jumps, plain loads/stores) while no slow-path condition holds.
  /// Returns when a slow-path instruction, trap condition, image exit, bound,
  /// cursor exhaustion or quantum break requires the caller to fall back to
  /// step() / re-evaluate hoisted state. `cursor` is non-null exactly for
  /// kProduce/kReplay.
  template <FastMode M>
  void run_fast_path(Cycle stop_before, u64 instret_end, SegmentCursor* cursor);

  /// Replay one recorded trace (arch/trace.h). Caller guarantees headroom:
  /// cycle + trace.worst_cost stays below the quantum limit, instret +
  /// trace.inst_count within the instruction bound, and (fused modes) the
  /// cursor admits every memory record the trace carries.
  template <FastMode M>
  void execute_trace(const Trace& trace, Addr& pc, Cycle& cycle, u64& instret,
                     Addr& last_line, SegmentCursor* cursor);

  /// LR/SC reservation: the local flags are the architectural state (they
  /// round-trip through Snapshot); the shared Memory registry mirrors them so
  /// any write to the granule — own store/AMO or another core's — invalidates.
  void set_reservation(Addr granule);
  void release_reservation();
  // ReservationObserver (called from Memory's write path).
  void on_reservation_invalidated() override { reservation_valid_ = false; }

  CoreId id_;
  CoreConfig config_;
  Memory& memory_;
  const ImageRegistry& images_;

  // Architectural state.
  std::array<u64, 32> regs_{};
  Addr pc_ = 0;
  bool user_mode_ = true;
  u64 csr_mepc_ = 0;
  u64 csr_mcause_ = 0;
  u64 csr_mscratch_ = 0;

  // Microarchitectural state.
  CacheHierarchy caches_;
  BranchPredictor bpred_;
  Addr last_fetch_line_ = ~Addr{0};
  Addr reservation_addr_ = 0;
  bool reservation_valid_ = false;

  // Time & counters.
  Cycle cycle_ = 0;
  u64 instret_ = 0;
  u64 user_instret_ = 0;
  u64 stall_cycles_ = 0;
  u64 mispredicts_ = 0;

  // Interrupts.
  Cycle timer_at_ = 0;
  bool timer_armed_ = false;
  bool suppress_traps_ = false;

  Status status_ = Status::kRunning;
  bool quantum_break_ = false;  ///< Set by request_quantum_end(); ends run_until.
  RunExit run_exit_ = RunExit::kNone;  ///< Why the last run_until returned.

  // Extension seams.
  CoreHooks* hooks_ = nullptr;
  TrapHandler* handler_ = nullptr;
  MemPort* port_ = nullptr;  ///< Active port (defaults to cache_port_).
  std::unique_ptr<MemPort> cache_port_;

  // Fetch fast path.
  const LoadedImage* image_ = nullptr;

  // Superinstruction trace cache (arch/trace.h); null when disabled.
  std::unique_ptr<TraceCache> trace_cache_;
};

}  // namespace flexstep::arch
