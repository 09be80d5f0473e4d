// Extension points between the generic core and the FlexStep units.
//
// The core stays free of FlexStep knowledge; src/flexstep implements these
// interfaces. Three seams exist, mirroring the paper's microarchitecture:
//   * CoreHooks   — commit/privilege observation (CPC instruction counting,
//                   MAL logging) and the custom-ISA execution path.
//   * MemPort     — the data-memory path. The default port goes through the
//                   cache hierarchy; a checker core in replay mode installs a
//                   port that serves loads from the Memory Access Log and
//                   verifies stores against it ("the checker core halts
//                   memory access", Sec. II).
#pragma once

#include "common/types.h"
#include "isa/instruction.h"

namespace flexstep::arch {

class Core;

/// What the core reports for each committed instruction.
struct CommitInfo {
  Addr pc = 0;
  Addr next_pc = 0;  ///< PC of the next instruction (post branch resolution).
  const isa::Instruction* inst = nullptr;
  bool user_mode = true;

  // Memory side (valid when inst is a memory op that committed).
  bool mem_valid = false;
  Addr mem_addr = 0;
  u64 mem_wdata = 0;   ///< Store data / AMO operand value written.
  u64 mem_rdata = 0;   ///< Load result / AMO old value / SC status.
  u32 mem_bytes = 0;
  bool sc_success = false;
};

/// Result of a data-memory operation.
struct MemResult {
  Cycle stall = 0;  ///< Extra cycles beyond the pipelined hit path.
  u64 data = 0;     ///< Load value / AMO old value / SC status (0 = success).
};

class MemPort {
 public:
  virtual ~MemPort() = default;
  virtual MemResult load(isa::Opcode op, Addr addr, u32 bytes) = 0;
  virtual MemResult store(isa::Opcode op, Addr addr, u32 bytes, u64 data) = 0;
  /// AMO read-modify-write; returns the old memory value in .data.
  virtual MemResult amo(isa::Opcode op, Addr addr, u64 operand) = 0;
  virtual MemResult load_reserved(Addr addr) = 0;
  /// Store-conditional; .data = 0 on success, 1 on failure.
  virtual MemResult store_conditional(Addr addr, u64 data) = 0;
};

/// Replay-side mismatch classes surfaced by the fused fast path — the batched
/// analogue of the replay MemPort's per-access verdicts. The hook maps them
/// back onto its own detection taxonomy.
enum class ReplayMismatch : u8 { kLoadAddr, kStoreAddr, kStoreData };

/// One staged memory-access record inside a SegmentCursor. Fixed flat layout
/// so the batched engine reads/writes it with plain loads and stores — no
/// virtual dispatch on the hot path.
struct MemRecord {
  u8 kind = 0;     ///< Stream-entry kind tag (opaque to the core).
  u8 bytes = 0;
  Addr addr = 0;
  u64 data = 0;    ///< Producer: load result (raw) / store data (masked).
  Cycle cycle = 0; ///< Producer: post-commit stamp of the logging instruction.
};

/// Bulk segment-stream seam between the batched engine and a logging/replay
/// hook. A hook that can absorb plain loads and stores in bulk hands the
/// engine a cursor over preallocated record slots valid for one quantum:
///
///   * produce == true  — the engine executes memory ops normally and appends
///     one record per plain load/store (addr, data, post-commit cycle). The
///     hook publishes the records into its stream inside on_commit_batch,
///     before any per-instruction path can run again.
///   * produce == false — the engine serves loads FROM the staged records and
///     verifies store addr/data against them, charging `replay_stall` per
///     access and reporting divergence through `on_mismatch` (carrying the
///     pre-commit clock, exactly when a stepwise port call would have seen
///     it). `used` counts records consumed; `last_cycle` holds the clock of
///     the last replayed access so the hook can retire the consumed prefix
///     with the right timestamp.
///
/// The capacity is the hook's guarantee that every staged access passes its
/// backpressure / availability checks; the engine bails to the stepwise path
/// the moment the cursor is full (or, replaying, the next staged kind does
/// not match the instruction). A cursor is never live across a run_until
/// return: on_commit_batch always consumes it first.
struct SegmentCursor {
  MemRecord* slots = nullptr;
  u32 capacity = 0;
  u32 used = 0;
  bool produce = false;
  u8 load_kind = 0;       ///< Stream tag the hook expects for plain loads.
  u8 store_kind = 0;      ///< Stream tag the hook expects for plain stores.
  Cycle replay_stall = 0; ///< Per-access log-read stall (consumer side).
  Cycle last_cycle = 0;   ///< Consumer: clock of the last replayed access.
  /// Consumer only: the driver has declared the quantum's cycle bound
  /// scheduler-only (bulk-consume horizon) — nothing outside this core can
  /// observe anything but the channel pops, so a hot trace whose POPS all
  /// land strictly below the bound may dispatch even though its tail would
  /// run past it. The core's cycle trajectory is engine-independent, making
  /// the overrun unobservable; an armed timer deadline stays hard regardless.
  bool allow_bound_overrun = false;
  void* ctx = nullptr;
  void (*on_mismatch)(void* ctx, ReplayMismatch kind, Cycle at) = nullptr;
};

class CoreHooks {
 public:
  virtual ~CoreHooks() = default;

  /// True while the hooks are guaranteed to be no-ops for user-mode commits:
  /// memory_can_commit() returns true and on_commit() returns 0 for every
  /// instruction. The batched execution engine (Core::run_until) queries this
  /// before each fast-path attempt and, while passive, executes the
  /// common-case instruction stream without any virtual hook dispatch. State
  /// that flips passivity (M.check enable, replay entry) only changes inside
  /// slow-path events (traps, custom ISA, kernel transitions) or between
  /// quanta, so the cached answer cannot go stale mid-fast-loop. Non-virtual
  /// (a plain flag maintained by the implementation through set_passive) so
  /// the engine's per-instruction query costs one byte load even while hooks
  /// are active.
  bool passive() const { return passive_; }

  /// While non-passive, a hook may still let the batched engine run spans of
  /// user-mode instructions without per-commit dispatch, provided (a) every
  /// memory instruction the span's segment cursor does not carry (all of
  /// them, when open_segment_cursor returns nullptr) takes the one-at-a-time
  /// path (full CommitInfo + memory_can_commit pre-check), and (b) the span's
  /// commit count is delivered afterwards through on_commit_batch. Returns how
  /// many instructions may be batch-committed before the next boundary where
  /// the hook needs a full per-instruction view (e.g. a segment about to close);
  /// 0 disables batching (the default, and mandatory whenever on_commit does
  /// anything beyond counting for non-memory commits).
  virtual u64 commit_batch_limit() const { return 0; }

  /// Deliver `count` batch-committed non-memory user-mode instructions. Must
  /// be state-equivalent to `count` successive on_commit calls for such
  /// instructions (commit_batch_limit guarantees no boundary sits inside).
  /// When a segment cursor was opened for the batch, this call also publishes
  /// (producer) or retires (consumer) the staged records — it runs before any
  /// per-instruction hook path can observe the stream again.
  virtual void on_commit_batch(Core& core, u64 count) {
    (void)core;
    (void)count;
  }

  /// Bulk seam (see SegmentCursor): called once per batched span of at least
  /// 32 instructions and cycles while the hook is non-passive and batchable.
  /// Return a cursor with a nonzero capacity to let the engine keep plain
  /// loads/stores on the fast path — staging produced records or
  /// replay-verifying against staged ones — or nullptr to keep every memory
  /// instruction on the one-at-a-time path (the default). Without a cursor,
  /// and on shorter spans, the engine runs the span on an empty cursor of its
  /// own, with traces and their heat counting off. `max_entries` is
  /// the engine's upper bound on memory instructions the span can commit
  /// (instruction budget capped by the cycle window); staging more slots than
  /// that is wasted setup work, staging fewer is merely an earlier bail-out.
  virtual SegmentCursor* open_segment_cursor(Core& core, u64 max_entries) {
    (void)core;
    (void)max_entries;
    return nullptr;
  }

  /// Called before a memory instruction executes (checking active only
  /// matters to FlexStep): return false to stall the core until buffer space
  /// exists (DBC backpressure). The instruction has NOT executed yet.
  virtual bool memory_can_commit(Core& core, const isa::Instruction& inst) = 0;

  /// Called after each commit. Returns extra stall cycles charged to the core
  /// (e.g. checkpoint extraction at a segment boundary).
  virtual Cycle on_commit(Core& core, const CommitInfo& info) = 0;

  /// Privilege transitions (CPC privilege monitor, Sec. III-A).
  virtual void on_enter_kernel(Core& core) = 0;
  virtual void on_exit_kernel(Core& core) = 0;

  /// Execute a FlexStep custom instruction; returns the rd result value.
  virtual u64 exec_custom(Core& core, const isa::Instruction& inst) = 0;

 protected:
  /// Implementations flip this whenever their commit-observation needs change
  /// (default: never passive, so custom hooks observe every commit).
  void set_passive(bool passive) { passive_ = passive; }

 private:
  bool passive_ = false;
};

}  // namespace flexstep::arch
