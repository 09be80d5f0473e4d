// Superinstruction trace cache for the batched execution engine.
//
// Core::run_fast_path still pays a full decode-dispatch iteration per
// instruction (bounds check, fetch-line compare, opcode-range test, loop
// bounds, 70-way switch). Classic threaded-code results (Ertl & Gregg;
// QEMU-style TB chaining) show hot straight-line regions can amortise nearly
// all of that: record the region once, pre-decode it into a dense array of
// superinstructions (operands extracted, immediates pre-extended, static
// stall costs pre-summed), then replay the whole region with one tight loop
// and a single cycle/instret update at the end.
//
// Equivalence contract: executing a trace is bit-identical to stepping the
// same instructions through Core::step() — same registers, memory, cache
// tags/LRU, branch-predictor state, cycle/stall/mispredict accounting. The
// engine guarantees this by construction:
//   * traces contain only fast-path opcodes (the contiguous [kAdd, kSd]
//     prefix: ALU, branches, jumps, plain loads/stores) — nothing that can
//     trap, block, or touch the extension seams;
//   * a trace only dispatches when the quantum has headroom for its
//     worst-case cycle cost and full instruction count, so no interrupt
//     poll, quantum break, or instruction bound can land mid-trace;
//   * all dynamic microarchitectural probes (I-fetch at line boundaries,
//     D-cache per access, BHT/BTB/RAS per control transfer) execute in
//     program order inside the replay loop;
//   * each opcode's result, predictor probes and segment-cursor record come
//     from the one definition step() and run_fast_path() use too (core.cpp:
//     alu(), branch_taken(), extend_load(), store_data(), resolve_*(),
//     replay_access(), stage_access()).
//
// Traces are host-only state: they never influence simulated outcomes, only
// host speed and where a budgeted advance() happens to stop. A cache keeps
// its traces and heat counters in immutable, reference-counted TraceTables,
// so a snapshot captures them by reference and a restored or forked core
// adopts them instead of re-recording — a fork then evolves exactly like its
// origin. The tables are split into fixed 64-entry chunks, each held by
// reference: a cache that writes after sharing copies only the chunk it
// writes, so a short-lived fork pays for the entries it touches, not for the
// whole table. A snapshot loaded from a file carries no tables; restoring it
// flushes the cache. Traces are invalidated when any agent stores to a code
// page they cover; invalidation is deferred to the next lookup boundary
// because the write may originate from inside the executing trace itself,
// and copies only the chunks that hold a covering trace.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "arch/memory.h"
#include "common/types.h"
#include "isa/instruction.h"

namespace flexstep::arch {

/// Superinstruction kinds, defined through one X-macro so the enum and the
/// threaded-dispatch table in core.cpp can never drift out of order.
///
/// The first block mirrors the fast-path prefix of isa::Opcode
/// value-for-value (static_asserts in trace.cpp pin the anchors), so
/// recording a plain instruction is a cast. Then the pseudo-ops:
///   * kIFetchProbe — I-cache probe for a 64 B fetch-line boundary inside
///     the trace (`target` = the boundary pc). The trace's first line is
///     probed dynamically against last_fetch_line before the replay loop.
///   * kExit — sentinel terminating every trace that does not end in a
///     control transfer; lets the replay loop drop its bound check.
///   * kStaticCost — `imm` cycles of statically known cost at this position
///     (ALU ops writing x0: their only architectural effect is the cycle, so
///     no op is emitted, but the fused segment-stream modes advance a per-op
///     commit clock and need the cost to stay in program order; adjacent
///     elided ops merge into one). The plain replay path skips it — the cost
///     is already summed into base_cost.
/// And the fused superinstructions (one dispatch for a hot two-instruction
/// idiom; both architectural commits still happen, in order):
///   * kLdAddAcc / kLdXorAcc — ld rd,(rs1)imm ; add/xor rs2,rs2,rd
///   * kAndiBne / kAndiBeq   — andi rd,rs1,imm ; bne/beq rd,x0 (terminal;
///                             branch pc = entry + 4*rs2, taken pc = target)
///   * kMulAddi              — mul rd,rs1,rs2 ; addi rd,rd,imm
///   * kAndAdd               — and rd,rs1,rs2 ; add rd,imm-reg,rd
// clang-format off
#define FLEX_TRACE_KIND_LIST(X)                                    \
  X(kAdd) X(kSub) X(kSll) X(kSrl) X(kSra) X(kAnd) X(kOr) X(kXor)   \
  X(kSlt) X(kSltu) X(kMul) X(kMulh) X(kDiv) X(kDivu) X(kRem)       \
  X(kRemu)                                                         \
  X(kAddi) X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai)    \
  X(kSlti) X(kSltiu) X(kLui)                                       \
  X(kBeq) X(kBne) X(kBlt) X(kBge) X(kBltu) X(kBgeu)                \
  X(kJal) X(kJalr)                                                 \
  X(kLb) X(kLbu) X(kLh) X(kLhu) X(kLw) X(kLwu) X(kLd)              \
  X(kSb) X(kSh) X(kSw) X(kSd)                                      \
  X(kIFetchProbe) X(kExit) X(kStaticCost)                          \
  X(kLdAddAcc) X(kLdXorAcc) X(kAndiBne) X(kAndiBeq) X(kMulAddi)    \
  X(kAndAdd)
// clang-format on

/// Generic fused pairs of single-cycle ALU ops (the bulk of any workload's
/// straight-line filler): one dispatch executes both halves. The first
/// half's operands live in the pair op itself, the second half's in the
/// next (payload) slot, which the handler consumes. The list is row-major in
/// (first, second) over a fixed 6-op alphabet, so fused_pair_kind computes
/// the kind as base + 6*first + second (static_asserts in trace.cpp pin it).
// clang-format off
#define FLEX_TRACE_PAIR_LIST(X)                                                  \
  X(AddAdd, Add, Add)   X(AddSub, Add, Sub)   X(AddXor, Add, Xor)                \
  X(AddOr, Add, Or)     X(AddSlli, Add, Slli) X(AddAddi, Add, Addi)              \
  X(SubAdd, Sub, Add)   X(SubSub, Sub, Sub)   X(SubXor, Sub, Xor)                \
  X(SubOr, Sub, Or)     X(SubSlli, Sub, Slli) X(SubAddi, Sub, Addi)              \
  X(XorAdd, Xor, Add)   X(XorSub, Xor, Sub)   X(XorXor, Xor, Xor)                \
  X(XorOr, Xor, Or)     X(XorSlli, Xor, Slli) X(XorAddi, Xor, Addi)              \
  X(OrAdd, Or, Add)     X(OrSub, Or, Sub)     X(OrXor, Or, Xor)                  \
  X(OrOr, Or, Or)       X(OrSlli, Or, Slli)   X(OrAddi, Or, Addi)                \
  X(SlliAdd, Slli, Add) X(SlliSub, Slli, Sub) X(SlliXor, Slli, Xor)              \
  X(SlliOr, Slli, Or)   X(SlliSlli, Slli, Slli) X(SlliAddi, Slli, Addi)          \
  X(AddiAdd, Addi, Add) X(AddiSub, Addi, Sub) X(AddiXor, Addi, Xor)              \
  X(AddiOr, Addi, Or)   X(AddiSlli, Addi, Slli) X(AddiAddi, Addi, Addi)
// clang-format on

enum class TraceOpKind : u8 {
#define FLEX_TRACE_ENUM(name) name,
  FLEX_TRACE_KIND_LIST(FLEX_TRACE_ENUM)
#undef FLEX_TRACE_ENUM
#define FLEX_TRACE_PAIR_ENUM(name, first, second) kPair##name,
  FLEX_TRACE_PAIR_LIST(FLEX_TRACE_PAIR_ENUM)
#undef FLEX_TRACE_PAIR_ENUM
};

/// One pre-decoded superinstruction. 16 bytes; meaning of the fields varies
/// by kind (see Core::execute_trace):
///   * ALU-imm / loads / stores: `imm` is the sign-extended immediate
///     (shift amounts pre-masked, LUI pre-shifted).
///   * branches / kJal: `imm` is the instruction index from the trace entry
///     (pc = entry_pc + 4*imm), `target` the precomputed taken/jump target.
///   * kJalr: `imm` is the offset, `target` the instruction's own pc.
///   * kIFetchProbe: `target` is the pc whose line to probe.
struct TraceOp {
  u8 kind = 0;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;
  u64 target = 0;
};

/// A recorded straight-line region: at most one control transfer, as the
/// final instruction. Ends early before any slow-path opcode, at the image
/// end, or at the configured length cap.
struct Trace {
  Addr entry_pc = 0;
  /// Fall-through continuation: pc after the last instruction. The terminal
  /// control op overrides it dynamically (taken branch / jump target).
  Addr exit_pc = 0;
  /// Fetch line of the last instruction — last_fetch_line after replay.
  Addr exit_line = 0;
  u32 inst_count = 0;
  /// Static cycle cost: 1/instruction + multiplier/divider latencies +
  /// load-use bubbles. Dynamic stalls (cache misses, mispredicts, redirect
  /// bubbles) are accumulated during replay and added on top.
  Cycle base_cost = 0;
  /// base_cost + worst-case dynamic stalls: the quantum-headroom bound that
  /// guarantees no cycle limit can expire mid-trace.
  Cycle worst_cost = 0;
  u64 first_page = 0;  ///< Code pages covered (write-invalidation range).
  u64 last_page = 0;
  /// Plain loads + stores in the trace, and their kinds in program order
  /// (0 = load — including the load half of kLdAddAcc/kLdXorAcc — 1 = store).
  /// The fused segment-stream modes gate dispatch on these: a trace only
  /// replays when the cursor has room for every record (producer) or the
  /// staged log prefix matches kind-for-kind (consumer), so no mid-trace
  /// bail-out can be needed.
  u32 mem_ops = 0;
  std::vector<u8> mem_kinds;
  /// Data-memory share of worst_cost: per load the load-use penalty plus a
  /// worst-case d-cache miss, per store a worst-case miss. Replay serves every
  /// access from the staged log at a fixed FIFO stall instead, so its dispatch
  /// bound is worst_cost - mem_worst_cost + mem_ops * replay_stall — without
  /// this correction, memory-heavy hot traces can out-budget a checker's
  /// whole quantum and never dispatch.
  Cycle mem_worst_cost = 0;
  /// Worst-case pre-commit clock offset (from trace entry) at the LAST memory
  /// op's replay compare stamp, counting prior memory ops at zero — the
  /// dispatcher adds (mem_ops - 1) * replay_stall for them. This bounds where
  /// the final channel pop of the trace can land, which is the only part of a
  /// replayed trace the scheduler can observe: when the engine has promised a
  /// bulk-consume horizon, a trace whose pops all fit below the quantum bound
  /// may dispatch even though its tail (trailing ALU / probes / terminal)
  /// would overrun the bound. Meaningless when mem_ops == 0.
  Cycle last_pop_worst = 0;
  std::vector<TraceOp> ops;  ///< Includes pseudo-ops; size() >= inst_count.
};

/// Worst-case/static cost parameters captured from the owning core's
/// configuration at construction (used to precompute trace cost bounds).
struct TraceCostModel {
  Cycle worst_miss = 0;  ///< Upper bound on one cache-probe stall (L2 + DRAM).
  Cycle load_use = 0;
  Cycle mispredict = 0;
};

/// A trace cache's contents: the direct-mapped trace table keyed by entry
/// pc, the heat table in front of it, and the code pages they cover. Both
/// tables are split into chunks of kChunkSlots entries held by reference.
/// Never modified once shared — a cache writes only the chunk index and the
/// chunks nobody else holds, and copies a shared chunk before its first write
/// — so snapshots, forks and threads can hold the same tables and chunks by
/// reference, and a write after sharing copies one chunk, not the table.
struct TraceTables {
  static constexpr std::size_t kChunkBits = 6;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;

  struct Slot {
    Addr entry_pc = ~Addr{0};
    std::shared_ptr<const Trace> trace;
  };
  struct Heat {
    Addr pc = ~Addr{0};
    u32 count = 0;
  };
  using SlotChunk = std::array<Slot, kChunkSlots>;
  using HeatChunk = std::array<Heat, kChunkSlots>;

  /// Tables of `slot_count` slots and heat entries, every chunk the one
  /// shared, never-written empty chunk.
  explicit TraceTables(std::size_t slot_count);

  const Slot& slot(std::size_t index) const {
    return (*slots[index >> kChunkBits])[index & (kChunkSlots - 1)];
  }
  const Heat& heat_at(std::size_t index) const {
    return (*heat[index >> kChunkBits])[index & (kChunkSlots - 1)];
  }

  std::vector<std::shared_ptr<const SlotChunk>> slots;  ///< Chunk index.
  std::vector<std::shared_ptr<const HeatChunk>> heat;   ///< Chunk index.
  /// Union of the code pages every trace ever installed here covers; a cache
  /// adopting the tables watches these pages for invalidating stores.
  u64 first_page = ~u64{0};
  u64 last_page = 0;
};

/// Per-core trace store: direct-mapped table keyed by entry pc, with a heat
/// table in front so only genuinely hot block entries get recorded.
class TraceCache final : public CodeWriteListener {
 public:
  struct Stats {
    u64 dispatches = 0;       ///< Traces replayed.
    u64 insts_from_traces = 0;
    u64 recorded = 0;
    u64 refused = 0;          ///< Too-short blocks marked never-record.
    u64 seeded = 0;           ///< Traces installed by static seeding.
    u64 heat_misses = 0;      ///< Entry misses spent warming heat counters.
    u64 code_write_flushes = 0;  ///< Traces dropped by stores to code pages.
    u64 full_flushes = 0;        ///< flush() calls (restore without tables).
  };

  /// Block-entry visits before a region is recorded as a trace.
  static constexpr u32 kHeatThreshold = 4;
  /// Per-trace instruction cap (a basic block rarely gets near this).
  static constexpr u32 kMaxInsts = 192;
  /// Blocks shorter than this are not worth a trace dispatch.
  static constexpr u32 kMinInsts = 2;
  /// Size of the direct-mapped trace table.
  static constexpr std::size_t kSlots = std::size_t{1} << 12;

  TraceCache(Memory& memory, const TraceCostModel& cost);
  ~TraceCache();

  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// Trace starting exactly at `pc`, or nullptr. Processes any pending
  /// write-invalidation first — callers must therefore not hold a Trace
  /// pointer across lookups.
  const Trace* lookup(Addr pc) {
    if (pending_invalidation_) [[unlikely]] process_pending_invalidation();
    const std::size_t index = (pc >> 2) & slot_mask_;
    const TraceTables::Slot& slot = (*slot_chunks_[index >> TraceTables::kChunkBits])
        [index & (TraceTables::kChunkSlots - 1)];
    return slot.entry_pc == pc ? slot.trace.get() : nullptr;
  }

  /// Lookup miss at a block entry: bump the heat counter and, at threshold,
  /// record the region from the pre-decoded image stream. Returns the fresh
  /// trace when one was recorded.
  const Trace* notice_entry(Addr pc, const isa::Instruction* code, Addr base, Addr end);

  /// Statically-seeded recording: install a trace at `pc` immediately,
  /// bypassing the heat counter (the static analysis already declared the
  /// entry hot). Returns true when `pc` is covered afterwards (freshly
  /// recorded or already present). A refused seed (region too short) marks
  /// the heat entry never-record, exactly like a refused hot entry. Seeds are
  /// host-speed only — they never change simulated outcomes — and remain
  /// evictable by genuine heat through the normal direct-mapped slot path.
  bool seed(Addr pc, const isa::Instruction* code, Addr base, Addr end);

  /// The current tables, frozen: before its next write this cache copies
  /// their chunk index, and each chunk before its first write. Settles any
  /// deferred code-page invalidation first (never called mid-trace:
  /// snapshots are taken between scheduling rounds). nullptr while the cache
  /// has never recorded or counted anything.
  std::shared_ptr<const TraceTables> share();

  /// Continue from `tables` (taken by share(), possibly by another core of
  /// another SoC running the same images): lookups hit exactly what the
  /// sharer's did, and the sharer's tables are never modified. Watches the
  /// code pages the tables cover in this cache's Memory. nullptr flushes
  /// instead.
  void adopt(std::shared_ptr<const TraceTables> tables);

  /// Drop every trace and heat counter.
  void flush();

  void count_dispatch(u32 insts) {
    ++stats_.dispatches;
    stats_.insts_from_traces += insts;
  }

  const Stats& stats() const { return stats_; }
  /// The tables lookups currently read (nullptr when empty).
  const TraceTables* tables() const { return tables_.get(); }

  // CodeWriteListener: deferred — the store may run inside a live trace.
  void on_code_page_written(u64 page_id) override;

 private:
  static constexpr u32 kRefused = ~u32{0};

  static std::size_t slot_index(Addr pc) { return (pc >> 2) & (kSlots - 1); }
  bool record(Addr pc, const isa::Instruction* code, Addr base, Addr end, Trace& out) const;
  /// Install a freshly recorded trace at its entry pc's slot.
  const Trace* install(std::shared_ptr<const Trace> trace);
  /// Tables whose chunk index this cache may write in place: a private copy
  /// of shared tables (fresh empty ones when there are none) is made on first
  /// use. Their chunks may still be shared; write entries through
  /// writable_slot() / writable_heat().
  TraceTables& writable();
  /// Entry `index`, in a chunk this cache alone holds (copied on first write).
  TraceTables::Slot& writable_slot(std::size_t index);
  TraceTables::Heat& writable_heat(std::size_t index);
  /// Point lookups at `tables_` (the empty chunk when null).
  void bind_tables();
  void process_pending_invalidation();

  Memory& memory_;
  TraceCostModel cost_;
  std::shared_ptr<const TraceTables> tables_;  ///< nullptr = empty.
  /// tables_ while this cache alone holds its chunk index (writable in place);
  /// nullptr once share() handed them out or adopt() took them in.
  TraceTables* own_ = nullptr;
  /// Per chunk of own_: the chunk itself once this cache has copied it (and
  /// so alone holds it), nullptr while it may be shared.
  std::vector<TraceTables::SlotChunk*> own_slots_;
  std::vector<TraceTables::HeatChunk*> own_heat_;
  /// Lookup view of tables_: its slot-chunk index and slot mask, or a single
  /// never-matching chunk with mask 0 while there are no tables.
  const std::shared_ptr<const TraceTables::SlotChunk>* slot_chunks_;
  std::size_t slot_mask_ = 0;
  bool pending_invalidation_ = false;
  std::vector<u64> dirty_pages_;
  Stats stats_;
};

/// The superinstruction `first`+`second` fuse into when they sit adjacently
/// inside a recorded region — a named idiom or a generic ALU pair — or
/// nullopt. This is the whole fusion rule: TraceCache::record adds only its
/// position checks (no fetch-line split between the two, a branch index that
/// fits its u8 field), and the static lint uses it to flag jumps that enter
/// the second half of a fusible pair. Inline so the recorder, which asks it
/// for every instruction it records, pays no call.
inline std::optional<TraceOpKind> fused_pair_kind(const isa::Instruction& first,
                                                  const isa::Instruction& second) {
  using isa::Opcode;
  if (first.rd == 0) return std::nullopt;
  if (first.op == Opcode::kLd && (second.op == Opcode::kAdd || second.op == Opcode::kXor) &&
      second.rd != 0 && second.rd == second.rs1 && second.rs2 == first.rd) {
    // ld rd,(rs1)imm ; acc op= rd
    return second.op == Opcode::kAdd ? TraceOpKind::kLdAddAcc : TraceOpKind::kLdXorAcc;
  }
  if (first.op == Opcode::kAndi && (second.op == Opcode::kBne || second.op == Opcode::kBeq) &&
      second.rs1 == first.rd && second.rs2 == 0) {
    // andi rd,rs1,imm ; bne/beq rd,x0 (terminal)
    return second.op == Opcode::kBne ? TraceOpKind::kAndiBne : TraceOpKind::kAndiBeq;
  }
  if (first.op == Opcode::kMul && second.op == Opcode::kAddi && second.rd == first.rd &&
      second.rs1 == first.rd) {
    return TraceOpKind::kMulAddi;  // mul rd,rs1,rs2 ; addi rd,rd,imm
  }
  if (first.op == Opcode::kAnd && second.op == Opcode::kAdd && second.rd == first.rd &&
      second.rs2 == first.rd && second.rs1 != first.rd) {
    return TraceOpKind::kAndAdd;  // and rd,rs1,rs2 ; add rd,base,rd
  }
  // A generic pair: both halves in the ALU-pair alphabet, kinds row-major.
  const auto alphabet_index = [](Opcode op) {
    switch (op) {
      case Opcode::kAdd: return 0;
      case Opcode::kSub: return 1;
      case Opcode::kXor: return 2;
      case Opcode::kOr: return 3;
      case Opcode::kSlli: return 4;
      case Opcode::kAddi: return 5;
      default: return -1;
    }
  };
  const int a = alphabet_index(first.op);
  const int b = alphabet_index(second.op);
  if (second.rd == 0 || a < 0 || b < 0) return std::nullopt;
  return static_cast<TraceOpKind>(static_cast<int>(TraceOpKind::kPairAddAdd) + 6 * a + b);
}

}  // namespace flexstep::arch
