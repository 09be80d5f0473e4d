#include "arch/trace.h"

#include <algorithm>

#include "common/check.h"
#include "isa/opcode.h"

namespace flexstep::arch {

using isa::Opcode;

// The first TraceOpKind block mirrors the fast-path opcode prefix
// value-for-value so recording a plain instruction is a cast. Pin the
// anchors; the fast-path contiguity itself is asserted in core.cpp.
static_assert(static_cast<u8>(TraceOpKind::kAdd) == static_cast<u8>(Opcode::kAdd));
static_assert(static_cast<u8>(TraceOpKind::kAddi) == static_cast<u8>(Opcode::kAddi));
static_assert(static_cast<u8>(TraceOpKind::kLui) == static_cast<u8>(Opcode::kLui));
static_assert(static_cast<u8>(TraceOpKind::kBeq) == static_cast<u8>(Opcode::kBeq));
static_assert(static_cast<u8>(TraceOpKind::kJalr) == static_cast<u8>(Opcode::kJalr));
static_assert(static_cast<u8>(TraceOpKind::kLd) == static_cast<u8>(Opcode::kLd));
static_assert(static_cast<u8>(TraceOpKind::kSd) == static_cast<u8>(Opcode::kSd));
static_assert(static_cast<u8>(TraceOpKind::kIFetchProbe) ==
              static_cast<u8>(Opcode::kLrD));
// ALU-pair kinds are laid out row-major over the 6-op alphabet right after
// the named fused ops, so fused_pair_kind computes base + 6*first + second.
static_assert(static_cast<u8>(TraceOpKind::kPairAddAdd) ==
              static_cast<u8>(TraceOpKind::kAndAdd) + 1);
static_assert(static_cast<u8>(TraceOpKind::kPairAddiAddi) ==
              static_cast<u8>(TraceOpKind::kPairAddAdd) + 35);

namespace {

i32 alu_pair_imm(Opcode op, i32 imm) { return op == Opcode::kSlli ? (imm & 63) : imm; }

/// The chunks every fresh table starts from, and what lookups read while a
/// cache has no tables: their slots never match a pc (pcs are 4-aligned).
/// Never written — a cache copies any chunk it does not own before writing —
/// and held without a reference count, so sharing them costs no atomics.
template <typename Chunk>
const std::shared_ptr<const Chunk>& empty_chunk() {
  static const Chunk chunk{};
  static const std::shared_ptr<const Chunk> ref(std::shared_ptr<const Chunk>(), &chunk);
  return ref;
}

std::size_t chunk_count(std::size_t slot_count) {
  return (slot_count + TraceTables::kChunkSlots - 1) / TraceTables::kChunkSlots;
}

/// Entry `index` of `chunks`, copying its chunk first unless `own` records
/// that this cache already did (and so alone holds it).
template <typename Chunk>
typename Chunk::value_type& writable_entry(std::vector<std::shared_ptr<const Chunk>>& chunks,
                                           std::vector<Chunk*>& own, std::size_t index) {
  const std::size_t c = index >> TraceTables::kChunkBits;
  if (own[c] == nullptr) {
    auto copy = std::make_shared<Chunk>(*chunks[c]);
    own[c] = copy.get();
    chunks[c] = std::move(copy);
  }
  return (*own[c])[index & (TraceTables::kChunkSlots - 1)];
}

}  // namespace

TraceTables::TraceTables(std::size_t slot_count)
    : slots(chunk_count(slot_count), empty_chunk<SlotChunk>()),
      heat(slots.size(), empty_chunk<HeatChunk>()) {}

TraceCache::TraceCache(Memory& memory, const TraceCostModel& cost)
    : memory_(memory), cost_(cost),
      slot_chunks_(&empty_chunk<TraceTables::SlotChunk>()) {}

TraceCache::~TraceCache() { memory_.unwatch_code_pages(this); }

void TraceCache::bind_tables() {
  slot_chunks_ = tables_ != nullptr ? tables_->slots.data()
                                    : &empty_chunk<TraceTables::SlotChunk>();
  slot_mask_ = tables_ != nullptr ? kSlots - 1 : 0;
}

TraceTables& TraceCache::writable() {
  if (own_ == nullptr) {
    auto copy = tables_ != nullptr ? std::make_shared<TraceTables>(*tables_)
                                   : std::make_shared<TraceTables>(kSlots);
    own_ = copy.get();
    tables_ = std::move(copy);
    own_slots_.assign(own_->slots.size(), nullptr);
    own_heat_.assign(own_->heat.size(), nullptr);
    bind_tables();
  }
  return *own_;
}

TraceTables::Slot& TraceCache::writable_slot(std::size_t index) {
  return writable_entry(writable().slots, own_slots_, index);
}

TraceTables::Heat& TraceCache::writable_heat(std::size_t index) {
  return writable_entry(writable().heat, own_heat_, index);
}

std::shared_ptr<const TraceTables> TraceCache::share() {
  if (pending_invalidation_) process_pending_invalidation();
  own_ = nullptr;
  return tables_;
}

void TraceCache::adopt(std::shared_ptr<const TraceTables> tables) {
  if (tables == nullptr) {
    flush();
    return;
  }
  tables_ = std::move(tables);
  own_ = nullptr;
  bind_tables();
  dirty_pages_.clear();
  pending_invalidation_ = false;
  if (tables_->first_page <= tables_->last_page) {
    memory_.watch_code_pages(this, tables_->first_page, tables_->last_page);
  }
}

void TraceCache::on_code_page_written(u64 page_id) {
  // Deferred: the store may execute inside the very trace it invalidates, so
  // freeing trace storage here would be use-after-free. lookup()/
  // notice_entry() process the flush at the next dispatch boundary.
  pending_invalidation_ = true;
  if (std::find(dirty_pages_.begin(), dirty_pages_.end(), page_id) ==
      dirty_pages_.end()) {
    dirty_pages_.push_back(page_id);
  }
}

void TraceCache::process_pending_invalidation() {
  const auto dirty = [&](const TraceTables::Slot& slot) {
    return slot.trace != nullptr &&
           std::any_of(dirty_pages_.begin(), dirty_pages_.end(), [&](u64 page) {
             return page >= slot.trace->first_page && page <= slot.trace->last_page;
           });
  };
  // Copy only chunks that hold a trace on a written page. Entries are re-read
  // through tables_ each time: copying a chunk may release the original.
  const std::size_t chunks = tables_ != nullptr ? tables_->slots.size() : 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (std::none_of(tables_->slots[c]->begin(), tables_->slots[c]->end(), dirty)) continue;
    for (std::size_t index = c << TraceTables::kChunkBits;
         index < (c + 1) << TraceTables::kChunkBits; ++index) {
      if (dirty(tables_->slot(index))) {
        writable_slot(index) = TraceTables::Slot{};
        ++stats_.code_write_flushes;
      }
    }
  }
  dirty_pages_.clear();
  pending_invalidation_ = false;
}

void TraceCache::flush() {
  tables_.reset();
  own_ = nullptr;
  bind_tables();
  dirty_pages_.clear();
  pending_invalidation_ = false;
  ++stats_.full_flushes;
}

const Trace* TraceCache::install(std::shared_ptr<const Trace> trace) {
  memory_.watch_code_pages(this, trace->first_page, trace->last_page);
  TraceTables& tables = writable();
  tables.first_page = std::min(tables.first_page, trace->first_page);
  tables.last_page = std::max(tables.last_page, trace->last_page);
  TraceTables::Slot& slot = writable_slot(slot_index(trace->entry_pc));
  slot.entry_pc = trace->entry_pc;
  slot.trace = std::move(trace);
  ++stats_.recorded;
  return slot.trace.get();
}

const Trace* TraceCache::notice_entry(Addr pc, const isa::Instruction* code,
                                      Addr base, Addr end) {
  if (pending_invalidation_) process_pending_invalidation();
  const std::size_t index = slot_index(pc);
  if (tables_ != nullptr) {
    const TraceTables::Heat& heat = tables_->heat_at(index);
    if (heat.pc == pc && heat.count == kRefused) return nullptr;  // read-only
  }
  TraceTables::Heat& heat = writable_heat(index);
  if (heat.pc != pc) {
    // Cold (or aliased) entry: start counting afresh.
    heat.pc = pc;
    heat.count = 1;
    ++stats_.heat_misses;
    return nullptr;
  }
  if (++heat.count < kHeatThreshold) {
    ++stats_.heat_misses;
    return nullptr;
  }

  auto trace = std::make_shared<Trace>();
  if (!record(pc, code, base, end, *trace)) {
    heat.count = kRefused;  // too short / starts at a slow op: never re-walk
    ++stats_.refused;
    return nullptr;
  }
  return install(std::move(trace));
}

bool TraceCache::seed(Addr pc, const isa::Instruction* code, Addr base, Addr end) {
  if (lookup(pc) != nullptr) return true;  // already covered
  auto trace = std::make_shared<Trace>();
  if (!record(pc, code, base, end, *trace)) {
    // Same terminal state a hot entry would reach: never re-walk this pc.
    TraceTables::Heat& heat = writable_heat(slot_index(pc));
    heat.pc = pc;
    heat.count = kRefused;
    ++stats_.refused;
    return false;
  }
  install(std::move(trace));
  ++stats_.seeded;
  return true;
}

bool TraceCache::record(Addr entry_pc, const isa::Instruction* code, Addr base,
                        Addr end, Trace& out) const {
  out.entry_pc = entry_pc;
  out.ops.clear();
  out.inst_count = 0;
  out.base_cost = 0;
  out.mem_ops = 0;
  out.mem_kinds.clear();
  out.mem_worst_cost = 0;
  out.last_pop_worst = 0;
  // The first fetch line is probed dynamically (it may equal the incoming
  // last_fetch_line); budget its worst case up front.
  Cycle worst_extra = cost_.worst_miss;

  // Phase 1: bound the straight-line region [entry_pc, region_end): stop
  // before the first slow-path opcode, after the first control transfer, at
  // the image end, or at the length cap.
  Addr pc = entry_pc;
  bool terminal = false;
  u32 insts = 0;
  while (!terminal && pc >= base && pc < end && insts < kMaxInsts) {
    const Opcode op = code[(pc - base) / 4].op;
    if (static_cast<u8>(op) > static_cast<u8>(Opcode::kSd)) break;  // slow path
    terminal = (static_cast<u8>(op) >= static_cast<u8>(Opcode::kBeq) &&
                static_cast<u8>(op) <= static_cast<u8>(Opcode::kJalr));
    ++insts;
    pc += 4;
  }
  // A zero-instruction trace (entry at a slow-path opcode) would advance
  // nothing and spin the dispatch loop forever.
  static_assert(kMinInsts > 0);
  if (insts < kMinInsts) return false;
  const Addr region_end = pc;
  out.inst_count = insts;

  // Phase 2: translate, with a peephole over adjacent pairs. A fused
  // superinstruction performs both architectural commits in order — fusion
  // only skips one dispatch, never an effect. Pairs are not fused across a
  // fetch-line boundary: the second instruction's I-probe must stay ordered
  // between the two commits (it can contend with data probes in the L2).
  const auto at = [&](Addr p) -> const isa::Instruction& {
    return code[(p - base) / 4];
  };
  const auto line_boundary = [&](Addr p) {
    return p != entry_pc && (p >> 6) != ((p - 4) >> 6);
  };
  const auto inst_index = [&](Addr p) { return static_cast<u32>((p - entry_pc) / 4); };

  for (Addr p = entry_pc; p < region_end; p += 4) {
    const isa::Instruction& inst = at(p);
    if (line_boundary(p)) {
      // Straight-line code enters a new 64 B line: always a fresh probe
      // (last_fetch_line trails by exactly one line here).
      TraceOp probe;
      probe.kind = static_cast<u8>(TraceOpKind::kIFetchProbe);
      probe.target = p;
      out.ops.push_back(probe);
      worst_extra += cost_.worst_miss;
    }

    TraceOp op;
    op.kind = static_cast<u8>(inst.op);
    op.rd = inst.rd;
    op.rs1 = inst.rs1;
    op.rs2 = inst.rs2;
    op.imm = inst.imm;
    bool emit = true;
    out.base_cost += 1;

    // ---- pair fusion: the second instruction must exist and carry no
    // probe, and a fused branch's index must fit its u8 field ----
    const Addr np = p + 4;
    const isa::Instruction* next =
        (np < region_end && !line_boundary(np)) ? &at(np) : nullptr;
    std::optional<TraceOpKind> fused =
        next != nullptr ? fused_pair_kind(inst, *next) : std::nullopt;
    if ((fused == TraceOpKind::kAndiBne || fused == TraceOpKind::kAndiBeq) &&
        inst_index(np) > 0xFF) {
      fused.reset();
    }
    if (fused.has_value()) {
      op.kind = static_cast<u8>(*fused);
      switch (*fused) {
        case TraceOpKind::kLdAddAcc:
        case TraceOpKind::kLdXorAcc:
          op.rs2 = next->rd;
          // Pre-stamp worst clock: everything accumulated so far minus this
          // inst's own +1 (stamped pre-commit) and minus prior mem-op costs
          // (the dispatcher re-adds those as replay stalls).
          out.last_pop_worst =
              out.base_cost - 1 + worst_extra - out.mem_worst_cost;
          out.base_cost += 1 + cost_.load_use;
          worst_extra += cost_.worst_miss;
          out.mem_worst_cost += cost_.load_use + cost_.worst_miss;
          out.mem_kinds.push_back(0);
          break;
        case TraceOpKind::kAndiBne:
        case TraceOpKind::kAndiBeq:
          op.rs2 = static_cast<u8>(inst_index(np));
          op.target = np + static_cast<Addr>(static_cast<i64>(next->imm));
          out.base_cost += 1;
          worst_extra += cost_.mispredict;
          break;
        case TraceOpKind::kMulAddi:
          op.imm = next->imm;
          out.base_cost += isa::opcode_latency(Opcode::kMul) - 1 + 1;
          break;
        case TraceOpKind::kAndAdd:
          op.imm = next->rs1;  // the base register
          out.base_cost += 1;
          break;
        default: {
          // Generic single-cycle ALU pair: one dispatch, second half in a
          // payload slot the handler consumes.
          op.imm = alu_pair_imm(inst.op, inst.imm);
          out.ops.push_back(op);
          TraceOp payload;
          payload.kind = static_cast<u8>(next->op);  // informational only
          payload.rd = next->rd;
          payload.rs1 = next->rs1;
          payload.rs2 = next->rs2;
          payload.imm = alu_pair_imm(next->op, next->imm);
          out.base_cost += 1;
          op = payload;  // pushed below
          break;
        }
      }
      out.ops.push_back(op);
      p += 4;
      continue;
    }

    switch (inst.op) {
      case Opcode::kMul:
      case Opcode::kMulh:
      case Opcode::kDiv:
      case Opcode::kDivu:
      case Opcode::kRem:
      case Opcode::kRemu:
        out.base_cost += isa::opcode_latency(inst.op) - 1;
        emit = inst.rd != 0;
        break;
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kSll: case Opcode::kSrl:
      case Opcode::kSra: case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor:
      case Opcode::kSlt: case Opcode::kSltu:
      case Opcode::kAddi: case Opcode::kAndi: case Opcode::kOri: case Opcode::kXori:
      case Opcode::kSlti: case Opcode::kSltiu:
        emit = inst.rd != 0;  // pure ALU into x0: only the cycle counts
        break;
      case Opcode::kSlli:
      case Opcode::kSrli:
      case Opcode::kSrai:
        op.imm = inst.imm & 63;
        emit = inst.rd != 0;
        break;
      case Opcode::kLui:
        // Pre-shift: imm19 << 13 spans exactly [-2^31, 2^31 - 2^13].
        op.imm = static_cast<i32>(static_cast<i64>(inst.imm) << isa::kLuiShift);
        emit = inst.rd != 0;
        break;

      case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
      case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu:
        op.imm = static_cast<i32>(inst_index(p));
        op.target = p + static_cast<Addr>(static_cast<i64>(inst.imm));
        worst_extra += cost_.mispredict;
        break;
      case Opcode::kJal:
        op.imm = static_cast<i32>(inst_index(p));
        op.target = p + static_cast<Addr>(static_cast<i64>(inst.imm));
        worst_extra += 1;  // decode-stage redirect bubble on BTB miss
        break;
      case Opcode::kJalr:
        op.target = p;  // needed for link value / BTB / RAS
        worst_extra += cost_.mispredict;
        break;

      case Opcode::kLb: case Opcode::kLbu: case Opcode::kLh: case Opcode::kLhu:
      case Opcode::kLw: case Opcode::kLwu: case Opcode::kLd:
        out.last_pop_worst =
            out.base_cost - 1 + worst_extra - out.mem_worst_cost;
        out.base_cost += cost_.load_use;
        worst_extra += cost_.worst_miss;
        out.mem_worst_cost += cost_.load_use + cost_.worst_miss;
        out.mem_kinds.push_back(0);
        break;
      case Opcode::kSb: case Opcode::kSh: case Opcode::kSw: case Opcode::kSd:
        out.last_pop_worst =
            out.base_cost - 1 + worst_extra - out.mem_worst_cost;
        worst_extra += cost_.worst_miss;
        out.mem_worst_cost += cost_.worst_miss;
        out.mem_kinds.push_back(1);
        break;

      default:
        FLEX_CHECK_MSG(false, "non-fast-path opcode reached the trace recorder");
    }

    if (emit) {
      out.ops.push_back(op);
    } else {
      // ALU into x0: no architectural effect beyond its cycle(s). The fused
      // segment-stream modes advance a per-op commit clock, so the cost must
      // stay at this program position as a pseudo-op (the plain path already
      // has it in base_cost and skips this).
      const auto cycles = static_cast<i32>(isa::opcode_latency(inst.op));
      if (!out.ops.empty() &&
          out.ops.back().kind == static_cast<u8>(TraceOpKind::kStaticCost)) {
        out.ops.back().imm += cycles;
      } else {
        TraceOp elided;
        elided.kind = static_cast<u8>(TraceOpKind::kStaticCost);
        elided.imm = cycles;
        out.ops.push_back(elided);
      }
    }
  }

  if (!terminal) {
    // Sentinel so the replay loop needs no bound check.
    TraceOp exit_op;
    exit_op.kind = static_cast<u8>(TraceOpKind::kExit);
    out.ops.push_back(exit_op);
  }

  out.exit_pc = region_end;
  out.exit_line = (region_end - 4) >> 6;
  out.mem_ops = static_cast<u32>(out.mem_kinds.size());
  out.worst_cost = out.base_cost + worst_extra;
  out.first_page = entry_pc >> Memory::kPageBits;
  out.last_page = (region_end - 1) >> Memory::kPageBits;
  return true;
}

}  // namespace flexstep::arch
