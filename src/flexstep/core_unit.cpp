#include "flexstep/core_unit.h"

#include <algorithm>
#include <bit>

#include "common/archive.h"
#include "common/check.h"
#include "isa/csr.h"

namespace flexstep::fs {

using arch::ArchState;
using arch::CommitInfo;

template <class Ar>
void CoreUnit::Snapshot::transfer(Ar& ar) {
  ar.boolean(checking_enabled);
  ar.boolean(segment_active);
  ar.varint(segment_ic);
  ar.varint(checking_budget);
  ar.fixed(segment_start_pc);
  ar.boolean(checker_busy);
  ar.boolean(replay_active);
  ar.boolean(replay_suspended);
  ar.boolean(have_thread_ctx);
  ass_thread_ctx.transfer(ar);
  pending_scp.transfer(ar);
  ar.varint(expected_ic);
  ar.varint(replayed);
  ar.boolean(segment_result_ok);
  ar.boolean(segment_verify_failed);
  ar.boolean(segment_abort);
  ar.varint(segments_produced);
  ar.varint(segments_verified);
  ar.varint(segments_failed);
  ar.varint(checkpoints_captured);
  ar.varint(mem_entries_logged);
  ar.varint(replayed_total);
}
template void CoreUnit::Snapshot::transfer(io::ArchiveWriter&);
template void CoreUnit::Snapshot::transfer(io::ArchiveReader&);

using arch::MemResult;
using isa::Instruction;
using isa::Opcode;

// ---------------------------------------------------------------------------
// Replay memory port: "the checker core halts memory access and sequentially
// replays the checking segments" (Sec. II). Loads are served from the MAL log
// (address verified); stores/AMO results are verified against the log.
// ---------------------------------------------------------------------------
class CoreUnit::ReplayPort final : public arch::MemPort {
 public:
  explicit ReplayPort(CoreUnit& unit) : unit_(unit) {}

  MemResult load(Opcode, Addr addr, u32) override {
    MemResult r;
    const auto entry = next_entry(MemEntryKind::kLoadData);
    if (!entry.has_value()) return r;  // structural abort already flagged
    if (entry->addr != addr) {
      unit_.report(DetectKind::kLoadAddr);
      unit_.s_.segment_verify_failed = true;
    }
    r.data = entry->data;  // replay uses the logged value
    r.stall = kFifoReadStall;
    return r;
  }

  MemResult store(Opcode, Addr addr, u32, u64 data) override {
    MemResult r;
    const auto entry = next_entry(MemEntryKind::kStoreAddrData);
    if (!entry.has_value()) return r;
    if (entry->addr != addr) {
      unit_.report(DetectKind::kStoreAddr);
      unit_.s_.segment_verify_failed = true;
    } else if (entry->data != data) {
      unit_.report(DetectKind::kStoreData);
      unit_.s_.segment_verify_failed = true;
    }
    r.stall = kFifoReadStall;
    return r;
  }

  MemResult amo(Opcode op, Addr addr, u64 operand) override {
    MemResult r;
    const auto load_part = next_entry(MemEntryKind::kAmoLoad);
    if (!load_part.has_value()) return r;
    if (load_part->addr != addr) {
      unit_.report(DetectKind::kLoadAddr);
      unit_.s_.segment_verify_failed = true;
    }
    const u64 old = load_part->data;
    const auto store_part = next_entry(MemEntryKind::kAmoStore);
    if (!store_part.has_value()) return r;
    if (store_part->addr != addr || store_part->data != isa::amo_result(op, old, operand)) {
      unit_.report(DetectKind::kAmoStore);
      unit_.s_.segment_verify_failed = true;
    }
    r.data = old;
    r.stall = kFifoReadStall + 1;
    return r;
  }

  MemResult load_reserved(Addr addr) override {
    MemResult r;
    const auto entry = next_entry(MemEntryKind::kLrLoad);
    if (!entry.has_value()) return r;
    if (entry->addr != addr) {
      unit_.report(DetectKind::kLoadAddr);
      unit_.s_.segment_verify_failed = true;
    }
    r.data = entry->data;
    r.stall = kFifoReadStall;
    return r;
  }

  MemResult store_conditional(Addr addr, u64 data) override {
    MemResult r;
    // The success flag is microarchitectural (reservation state cannot be
    // reproduced asynchronously) — trusted for replay, per Sec. III-B.
    const auto flag = next_entry(MemEntryKind::kScFlag);
    if (!flag.has_value()) return r;
    const bool success = flag->data == 0;
    if (success) {
      const auto store_part = next_entry(MemEntryKind::kScStore);
      if (!store_part.has_value()) return r;
      if (store_part->addr != addr || store_part->data != data) {
        unit_.report(DetectKind::kScMismatch);
        unit_.s_.segment_verify_failed = true;
      }
    }
    r.data = flag->data;
    r.stall = kFifoReadStall + 1;
    return r;
  }

 private:
  /// Pop the next log entry; structural mismatch aborts the segment.
  std::optional<MemLogEntry> next_entry(MemEntryKind expected) {
    Channel* ch = unit_.in_channel_;
    if (ch == nullptr || ch->empty() ||
        ch->front().kind != StreamItem::Kind::kMem ||
        ch->front().mem.kind != expected) {
      unit_.report(DetectKind::kStructural);
      unit_.s_.segment_verify_failed = true;
      unit_.s_.segment_abort = true;
      return std::nullopt;
    }
    return unit_.pop_in(unit_.core_.cycle()).mem;
  }

  CoreUnit& unit_;
};

// ---------------------------------------------------------------------------

CoreUnit::CoreUnit(arch::Core& core, GlobalConfig& global, ErrorReporter& reporter,
                   InterconnectControl* interconnect, const FlexStepConfig& config)
    : core_(core),
      global_(global),
      reporter_(reporter),
      interconnect_(interconnect),
      config_(config),
      replay_port_(std::make_unique<ReplayPort>(*this)) {
  refresh_passive();
  core_.set_hooks(this);
}

CoreUnit::~CoreUnit() {
  if (static_bound_memory_ != nullptr) {
    static_bound_memory_->unwatch_code_pages(this);
  }
}

void CoreUnit::set_static_dbc_bound(arch::Memory& memory,
                                    std::shared_ptr<const StaticDbcBound> bound) {
  if (static_bound_memory_ != nullptr) {
    static_bound_memory_->unwatch_code_pages(this);
    static_bound_memory_ = nullptr;
  }
  static_bound_ = std::move(bound);
  static_bound_dropped_ = false;
  if (static_bound_ != nullptr && static_bound_->end > static_bound_->base) {
    static_bound_memory_ = &memory;
    memory.watch_code_pages(this, static_bound_->base >> arch::Memory::kPageBits,
                            (static_bound_->end - 1) >> arch::Memory::kPageBits);
  }
}

void CoreUnit::on_code_page_written(u64 page_id) {
  // Flag only (this runs inside Memory's write path): the analysed image no
  // longer matches what may execute, so burst sizing falls back to the
  // conservative global divisor from the next sizing decision on. Sticky —
  // reanalysis arrives, if ever, through a fresh set_static_dbc_bound.
  (void)page_id;
  static_bound_dropped_ = true;
}

void CoreUnit::save(Snapshot& out) const { out = s_; }

void CoreUnit::restore(const Snapshot& snapshot) {
  s_ = snapshot;
  // The fused-path cursor is quantum-scoped (never live across a run_until
  // return, hence never part of any snapshot); drop any stale staging. The
  // bulk-consume horizon is likewise per-quantum driver state: start
  // conservative until the restoring driver re-establishes its contract.
  cursor_.used = 0;
  cursor_.capacity = 0;
  bulk_consume_horizon_ = 0;
  refresh_passive();
  // The core's data-memory port is not part of Core::Snapshot (it is a seam
  // pointer into this unit); re-derive it from the replay state.
  core_.set_mem_port(s_.replay_active ? static_cast<arch::MemPort*>(replay_port_.get())
                                      : nullptr);
  core_.set_trap_suppression(s_.replay_active);
}

// ---------------------------------------------------------------------------
// Main-core (producer) side
// ---------------------------------------------------------------------------

u32 CoreUnit::entries_for(Opcode op) {
  switch (isa::opcode_mem_kind(op)) {
    case isa::MemKind::kLoad:
    case isa::MemKind::kLoadReserved: return 1;
    case isa::MemKind::kStore: return 1;
    case isa::MemKind::kAmo:
    case isa::MemKind::kStoreConditional: return 2;
    case isa::MemKind::kNone: return 0;
  }
  return 0;
}

bool CoreUnit::out_channels_have_space() const {
  for (const Channel* ch : out_channels_) {
    if (!ch->producer_can_push(kProducerResumeHeadroom)) return false;
  }
  return true;
}

Cycle CoreUnit::out_channel_space_available_at() const {
  Cycle at = 0;
  for (const Channel* ch : out_channels_) at = std::max(at, ch->last_pop_cycle());
  return at;
}

u64 CoreUnit::producer_burst_headroom() const {
  if (!s_.checking_enabled || out_channels_.empty()) return ~u64{0};
  u64 entries = ~u64{0};
  for (const Channel* ch : out_channels_) {
    entries = std::min(entries, ch->producer_headroom_entries());
  }
  if (entries == ~u64{0}) return entries;
  // Reserve one segment boundary (SegmentEnd + the next segment's SCP — the
  // boundary itself ends the burst via request_quantum_end) plus the resume
  // headroom the next memory pre-check asks for; the rest is divided by the
  // worst-case per-instruction entry production.
  constexpr u64 kReserve = 2 + kProducerResumeHeadroom;
  if (entries <= kReserve) return 0;
  const u64 avail = entries - kReserve;
  // Default divisor: the ISA-wide worst case (LR/SC, AMO log two entries).
  // With a trusted static bound, use the analysis' forward-closure bound for
  // the pc the burst starts at instead: no instruction from here until the
  // next segment boundary can produce more per commit (kernel entry ends the
  // segment — and with it the burst — via request_quantum_end, and kernel
  // commits never log, so a mid-burst trap cannot out-produce the bound).
  u64 divisor = 2;
  if (static_bound_ != nullptr && !static_bound_dropped_) {
    const StaticDbcBound& bound = *static_bound_;
    if (!core_.user_mode()) {
      // Kernel mode: the return pc is wherever mepc points — bound by the
      // image-wide worst case (kernel commits themselves log nothing).
      divisor = bound.global;
    } else if (const Addr pc = core_.pc(); pc >= bound.base && pc < bound.end) {
      divisor = bound.per_inst[(pc - bound.base) / 4];
    }
    // divisor 0: no DBC-producing instruction on any path from here — the
    // burst can never push, so backpressure can never turn negative.
    if (divisor == 0) return ~u64{0};
  }
  return avail / divisor;
}

bool CoreUnit::memory_can_commit(arch::Core& core, const Instruction& inst) {
  if (!s_.checking_enabled || !s_.segment_active || out_channels_.empty()) return true;
  const u32 need = entries_for(inst.op);
  if (need == 0) return true;
  for (Channel* ch : out_channels_) {
    if (!ch->producer_can_push(need)) {
      ch->count_backpressure_event();
      (void)core;
      return false;  // core blocks; SoC driver resumes it once space appears
    }
  }
  return true;
}

void CoreUnit::start_segment(Addr start_pc) {
  ArchState scp = core_.capture_state();
  scp.pc = start_pc;
  s_.segment_start_pc = start_pc;
  s_.segment_ic = 0;
  s_.segment_active = true;
  refresh_passive();
  ++s_.checkpoints_captured;
  for (Channel* ch : out_channels_) ch->push_scp(scp, core_.cycle());
}

StreamItem CoreUnit::pop_in(Cycle now) {
  Channel& ch = *in_channel_;
  const bool had_space = ch.producer_can_push(kProducerResumeHeadroom);
  StreamItem item = ch.pop(now);
  // Ending the quantum on a space transition (or a SegmentEnd consumption,
  // which feeds the spill rule and drain detection) lets the co-sim driver
  // unblock a backpressured producer at exactly the cycle the stepwise
  // scheduler would have.
  if ((!had_space && ch.producer_can_push(kProducerResumeHeadroom)) ||
      item.kind == StreamItem::Kind::kSegmentEnd) {
    core_.request_quantum_end();
  }
  return item;
}

Cycle CoreUnit::end_segment(Addr resume_pc) {
  FLEX_CHECK(s_.segment_active);
  s_.segment_active = false;
  refresh_passive();
  // A zero-length segment (e.g. two back-to-back kernel entries) still ships
  // its SegmentEnd: the SCP is already queued, so the stream stays regular,
  // and the checker verifies it through enter_replay's expected_ic == 0 path.
  ArchState ecp = core_.capture_state();
  ecp.pc = resume_pc;
  ++s_.checkpoints_captured;
  ++s_.segments_produced;
  for (Channel* ch : out_channels_) ch->push_segment_end(ecp, s_.segment_ic, core_.cycle());
  // A SegmentEnd makes a parked checker wakeable (at the item's visible_at):
  // end the producer's quantum so the driver can schedule the wake before the
  // producer's clock runs past it.
  core_.request_quantum_end();
  return config_.checkpoint_stall;
}

Cycle CoreUnit::log_memory(const CommitInfo& info) {
  const Opcode op = info.inst->op;
  const Cycle now = core_.cycle();
  MemLogEntry entry;
  entry.addr = info.mem_addr;
  entry.bytes = static_cast<u8>(info.mem_bytes);

  u32 entries = 1;
  switch (isa::opcode_mem_kind(op)) {
    case isa::MemKind::kLoad:
      entry.kind = MemEntryKind::kLoadData;
      entry.data = info.mem_rdata;
      break;
    case isa::MemKind::kStore:
      entry.kind = MemEntryKind::kStoreAddrData;
      entry.data = info.mem_wdata;
      break;
    case isa::MemKind::kLoadReserved:
      entry.kind = MemEntryKind::kLrLoad;
      entry.data = info.mem_rdata;
      break;
    case isa::MemKind::kStoreConditional: {
      // Flag entry first; store part only when the SC succeeded.
      MemLogEntry flag;
      flag.kind = MemEntryKind::kScFlag;
      flag.data = info.mem_rdata;  // 0 = success
      flag.bytes = 1;
      for (Channel* ch : out_channels_) ch->push_mem(flag, now);
      ++s_.mem_entries_logged;
      if (info.sc_success) {
        entry.kind = MemEntryKind::kScStore;
        entry.data = info.mem_wdata;
        entries = 2;
      } else {
        return 1;  // flag only; extra micro-op latency
      }
      break;
    }
    case isa::MemKind::kAmo: {
      MemLogEntry load_part;
      load_part.kind = MemEntryKind::kAmoLoad;
      load_part.addr = info.mem_addr;
      load_part.data = info.mem_rdata;  // old value
      load_part.bytes = 8;
      for (Channel* ch : out_channels_) ch->push_mem(load_part, now);
      ++s_.mem_entries_logged;
      // The new value, recomputed exactly as the core did.
      entry.kind = MemEntryKind::kAmoStore;
      entry.data = isa::amo_result(op, info.mem_rdata, info.mem_wdata);
      entries = 2;
      break;
    }
    case isa::MemKind::kNone: return 0;
  }

  for (Channel* ch : out_channels_) ch->push_mem(entry, now);
  ++s_.mem_entries_logged;
  // Multi-entry instructions add a cycle of packaging latency (Sec. III-B).
  return entries > 1 ? 1 : 0;
}

Cycle CoreUnit::on_main_commit(const CommitInfo& info) {
  ++s_.segment_ic;
  Cycle stall = 0;
  if (info.mem_valid) stall += log_memory(info);
  if (s_.checking_budget > 0 && --s_.checking_budget == 0) {
    // Selective-checking budget exhausted: close the segment and switch the
    // checking function off for the rest of the job.
    stall += end_segment(info.next_pc);
    s_.checking_enabled = false;
    refresh_passive();
    return stall;
  }
  if (s_.segment_ic >= config_.segment_limit) {
    stall += end_segment(info.next_pc);
    start_segment(info.next_pc);
  }
  return stall;
}

// ---------------------------------------------------------------------------
// Checker-core (consumer) side
// ---------------------------------------------------------------------------

bool CoreUnit::segment_ready(Cycle now) const {
  return in_channel_ != nullptr && in_channel_->segment_ready(now);
}

Cycle CoreUnit::next_segment_ready_at() const {
  return in_channel_ == nullptr ? kNever : in_channel_->next_segment_ready_at();
}

void CoreUnit::apply_scp() {
  FLEX_CHECK_MSG(segment_ready(core_.cycle()), "C.apply with no ready SCP");
  FLEX_CHECK(in_channel_->front().kind == StreamItem::Kind::kScp);
  s_.pending_scp = in_channel_->checkpoint(0).state;
  pop_in(core_.cycle());
  s_.expected_ic = in_channel_->front_segment_ic();
  for (u8 r = 1; r < isa::kNumRegs; ++r) core_.set_reg(r, s_.pending_scp.regs[r]);
}

void CoreUnit::enter_replay() {
  s_.replay_active = true;
  refresh_passive();
  s_.replayed = 0;
  s_.segment_verify_failed = false;
  s_.segment_abort = false;
  if (s_.expected_ic == 0) {
    // Zero-length segment (back-to-back kernel entries on the main core):
    // nothing to execute; verify the ECP against the just-applied SCP state.
    finish_segment(s_.pending_scp.pc);
    return;
  }
  core_.set_pc(s_.pending_scp.pc);
  core_.set_user_mode(true);
  core_.set_mem_port(replay_port_.get());
  core_.set_trap_suppression(true);
  core_.activate();
}

void CoreUnit::begin_replay() {
  FLEX_CHECK_MSG(!s_.replay_active && !s_.replay_suspended, "replay already in flight");
  FLEX_CHECK_MSG(segment_ready(core_.cycle()), "no ready segment");

  // C.record: save the checker thread's context into the ASS (once per
  // activation; subsequent segments reuse it).
  if (!s_.have_thread_ctx) {
    s_.ass_thread_ctx = core_.capture_state();
    s_.have_thread_ctx = true;
  }
  core_.add_cycles(4);  // record/apply/jal micro-sequence
  apply_scp();
  enter_replay();
}

void CoreUnit::resume_replay() {
  FLEX_CHECK_MSG(s_.replay_suspended, "no suspended replay");
  s_.replay_suspended = false;
  s_.replay_active = true;
  refresh_passive();
  core_.set_user_mode(true);
  core_.set_mem_port(replay_port_.get());
  core_.set_trap_suppression(true);
}

CoreUnit::ReplayContext CoreUnit::extract_replay_context() {
  FLEX_CHECK_MSG(!s_.replay_active, "extract while replay is executing");
  ReplayContext ctx;
  ctx.active = s_.replay_suspended;
  ctx.replayed = s_.replayed;
  ctx.expected_ic = s_.expected_ic;
  ctx.pending_scp = s_.pending_scp;
  ctx.verify_failed = s_.segment_verify_failed;
  ctx.abort = s_.segment_abort;
  ctx.have_thread_ctx = s_.have_thread_ctx;
  ctx.thread_ctx = s_.ass_thread_ctx;
  s_.replay_suspended = false;
  s_.have_thread_ctx = false;
  s_.replayed = 0;
  s_.expected_ic = 0;
  s_.segment_verify_failed = false;
  s_.segment_abort = false;
  return ctx;
}

void CoreUnit::adopt_replay_context(const ReplayContext& ctx) {
  FLEX_CHECK_MSG(!s_.replay_active && !s_.replay_suspended, "unit busy with another replay");
  s_.replayed = ctx.replayed;
  s_.expected_ic = ctx.expected_ic;
  s_.pending_scp = ctx.pending_scp;
  s_.segment_verify_failed = ctx.verify_failed;
  s_.segment_abort = ctx.abort;
  s_.have_thread_ctx = ctx.have_thread_ctx;
  s_.ass_thread_ctx = ctx.thread_ctx;
  s_.replay_suspended = ctx.active;
}

void CoreUnit::report(DetectKind kind) {
  FLEX_CHECK(in_channel_ != nullptr);
  // One error report per failing segment (hardware raises C.result once at
  // the segment boundary); a diverged replay would otherwise storm reports.
  if (s_.segment_verify_failed) return;
  reporter_.on_detect(*in_channel_, kind, core_.id(), core_.cycle());
}

void CoreUnit::on_replay_fetch_fault() {
  report(DetectKind::kStructural);
  s_.segment_verify_failed = true;
  abandon_segment();
}

void CoreUnit::abandon_segment() {
  // Resynchronise: drop everything up to and including the SegmentEnd.
  while (in_channel_ != nullptr && !in_channel_->empty()) {
    const StreamItem item = pop_in(core_.cycle());
    if (item.kind == StreamItem::Kind::kSegmentEnd) break;
  }
  ++s_.segments_failed;
  exit_replay_mode(false);
}

void CoreUnit::finish_segment(Addr checker_next_pc) {
  // The SegmentEnd must be the next queued item (all entries consumed).
  if (in_channel_->empty() ||
      in_channel_->front().kind != StreamItem::Kind::kSegmentEnd) {
    report(DetectKind::kStructural);
    s_.segment_verify_failed = true;
    abandon_segment();
    return;
  }
  const ArchState ecp = in_channel_->checkpoint(0).state;
  pop_in(core_.cycle());

  // Compare the checker's architectural state with the ECP.
  bool mismatch_reported = false;
  if (ecp.pc != checker_next_pc) {
    report(DetectKind::kEcpPc);
    mismatch_reported = true;
  }
  for (u8 r = 1; r < isa::kNumRegs && !mismatch_reported; ++r) {
    if (core_.reg(r) != ecp.regs[r]) {
      report(DetectKind::kEcpReg);
      mismatch_reported = true;
    }
  }
  const bool ok = !mismatch_reported && !s_.segment_verify_failed;
  if (ok) {
    ++s_.segments_verified;
  } else {
    ++s_.segments_failed;
  }
  core_.add_cycles(4);  // ECP comparison + state swap back
  exit_replay_mode(ok);
}

void CoreUnit::exit_replay_mode(bool ok) {
  s_.segment_result_ok = ok;
  s_.replay_active = false;
  s_.replay_suspended = false;
  refresh_passive();
  core_.set_mem_port(nullptr);
  core_.set_trap_suppression(false);
  // Rapid context switch back to the checker thread: restore the C.record
  // snapshot from the ASS (Sec. III-A).
  if (s_.have_thread_ctx) core_.restore_state(s_.ass_thread_ctx);
  core_.set_user_mode(false);
  if (on_segment_done_) on_segment_done_(*this, ok);
}

Cycle CoreUnit::on_replay_commit(const CommitInfo& info) {
  ++s_.replayed;
  ++s_.replayed_total;
  if (s_.segment_abort) {
    abandon_segment();
    return 0;
  }
  if (s_.replayed >= s_.expected_ic) {
    finish_segment(info.next_pc);
    return 0;
  }
  if (s_.replayed >= static_cast<u64>(config_.segment_limit) * config_.max_replay_factor) {
    // Runaway replay (corrupted IC): declare structural failure.
    report(DetectKind::kStructural);
    s_.segment_verify_failed = true;
    abandon_segment();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// CoreHooks dispatch
// ---------------------------------------------------------------------------

u64 CoreUnit::commit_batch_limit() const {
  // For non-memory user commits both live modes reduce to counter increments
  // (on_replay_commit / on_main_commit below); the batch may therefore run up
  // to — but must exclude — the next instruction whose commit does more.
  if (s_.replay_active) {
    if (s_.segment_abort) return 0;  // next commit abandons the segment
    const u64 runaway =
        u64{config_.segment_limit} * config_.max_replay_factor;
    const u64 horizon = std::min(s_.expected_ic, runaway);
    return horizon > s_.replayed + 1 ? horizon - s_.replayed - 1 : 0;
  }
  if (s_.checking_enabled && s_.segment_active) {
    u64 limit = config_.segment_limit > s_.segment_ic
                    ? config_.segment_limit - s_.segment_ic
                    : 0;
    if (s_.checking_budget > 0) limit = std::min(limit, s_.checking_budget);
    return limit > 1 ? limit - 1 : 0;
  }
  return 0;  // unreachable while non-passive; be conservative
}

void CoreUnit::on_commit_batch(arch::Core& core, u64 count) {
  (void)core;
  // Stream effects first: the staged records must land in the channel (or be
  // retired from it) before any per-instruction path can push or pop again.
  if (cursor_.used > 0) publish_cursor();
  if (s_.replay_active) {
    s_.replayed += count;
    s_.replayed_total += count;
    return;
  }
  s_.segment_ic += count;
  // commit_batch_limit kept the batch short of exhausting the selective-
  // checking budget, so the closing instruction still commits one at a time.
  if (s_.checking_budget > 0) s_.checking_budget -= count;
}

arch::SegmentCursor* CoreUnit::open_segment_cursor(arch::Core& core,
                                                   u64 max_entries) {
  (void)core;
  cursor_.used = 0;
  cursor_.capacity = 0;
  if (max_entries == 0) return nullptr;
  if (s_.replay_active) {
    if (s_.segment_abort || in_channel_ == nullptr) return nullptr;
    Channel& ch = *in_channel_;
    // Stage the run of plain load/store log entries at the queue front. The
    // staging copy is O(run length), so it is clamped to what the span can
    // actually consume (`max_entries`: tiny under the strict-leapfrog engine,
    // a whole burst under the relaxed one). Unless the driver has promised
    // that every pop this quantum stays in the producer's past (bulk consume
    // horizon), the pop that frees the producer-resume space threshold must
    // stay on the stepwise path (pop_in ends the quantum so the driver can
    // wake the blocked producer at exactly the stepwise cycle), so when the
    // channel is over that threshold the staged run stops one short of the
    // transition.
    // A span of `max_entries` instructions commits far fewer memory ops than
    // instructions (typical workloads sit near 15-25% memory density), and
    // staging is a per-entry copy — so pre-staging the full instruction
    // window mostly copies records the span never reaches. Stage a quarter
    // of the window (plus slack for tiny windows): dense memory code simply
    // exhausts the cursor early, bails, and re-stages on the next span.
    const u64 expected = max_entries / 4 + 8;
    u64 max_pops = std::min<u64>(kCursorSlots, std::min(max_entries, expected));
    if (bulk_consume_horizon_ == 0 &&
        !ch.producer_can_push(kProducerResumeHeadroom)) {
      const u64 wake =
          ch.size() + kProducerResumeHeadroom - config_.channel_capacity;
      max_pops = std::min<u64>(max_pops, wake - 1);
    }
    const u64 avail = std::min<u64>(ch.size(), max_pops);
    if (avail == 0) return nullptr;
    arch::MemRecord* const slots = cursor_staging(avail);
    u32 staged = 0;
    for (u64 i = 0; i < avail; ++i) {
      const StreamItem& item = ch.item(i);
      if (item.kind != StreamItem::Kind::kMem) break;
      if (item.mem.kind != MemEntryKind::kLoadData &&
          item.mem.kind != MemEntryKind::kStoreAddrData) {
        break;  // LR/SC/AMO entries replay through the stepwise port
      }
      arch::MemRecord& rec = slots[staged];
      rec.kind = static_cast<u8>(item.mem.kind);
      rec.bytes = item.mem.bytes;
      rec.addr = item.mem.addr;
      rec.data = item.mem.data;
      ++staged;
    }
    if (staged == 0) return nullptr;
    cursor_.slots = slots;
    cursor_.capacity = staged;
    cursor_.produce = false;
    cursor_.load_kind = static_cast<u8>(MemEntryKind::kLoadData);
    cursor_.store_kind = static_cast<u8>(MemEntryKind::kStoreAddrData);
    cursor_.replay_stall = kFifoReadStall;
    cursor_.last_cycle = core_.cycle();
    // Under a bulk-consume horizon the quantum bound is scheduler-only, so
    // hot traces whose pops fit below it may overrun with their tails.
    cursor_.allow_bound_overrun = bulk_consume_horizon_ != 0;
    cursor_.ctx = this;
    cursor_.on_mismatch = &cursor_mismatch_thunk;
    return &cursor_;
  }
  if (s_.checking_enabled && s_.segment_active && !out_channels_.empty()) {
    // Producer side: the cursor capacity is the number of entries every out
    // channel can absorb without any backpressure decision turning negative,
    // so the fused path never needs memory_can_commit (which would have
    // returned true for each staged access, with no backpressure event).
    u64 headroom = ~u64{0};
    for (const Channel* ch : out_channels_) {
      headroom = std::min(headroom, ch->producer_headroom_entries());
    }
    if (headroom == 0) return nullptr;
    cursor_.capacity = static_cast<u32>(
        std::min<u64>(std::min<u64>(headroom, kCursorSlots), max_entries));
    cursor_.slots = cursor_staging(cursor_.capacity);
    cursor_.produce = true;
    cursor_.load_kind = static_cast<u8>(MemEntryKind::kLoadData);
    cursor_.store_kind = static_cast<u8>(MemEntryKind::kStoreAddrData);
    cursor_.replay_stall = 0;
    cursor_.allow_bound_overrun = false;
    cursor_.ctx = this;
    cursor_.on_mismatch = nullptr;
    return &cursor_;
  }
  return nullptr;
}

arch::MemRecord* CoreUnit::cursor_staging(u64 records) {
  if (cursor_slots_.size() < records) {
    FLEX_DCHECK(records <= kCursorSlots);
    // Staged records never outlive their span, so growing keeps none.
    cursor_slots_.clear();
    cursor_slots_.resize(std::bit_ceil(records));
  }
  return cursor_slots_.data();
}

void CoreUnit::publish_cursor() {
  if (cursor_.produce) {
    for (u32 i = 0; i < cursor_.used; ++i) {
      const arch::MemRecord& rec = cursor_slots_[i];
      MemLogEntry entry;
      entry.kind = static_cast<MemEntryKind>(rec.kind);
      entry.bytes = rec.bytes;
      entry.addr = rec.addr;
      entry.data = rec.data;
      for (Channel* ch : out_channels_) ch->push_mem(entry, rec.cycle);
      ++s_.mem_entries_logged;
    }
  } else if (in_channel_ != nullptr) {
    in_channel_->consume_front(cursor_.used, cursor_.last_cycle);
  }
  cursor_.used = 0;
  cursor_.capacity = 0;
}

void CoreUnit::cursor_mismatch_thunk(void* ctx, arch::ReplayMismatch kind,
                                     Cycle at) {
  auto& unit = *static_cast<CoreUnit*>(ctx);
  DetectKind detect = DetectKind::kLoadAddr;
  switch (kind) {
    case arch::ReplayMismatch::kLoadAddr: detect = DetectKind::kLoadAddr; break;
    case arch::ReplayMismatch::kStoreAddr: detect = DetectKind::kStoreAddr; break;
    case arch::ReplayMismatch::kStoreData: detect = DetectKind::kStoreData; break;
  }
  // Same one-report-per-segment rule as report(), but with the pre-commit
  // clock of the diverging access (core_.cycle() is stale inside the batch).
  if (!unit.s_.segment_verify_failed) {
    unit.reporter_.on_detect(*unit.in_channel_, detect, unit.core_.id(), at);
  }
  unit.s_.segment_verify_failed = true;
}

Cycle CoreUnit::on_commit(arch::Core& core, const CommitInfo& info) {
  (void)core;
  if (!info.user_mode) return 0;
  if (s_.replay_active) return on_replay_commit(info);
  if (s_.checking_enabled && s_.segment_active) return on_main_commit(info);
  return 0;
}

void CoreUnit::on_enter_kernel(arch::Core& core) {
  if (s_.replay_active) {
    // Preemption of a checking segment (FlexStep's headline capability): the
    // replay context lives in the core's architectural state, which the
    // kernel saves; the unit keeps counters/channel position for resumption.
    s_.replay_active = false;
    s_.replay_suspended = true;
    refresh_passive();
    core.set_mem_port(nullptr);
    core.set_trap_suppression(false);
    return;
  }
  if (s_.checking_enabled && s_.segment_active) {
    // Premature segment extermination (Fig. 3 case 1): close at the resume PC.
    const Addr resume_pc = core.read_csr(isa::kCsrMepc);
    const Cycle stall = end_segment(resume_pc);
    core.add_cycles(stall);
  }
}

void CoreUnit::on_exit_kernel(arch::Core& core) {
  if (s_.replay_suspended) {
    // Kernel excursion on the checker returned straight to the replay thread.
    resume_replay();
    return;
  }
  if (s_.checking_enabled && !s_.segment_active && attr() == CoreAttr::kMain) {
    // Temporary deviation over (Fig. 3 case 2): open the next segment.
    start_segment(core.pc());
  }
}

u64 CoreUnit::exec_custom(arch::Core& core, const Instruction& inst) {
  switch (inst.op) {
    case Opcode::kGIdsContain:
      return static_cast<u64>(global_.attr_of(static_cast<CoreId>(core.reg(inst.rs1))));

    case Opcode::kGConfigure:
      global_.configure(core.reg(inst.rs1), core.reg(inst.rs2));
      return 0;

    case Opcode::kMAssociate:
      FLEX_CHECK_MSG(interconnect_ != nullptr, "M.associate needs an interconnect");
      interconnect_->associate(core.id(), core.reg(inst.rs1));
      return 0;

    case Opcode::kMCheck: {
      const bool enable = inst.imm != 0;
      if (enable && !s_.checking_enabled) {
        s_.checking_enabled = true;
        refresh_passive();
        // Selective checking (Sec. V: checking "performed on specific
        // portions of a job"): rs1 carries an instruction budget; the CPC
        // counts it down and switches checking off at zero. rs1 = x0 means
        // unbounded (full-job checking).
        s_.checking_budget = inst.rs1 != 0 ? core.reg(inst.rs1) : 0;
        start_segment(core.pc());
      } else if (!enable && s_.checking_enabled) {
        if (s_.segment_active) {
          const Cycle stall = end_segment(core.pc());
          core.add_cycles(stall);
        }
        s_.checking_enabled = false;
        s_.checking_budget = 0;
        refresh_passive();
      }
      return 0;
    }

    case Opcode::kCCheckState:
      // The C.record snapshot stays in the ASS across busy/idle transitions;
      // the kernel extracts it per-job when interleaving checker jobs.
      s_.checker_busy = inst.imm != 0;
      return 0;

    case Opcode::kCRecord:
      s_.ass_thread_ctx = core.capture_state();
      s_.have_thread_ctx = true;
      return 0;

    case Opcode::kCApply:
      // Kernel-driven variant of begin_replay()'s apply step.
      apply_scp();
      return 0;

    case Opcode::kCJal:
      enter_replay();
      return 0;

    case Opcode::kCResult:
      return s_.segment_result_ok ? 1 : 0;

    default:
      FLEX_CHECK_MSG(false, "not a FlexStep custom instruction");
      return 0;
  }
}

}  // namespace flexstep::fs
