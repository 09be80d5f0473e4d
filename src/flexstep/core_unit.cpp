#include "flexstep/core_unit.h"

#include <algorithm>
#include <bit>

#include "common/archive.h"
#include "common/check.h"
#include "common/log.h"
#include "isa/csr.h"

namespace flexstep::fs {

using arch::ArchState;
using arch::CommitInfo;

namespace {

void serialize_state(io::ArchiveWriter& ar, const ArchState& s) {
  ar.put_u64(s.pc);
  for (u64 r : s.regs) ar.put_u64(r);
}

void deserialize_state(io::ArchiveReader& ar, ArchState& s) {
  s.pc = ar.take_u64();
  for (u64& r : s.regs) r = ar.take_u64();
}

}  // namespace

void CoreUnit::Snapshot::serialize(io::ArchiveWriter& ar) const {
  ar.put_bool(checking_enabled);
  ar.put_bool(segment_active);
  ar.put_varint(segment_ic);
  ar.put_varint(checking_budget);
  ar.put_u64(segment_start_pc);
  ar.put_bool(checker_busy);
  ar.put_bool(replay_active);
  ar.put_bool(replay_suspended);
  ar.put_bool(have_thread_ctx);
  serialize_state(ar, ass_thread_ctx);
  serialize_state(ar, pending_scp);
  ar.put_varint(expected_ic);
  ar.put_varint(replayed);
  ar.put_bool(segment_result_ok);
  ar.put_bool(segment_verify_failed);
  ar.put_bool(segment_abort);
  ar.put_varint(segments_produced);
  ar.put_varint(segments_verified);
  ar.put_varint(segments_failed);
  ar.put_varint(checkpoints_captured);
  ar.put_varint(mem_entries_logged);
  ar.put_varint(replayed_total);
}

void CoreUnit::Snapshot::deserialize(io::ArchiveReader& ar) {
  checking_enabled = ar.take_bool();
  segment_active = ar.take_bool();
  segment_ic = ar.take_varint();
  checking_budget = ar.take_varint();
  segment_start_pc = ar.take_u64();
  checker_busy = ar.take_bool();
  replay_active = ar.take_bool();
  replay_suspended = ar.take_bool();
  have_thread_ctx = ar.take_bool();
  deserialize_state(ar, ass_thread_ctx);
  deserialize_state(ar, pending_scp);
  expected_ic = ar.take_varint();
  replayed = ar.take_varint();
  segment_result_ok = ar.take_bool();
  segment_verify_failed = ar.take_bool();
  segment_abort = ar.take_bool();
  segments_produced = ar.take_varint();
  segments_verified = ar.take_varint();
  segments_failed = ar.take_varint();
  checkpoints_captured = ar.take_varint();
  mem_entries_logged = ar.take_varint();
  replayed_total = ar.take_varint();
}
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
      unit_.segment_verify_failed_ = true;
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
      unit_.segment_verify_failed_ = true;
    } else if (entry->data != data) {
      unit_.report(DetectKind::kStoreData);
      unit_.segment_verify_failed_ = true;
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
      unit_.segment_verify_failed_ = true;
    }
    const u64 old = load_part->data;
    u64 next = 0;
    switch (op) {
      case Opcode::kAmoaddD: next = old + operand; break;
      case Opcode::kAmoswapD: next = operand; break;
      case Opcode::kAmoxorD: next = old ^ operand; break;
      case Opcode::kAmoandD: next = old & operand; break;
      case Opcode::kAmoorD: next = old | operand; break;
      default: FLEX_CHECK_MSG(false, "not an AMO opcode");
    }
    const auto store_part = next_entry(MemEntryKind::kAmoStore);
    if (!store_part.has_value()) return r;
    if (store_part->addr != addr || store_part->data != next) {
      unit_.report(DetectKind::kAmoStore);
      unit_.segment_verify_failed_ = true;
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
      unit_.segment_verify_failed_ = true;
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
        unit_.segment_verify_failed_ = true;
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
      unit_.segment_verify_failed_ = true;
      unit_.segment_abort_ = true;
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

void CoreUnit::save(Snapshot& out) const {
  out.checking_enabled = checking_enabled_;
  out.segment_active = segment_active_;
  out.segment_ic = segment_ic_;
  out.checking_budget = checking_budget_;
  out.segment_start_pc = segment_start_pc_;
  out.checker_busy = checker_busy_;
  out.replay_active = replay_active_;
  out.replay_suspended = replay_suspended_;
  out.have_thread_ctx = have_thread_ctx_;
  out.ass_thread_ctx = ass_thread_ctx_;
  out.pending_scp = pending_scp_;
  out.expected_ic = expected_ic_;
  out.replayed = replayed_;
  out.segment_result_ok = segment_result_ok_;
  out.segment_verify_failed = segment_verify_failed_;
  out.segment_abort = segment_abort_;
  out.segments_produced = segments_produced_;
  out.segments_verified = segments_verified_;
  out.segments_failed = segments_failed_;
  out.checkpoints_captured = checkpoints_captured_;
  out.mem_entries_logged = mem_entries_logged_;
  out.replayed_total = replayed_total_;
}

void CoreUnit::restore(const Snapshot& snapshot) {
  checking_enabled_ = snapshot.checking_enabled;
  segment_active_ = snapshot.segment_active;
  segment_ic_ = snapshot.segment_ic;
  checking_budget_ = snapshot.checking_budget;
  segment_start_pc_ = snapshot.segment_start_pc;
  checker_busy_ = snapshot.checker_busy;
  replay_active_ = snapshot.replay_active;
  replay_suspended_ = snapshot.replay_suspended;
  have_thread_ctx_ = snapshot.have_thread_ctx;
  ass_thread_ctx_ = snapshot.ass_thread_ctx;
  pending_scp_ = snapshot.pending_scp;
  expected_ic_ = snapshot.expected_ic;
  replayed_ = snapshot.replayed;
  segment_result_ok_ = snapshot.segment_result_ok;
  segment_verify_failed_ = snapshot.segment_verify_failed;
  segment_abort_ = snapshot.segment_abort;
  segments_produced_ = snapshot.segments_produced;
  segments_verified_ = snapshot.segments_verified;
  segments_failed_ = snapshot.segments_failed;
  checkpoints_captured_ = snapshot.checkpoints_captured;
  mem_entries_logged_ = snapshot.mem_entries_logged;
  replayed_total_ = snapshot.replayed_total;
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
  core_.set_mem_port(replay_active_ ? static_cast<arch::MemPort*>(replay_port_.get())
                                    : nullptr);
  core_.set_trap_suppression(replay_active_);
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
  if (!checking_enabled_ || out_channels_.empty()) return ~u64{0};
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
  if (!checking_enabled_ || !segment_active_ || out_channels_.empty()) return true;
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
  segment_start_pc_ = start_pc;
  segment_ic_ = 0;
  segment_active_ = true;
  refresh_passive();
  ++checkpoints_captured_;
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
  FLEX_CHECK(segment_active_);
  segment_active_ = false;
  refresh_passive();
  // Zero-length segments (e.g. two back-to-back kernel entries) carry no
  // information; retract rather than ship an empty segment.
  if (segment_ic_ == 0) {
    // The SCP was already pushed; ship a matching empty SegmentEnd so the
    // stream stays structurally regular. Checkers verify it trivially.
  }
  ArchState ecp = core_.capture_state();
  ecp.pc = resume_pc;
  ++checkpoints_captured_;
  ++segments_produced_;
  for (Channel* ch : out_channels_) ch->push_segment_end(ecp, segment_ic_, core_.cycle());
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
      ++mem_entries_logged_;
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
      ++mem_entries_logged_;
      // New value = f(old, operand); recompute exactly as the core did.
      const u64 old = info.mem_rdata;
      const u64 operand = info.mem_wdata;
      u64 next = 0;
      switch (op) {
        case Opcode::kAmoaddD: next = old + operand; break;
        case Opcode::kAmoswapD: next = operand; break;
        case Opcode::kAmoxorD: next = old ^ operand; break;
        case Opcode::kAmoandD: next = old & operand; break;
        case Opcode::kAmoorD: next = old | operand; break;
        default: FLEX_CHECK_MSG(false, "not an AMO opcode");
      }
      entry.kind = MemEntryKind::kAmoStore;
      entry.data = next;
      entries = 2;
      break;
    }
    case isa::MemKind::kNone: return 0;
  }

  for (Channel* ch : out_channels_) ch->push_mem(entry, now);
  ++mem_entries_logged_;
  // Multi-entry instructions add a cycle of packaging latency (Sec. III-B).
  return entries > 1 ? 1 : 0;
}

Cycle CoreUnit::on_main_commit(const CommitInfo& info) {
  ++segment_ic_;
  Cycle stall = 0;
  if (info.mem_valid) stall += log_memory(info);
  if (checking_budget_ > 0 && --checking_budget_ == 0) {
    // Selective-checking budget exhausted: close the segment and switch the
    // checking function off for the rest of the job.
    stall += end_segment(info.next_pc);
    checking_enabled_ = false;
    refresh_passive();
    return stall;
  }
  if (segment_ic_ >= config_.segment_limit) {
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
  pending_scp_ = in_channel_->checkpoint(0).state;
  pop_in(core_.cycle());
  expected_ic_ = in_channel_->front_segment_ic();
  for (u8 r = 1; r < isa::kNumRegs; ++r) core_.set_reg(r, pending_scp_.regs[r]);
}

void CoreUnit::enter_replay() {
  replay_active_ = true;
  refresh_passive();
  replayed_ = 0;
  segment_verify_failed_ = false;
  segment_abort_ = false;
  if (expected_ic_ == 0) {
    // Zero-length segment (back-to-back kernel entries on the main core):
    // nothing to execute; verify the ECP against the just-applied SCP state.
    finish_segment(pending_scp_.pc);
    return;
  }
  core_.set_pc(pending_scp_.pc);
  core_.set_user_mode(true);
  core_.set_mem_port(replay_port_.get());
  core_.set_trap_suppression(true);
  core_.activate();
}

void CoreUnit::begin_replay() {
  FLEX_CHECK_MSG(!replay_active_ && !replay_suspended_, "replay already in flight");
  FLEX_CHECK_MSG(segment_ready(core_.cycle()), "no ready segment");

  // C.record: save the checker thread's context into the ASS (once per
  // activation; subsequent segments reuse it).
  if (!have_thread_ctx_) {
    ass_thread_ctx_ = core_.capture_state();
    have_thread_ctx_ = true;
  }
  core_.add_cycles(4);  // record/apply/jal micro-sequence
  apply_scp();
  enter_replay();
}

void CoreUnit::resume_replay() {
  FLEX_CHECK_MSG(replay_suspended_, "no suspended replay");
  replay_suspended_ = false;
  replay_active_ = true;
  refresh_passive();
  core_.set_user_mode(true);
  core_.set_mem_port(replay_port_.get());
  core_.set_trap_suppression(true);
}

CoreUnit::ReplayContext CoreUnit::extract_replay_context() {
  FLEX_CHECK_MSG(!replay_active_, "extract while replay is executing");
  ReplayContext ctx;
  ctx.active = replay_suspended_;
  ctx.replayed = replayed_;
  ctx.expected_ic = expected_ic_;
  ctx.pending_scp = pending_scp_;
  ctx.verify_failed = segment_verify_failed_;
  ctx.abort = segment_abort_;
  ctx.have_thread_ctx = have_thread_ctx_;
  ctx.thread_ctx = ass_thread_ctx_;
  replay_suspended_ = false;
  have_thread_ctx_ = false;
  replayed_ = 0;
  expected_ic_ = 0;
  segment_verify_failed_ = false;
  segment_abort_ = false;
  return ctx;
}

void CoreUnit::adopt_replay_context(const ReplayContext& ctx) {
  FLEX_CHECK_MSG(!replay_active_ && !replay_suspended_, "unit busy with another replay");
  replayed_ = ctx.replayed;
  expected_ic_ = ctx.expected_ic;
  pending_scp_ = ctx.pending_scp;
  segment_verify_failed_ = ctx.verify_failed;
  segment_abort_ = ctx.abort;
  have_thread_ctx_ = ctx.have_thread_ctx;
  ass_thread_ctx_ = ctx.thread_ctx;
  replay_suspended_ = ctx.active;
}

void CoreUnit::cancel_replay() {
  if (replay_active_ || replay_suspended_) {
    replay_active_ = false;
    replay_suspended_ = false;
    refresh_passive();
    core_.set_mem_port(nullptr);
    core_.set_trap_suppression(false);
  }
}

void CoreUnit::report(DetectKind kind) {
  FLEX_CHECK(in_channel_ != nullptr);
  // One error report per failing segment (hardware raises C.result once at
  // the segment boundary); a diverged replay would otherwise storm reports.
  if (segment_verify_failed_) return;
  reporter_.on_detect(*in_channel_, kind, core_.id(), core_.cycle());
}

void CoreUnit::on_replay_fetch_fault() {
  report(DetectKind::kStructural);
  segment_verify_failed_ = true;
  abandon_segment();
}

void CoreUnit::abandon_segment() {
  // Resynchronise: drop everything up to and including the SegmentEnd.
  while (in_channel_ != nullptr && !in_channel_->empty()) {
    const StreamItem item = pop_in(core_.cycle());
    if (item.kind == StreamItem::Kind::kSegmentEnd) break;
  }
  ++segments_failed_;
  exit_replay_mode(false);
}

void CoreUnit::finish_segment(Addr checker_next_pc) {
  // The SegmentEnd must be the next queued item (all entries consumed).
  if (in_channel_->empty() ||
      in_channel_->front().kind != StreamItem::Kind::kSegmentEnd) {
    report(DetectKind::kStructural);
    segment_verify_failed_ = true;
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
  const bool ok = !mismatch_reported && !segment_verify_failed_;
  if (ok) {
    ++segments_verified_;
  } else {
    ++segments_failed_;
  }
  core_.add_cycles(4);  // ECP comparison + state swap back
  exit_replay_mode(ok);
}

void CoreUnit::exit_replay_mode(bool ok) {
  segment_result_ok_ = ok;
  replay_active_ = false;
  replay_suspended_ = false;
  refresh_passive();
  core_.set_mem_port(nullptr);
  core_.set_trap_suppression(false);
  // Rapid context switch back to the checker thread: restore the C.record
  // snapshot from the ASS (Sec. III-A).
  if (have_thread_ctx_) core_.restore_state(ass_thread_ctx_);
  core_.set_user_mode(false);
  if (on_segment_done_) on_segment_done_(*this, ok);
}

Cycle CoreUnit::on_replay_commit(const CommitInfo& info) {
  ++replayed_;
  ++replayed_total_;
  if (segment_abort_) {
    abandon_segment();
    return 0;
  }
  if (replayed_ >= expected_ic_) {
    finish_segment(info.next_pc);
    return 0;
  }
  if (replayed_ >= static_cast<u64>(config_.segment_limit) * config_.max_replay_factor) {
    // Runaway replay (corrupted IC): declare structural failure.
    report(DetectKind::kStructural);
    segment_verify_failed_ = true;
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
  if (replay_active_) {
    if (segment_abort_) return 0;  // next commit abandons the segment
    const u64 runaway =
        u64{config_.segment_limit} * config_.max_replay_factor;
    const u64 horizon = std::min(expected_ic_, runaway);
    return horizon > replayed_ + 1 ? horizon - replayed_ - 1 : 0;
  }
  if (checking_enabled_ && segment_active_) {
    u64 limit = config_.segment_limit > segment_ic_
                    ? config_.segment_limit - segment_ic_
                    : 0;
    if (checking_budget_ > 0) limit = std::min(limit, checking_budget_);
    return limit > 1 ? limit - 1 : 0;
  }
  return 0;  // unreachable while non-passive; be conservative
}

void CoreUnit::on_commit_batch(arch::Core& core, u64 count) {
  (void)core;
  // Stream effects first: the staged records must land in the channel (or be
  // retired from it) before any per-instruction path can push or pop again.
  if (cursor_.used > 0) publish_cursor();
  if (replay_active_) {
    replayed_ += count;
    replayed_total_ += count;
    return;
  }
  segment_ic_ += count;
  // commit_batch_limit kept the batch short of exhausting the selective-
  // checking budget, so the closing instruction still commits one at a time.
  if (checking_budget_ > 0) checking_budget_ -= count;
}

arch::SegmentCursor* CoreUnit::open_segment_cursor(arch::Core& core,
                                                   u64 max_entries) {
  (void)core;
  cursor_.used = 0;
  cursor_.capacity = 0;
  if (max_entries == 0) return nullptr;
  if (replay_active_) {
    if (segment_abort_ || in_channel_ == nullptr) return nullptr;
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
  if (checking_enabled_ && segment_active_ && !out_channels_.empty()) {
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
      ++mem_entries_logged_;
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
  if (!unit.segment_verify_failed_) {
    unit.reporter_.on_detect(*unit.in_channel_, detect, unit.core_.id(), at);
  }
  unit.segment_verify_failed_ = true;
}

Cycle CoreUnit::on_commit(arch::Core& core, const CommitInfo& info) {
  (void)core;
  if (!info.user_mode) return 0;
  if (replay_active_) return on_replay_commit(info);
  if (checking_enabled_ && segment_active_) return on_main_commit(info);
  return 0;
}

void CoreUnit::on_enter_kernel(arch::Core& core) {
  if (replay_active_) {
    // Preemption of a checking segment (FlexStep's headline capability): the
    // replay context lives in the core's architectural state, which the
    // kernel saves; the unit keeps counters/channel position for resumption.
    replay_active_ = false;
    replay_suspended_ = true;
    refresh_passive();
    core.set_mem_port(nullptr);
    core.set_trap_suppression(false);
    return;
  }
  if (checking_enabled_ && segment_active_) {
    // Premature segment extermination (Fig. 3 case 1): close at the resume PC.
    const Addr resume_pc = core.read_csr(isa::kCsrMepc);
    const Cycle stall = end_segment(resume_pc);
    core.add_cycles(stall);
  }
}

void CoreUnit::on_exit_kernel(arch::Core& core) {
  if (replay_suspended_) {
    // Kernel excursion on the checker returned straight to the replay thread.
    resume_replay();
    return;
  }
  if (checking_enabled_ && !segment_active_ && attr() == CoreAttr::kMain) {
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
      if (enable && !checking_enabled_) {
        checking_enabled_ = true;
        refresh_passive();
        // Selective checking (Sec. V: checking "performed on specific
        // portions of a job"): rs1 carries an instruction budget; the CPC
        // counts it down and switches checking off at zero. rs1 = x0 means
        // unbounded (full-job checking).
        checking_budget_ = inst.rs1 != 0 ? core.reg(inst.rs1) : 0;
        start_segment(core.pc());
      } else if (!enable && checking_enabled_) {
        if (segment_active_) {
          const Cycle stall = end_segment(core.pc());
          core.add_cycles(stall);
        }
        checking_enabled_ = false;
        checking_budget_ = 0;
        refresh_passive();
      }
      return 0;
    }

    case Opcode::kCCheckState:
      // The C.record snapshot stays in the ASS across busy/idle transitions;
      // the kernel extracts it per-job when interleaving checker jobs.
      checker_busy_ = inst.imm != 0;
      return 0;

    case Opcode::kCRecord:
      ass_thread_ctx_ = core.capture_state();
      have_thread_ctx_ = true;
      return 0;

    case Opcode::kCApply:
      // Kernel-driven variant of begin_replay()'s apply step.
      apply_scp();
      return 0;

    case Opcode::kCJal:
      enter_replay();
      return 0;

    case Opcode::kCResult:
      return segment_result_ok_ ? 1 : 0;

    default:
      FLEX_CHECK_MSG(false, "not a FlexStep custom instruction");
      return 0;
  }
}

}  // namespace flexstep::fs
