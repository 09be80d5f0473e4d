// Per-core FlexStep unit: RCPM (CPC instruction counter + privilege monitor,
// ASS snapshot storage), MAL memory-access logging, and the checker-side
// replay engine. One unit attaches to every core (homogeneous design, paper
// Sec. III) and implements the core's CoreHooks seam plus the replay MemPort.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "arch/core.h"
#include "arch/ports.h"
#include "common/types.h"
#include "flexstep/channel.h"
#include "flexstep/config.h"
#include "flexstep/error.h"
#include "flexstep/global_config.h"

namespace flexstep::fs {

/// Interconnect control surface used by the M.associate instruction; the
/// Fabric (system interconnect + global registers) implements it.
class InterconnectControl {
 public:
  virtual ~InterconnectControl() = default;
  virtual void associate(CoreId main_id, u64 checker_mask) = 0;
  virtual void dissociate(CoreId main_id) = 0;
};

/// Static per-pc bound on DBC stream-entry production, produced by
/// analysis::analyze() from the same pre-decoded image the core fetches from.
/// per_inst[(pc - base) / 4] is the worst-case entries any SINGLE instruction
/// can produce on any path starting at pc (forward-closure max); `global` is
/// the image-wide single-instruction worst case, used whenever the current pc
/// gives no per-pc answer (kernel mode about to return anywhere into the
/// image). Shared (immutable) between every unit of a session and its forks.
struct StaticDbcBound {
  Addr base = 0;
  Addr end = 0;
  std::vector<u8> per_inst;
  u8 global = 2;
};

class CoreUnit final : public arch::CoreHooks, public arch::CodeWriteListener {
 public:
  /// DBC headroom (in stream entries) required before a backpressure-blocked
  /// producer may resume: the largest single instruction logs two entries
  /// (LR/SC, AMO). The stepwise driver's wake condition
  /// (out_channels_have_space) and the quantum engine's end-of-quantum pop
  /// transition (pop_in) must use the same value or the two engines stop
  /// being schedule-identical.
  static constexpr u32 kProducerResumeHeadroom = 2;

  /// MAL FIFO read latency during replay: local SRAM, comparable to an L1 hit
  /// (Tab. II). Shared by the stepwise ReplayPort and the fused fast-path
  /// cursor — the two replay engines must charge the same per-access stall or
  /// they stop being cycle-identical.
  static constexpr Cycle kFifoReadStall = 2;

  CoreUnit(arch::Core& core, GlobalConfig& global, ErrorReporter& reporter,
           InterconnectControl* interconnect, const FlexStepConfig& config);
  ~CoreUnit() override;

  arch::Core& core() { return core_; }
  CoreAttr attr() const { return global_.attr_of(core_.id()); }
  const FlexStepConfig& config() const { return config_; }

  // ---- wiring (Fabric) ----
  void add_out_channel(Channel* channel) { out_channels_.push_back(channel); }
  void clear_out_channels() { out_channels_.clear(); }
  const std::vector<Channel*>& out_channels() const { return out_channels_; }
  void set_in_channel(Channel* channel) { in_channel_ = channel; }
  Channel* in_channel() const { return in_channel_; }

  // ---- main-core state ----
  bool checking_enabled() const { return s_.checking_enabled; }
  bool segment_active() const { return s_.segment_active; }
  /// Remaining selective-checking budget (0 = unbounded or exhausted).
  u64 checking_budget() const { return s_.checking_budget; }
  /// True when every out-channel currently has push space (SoC loop uses this
  /// to decide when a backpressure-blocked main core may resume).
  bool out_channels_have_space() const;
  /// Latest consumer pop time across out channels (resume timestamp).
  Cycle out_channel_space_available_at() const;

  /// Producer burst horizon for the relaxed co-simulation engine: how many
  /// instructions this core may commit before any DBC backpressure decision
  /// could turn negative — i.e. before the burst's behaviour could depend on
  /// consumer pops the relaxed schedule has deferred. Worst case every
  /// instruction logs two stream entries; one segment boundary (SegmentEnd +
  /// next SCP) inside the burst and the resume-headroom of the next memory
  /// pre-check are reserved up front. ~u64{0} when unbounded (not producing,
  /// or every out channel is in checker-starved DMA-spill mode).
  u64 producer_burst_headroom() const;

  /// Worst-case DBC stream entries one retired instruction of `op` produces.
  /// Public so the static analysis derives its costs from the same table —
  /// the static and dynamic answers can never drift apart.
  static u32 entries_for(isa::Opcode op);

  /// Install (or clear, with nullptr) a static production bound for burst
  /// sizing. `memory` is watched over the bound's code pages: any store into
  /// them permanently drops the bound back to the conservative global
  /// divisor (the analysed image may no longer describe what executes).
  void set_static_dbc_bound(arch::Memory& memory,
                            std::shared_ptr<const StaticDbcBound> bound);
  /// True while an installed bound is still trusted (test / bench hook).
  bool static_bound_active() const {
    return static_bound_ != nullptr && !static_bound_dropped_;
  }

  // CodeWriteListener: a store hit the analysed image's pages.
  void on_code_page_written(u64 page_id) override;

  // ---- checker-core state ----
  bool checker_busy() const { return s_.checker_busy; }
  bool replay_active() const { return s_.replay_active; }
  bool replay_suspended() const { return s_.replay_suspended; }
  /// A complete segment is ready for replay at `now`.
  bool segment_ready(Cycle now) const;
  Cycle next_segment_ready_at() const;

  /// Drive the checker per Alg. 2 semantics: save the thread context once
  /// (C.record), then apply the SCP and jump (C.apply + C.jal). Requires
  /// segment_ready(core cycle). The SoC driver and the kernel's checker
  /// thread both funnel through here (the kernel via the custom ISA).
  void begin_replay();
  /// Resume a replay that was suspended by kernel preemption; the kernel must
  /// have restored the checker task's architectural context first.
  void resume_replay();

  /// Scheduler contract for the NEXT quantum of this (checker) core: every
  /// channel pop the quantum performs lands strictly before the producer's
  /// next scheduling decision — either the quantum's cycle bound sits at or
  /// below the producer's clock (running or backpressure-blocked), or the
  /// producer has halted and makes no further push decisions. While the
  /// horizon is non-zero, fused replay staging may cross the producer-wake
  /// space threshold in bulk: a blocked producer resumes at its own clock
  /// regardless of which pop freed the space, so ending the quantum at the
  /// exact wake pop adds nothing. 0 (the default, and what every stepwise /
  /// strict-leapfrog quantum uses) keeps the conservative wake-exact clamp.
  void set_bulk_consume_horizon(Cycle horizon) { bulk_consume_horizon_ = horizon; }

  /// Per-job replay state, extracted/adopted across kernel context switches
  /// (EDF may interleave several checker jobs on one checker core; each job
  /// owns its replay progress, mirroring how the ASS snapshot travels with
  /// the checker thread).
  struct ReplayContext {
    bool active = false;  ///< A segment replay was in flight when suspended.
    u64 replayed = 0;
    u64 expected_ic = 0;
    arch::ArchState pending_scp{};
    bool verify_failed = false;
    bool abort = false;
    bool have_thread_ctx = false;
    arch::ArchState thread_ctx{};
  };

  /// Detach the suspended replay state for the outgoing checker job. The unit
  /// is left clean for the next job. Requires no replay actively executing.
  ReplayContext extract_replay_context();

  /// Re-install a previously extracted state. If `ctx.active`, the kernel
  /// must restore the job's architectural context and then call
  /// resume_replay().
  void adopt_replay_context(const ReplayContext& ctx);

  /// Invoked by the SoC driver / kernel when a replayed segment completes
  /// (successfully or not). `ok` is the C.result value.
  using SegmentDoneFn = std::function<void(CoreUnit&, bool ok)>;
  void set_on_segment_done(SegmentDoneFn fn) { on_segment_done_ = std::move(fn); }

  /// Complete unit state minus the channel wiring (out/in channel pointers are
  /// Fabric topology, captured as indices by fs::Fabric::Snapshot) and the
  /// on_segment_done callback (driver ownership, re-installed by the restoring
  /// driver).
  struct Snapshot {
    // Producer (main-core) side.
    bool checking_enabled = false;
    bool segment_active = false;
    u64 segment_ic = 0;          ///< CPC instruction counter.
    u64 checking_budget = 0;     ///< Selective checking: instructions left (0 = unbounded).
    Addr segment_start_pc = 0;
    // Checker side.
    bool checker_busy = false;
    bool replay_active = false;
    bool replay_suspended = false;
    bool have_thread_ctx = false;
    u64 expected_ic = 0;
    u64 replayed = 0;
    bool segment_result_ok = true;     ///< C.result of the last segment.
    bool segment_verify_failed = false;
    bool segment_abort = false;        ///< Structural failure: abandon at next commit.
    // Statistics.
    u64 segments_produced = 0;
    u64 segments_verified = 0;
    u64 segments_failed = 0;
    u64 checkpoints_captured = 0;
    u64 mem_entries_logged = 0;
    u64 replayed_total = 0;
    // Checker-side register latches, last so the scalars above stay at small
    // offsets in the unit (the wire order is transfer()'s, not this one).
    arch::ArchState ass_thread_ctx{};  ///< C.record context (ASS storage).
    arch::ArchState pending_scp{};     ///< Applied SCP (C.apply).

    template <class Ar>
    void transfer(Ar& ar);
  };

  void save(Snapshot& out) const;
  /// Restores the unit and re-establishes the core-side wiring the state
  /// implies: replay memory port + trap suppression while a replay is active,
  /// the default cache port otherwise, and the hooks passivity flag.
  void restore(const Snapshot& snapshot);

  /// Fetch fault while replaying (corrupted SCP PC): report + abandon. Called
  /// by the trap handler that owns the checker core.
  void on_replay_fetch_fault();

  // ---- statistics ----
  u64 segments_produced() const { return s_.segments_produced; }
  u64 segments_verified() const { return s_.segments_verified; }
  u64 segments_failed() const { return s_.segments_failed; }
  u64 checkpoints_captured() const { return s_.checkpoints_captured; }
  u64 mem_entries_logged() const { return s_.mem_entries_logged; }
  u64 replayed_instructions() const { return s_.replayed_total; }

  // ---- fault-site adapter (fault/sites.h) ----

  /// Checker-side replay state flip space: pending SCP (pc + x1..x31),
  /// ASS thread context (pc + x1..x31), expected IC, replayed counter —
  /// 2048 + 2048 + 64 + 64 bits. These are the unit's RCPM/ASS latches; a
  /// flip here models a particle strike inside the checker's own monitoring
  /// hardware rather than in the checked stream.
  static constexpr u64 kCheckerStateBits = 2048 + 2048 + 64 + 64;
  /// XOR one bit of the checker-side replay state. Self-inverse.
  void flip_checker_state_bit(u64 bit) {
    const auto flip_state = [](arch::ArchState& state, u64 b) {
      if (b < 64) {
        state.pc ^= u64{1} << b;
      } else {
        state.regs[1 + (b - 64) / 64] ^= u64{1} << (b % 64);
      }
    };
    if (bit < 2048) {
      flip_state(s_.pending_scp, bit);
    } else if (bit < 4096) {
      flip_state(s_.ass_thread_ctx, bit - 2048);
    } else if (bit < 4160) {
      s_.expected_ic ^= u64{1} << (bit - 4096);
    } else {
      s_.replayed ^= u64{1} << (bit - 4160);
    }
  }

  // ---- CoreHooks ----
  u64 commit_batch_limit() const override;
  void on_commit_batch(arch::Core& core, u64 count) override;
  arch::SegmentCursor* open_segment_cursor(arch::Core& core,
                                           u64 max_entries) override;
  bool memory_can_commit(arch::Core& core, const isa::Instruction& inst) override;
  Cycle on_commit(arch::Core& core, const arch::CommitInfo& info) override;
  void on_enter_kernel(arch::Core& core) override;
  void on_exit_kernel(arch::Core& core) override;
  u64 exec_custom(arch::Core& core, const isa::Instruction& inst) override;

 private:
  class ReplayPort;

  /// Recompute the CoreHooks passivity flag: no commit observation is needed
  /// while the unit is neither producing a checking segment nor replaying
  /// one. Called after every mutation of the three inputs; while passive,
  /// Core::run_until executes the common case without any hook dispatch.
  /// Passivity only flips inside slow-path events (custom ISA, traps, kernel
  /// transitions) or between quanta (begin_replay from the driver), so the
  /// engine's cached evaluation cannot go stale mid-fast-loop.
  void refresh_passive() {
    set_passive(!s_.replay_active && !(s_.checking_enabled && s_.segment_active));
  }

  // Main-core segment management (CPC working mechanism, Sec. III-A).
  void start_segment(Addr start_pc);
  Cycle end_segment(Addr resume_pc);
  Cycle log_memory(const arch::CommitInfo& info);

  // Checker-side replay management.
  /// Pop from the in-channel, ending the current execution quantum when the
  /// pop could wake another core: freeing DBC space a backpressured producer
  /// waits on, or consuming a SegmentEnd (occupancy spill-rule / drain
  /// transitions). Keeps the quantum engine's schedule bit-identical to the
  /// stepwise engine's.
  StreamItem pop_in(Cycle now);
  Cycle on_main_commit(const arch::CommitInfo& info);
  Cycle on_replay_commit(const arch::CommitInfo& info);
  void apply_scp();
  void enter_replay();
  void finish_segment(Addr checker_next_pc);
  void abandon_segment();
  void exit_replay_mode(bool ok);
  void report(DetectKind kind);

  arch::Core& core_;
  GlobalConfig& global_;
  ErrorReporter& reporter_;
  InterconnectControl* interconnect_;
  FlexStepConfig config_;

  // ---- channel wiring (Fabric topology) ----
  std::vector<Channel*> out_channels_;
  Channel* in_channel_ = nullptr;

  /// Producer, checker and statistics state: everything a snapshot saves.
  Snapshot s_;

  // ---- static burst-sizing bound (analysis client) ----
  std::shared_ptr<const StaticDbcBound> static_bound_;
  arch::Memory* static_bound_memory_ = nullptr;  ///< Watched while bound set.
  bool static_bound_dropped_ = false;  ///< Code page written: fall back.

  std::unique_ptr<ReplayPort> replay_port_;
  SegmentDoneFn on_segment_done_;

  // ---- fused fast-path cursor (bulk CoreHooks seam, arch/ports.h) ----
  /// Staging depth per quantum. Producer side this bounds how many MAL
  /// entries are appended before publishing; consumer side how many log
  /// entries are pre-staged for in-loop verification. Both are re-opened
  /// every batched span, so the value only caps batching, not correctness.
  static constexpr u32 kCursorSlots = 4096;
  /// Publish (producer) / retire (consumer) the staged cursor records.
  void publish_cursor();
  /// The staging buffer, grown to hold at least `records` (<= kCursorSlots).
  arch::MemRecord* cursor_staging(u64 records);
  static void cursor_mismatch_thunk(void* ctx, arch::ReplayMismatch kind, Cycle at);
  /// Staging buffer, grown on demand to the next power of two a span needs
  /// (at most kCursorSlots): a short-lived fork whose spans stage tens of
  /// records never allocates or zero-fills the full depth.
  std::vector<arch::MemRecord> cursor_slots_;
  arch::SegmentCursor cursor_{};
  /// Transient per-quantum driver hint (see set_bulk_consume_horizon); never
  /// snapshotted — a restored run starts conservative until its driver speaks.
  Cycle bulk_consume_horizon_ = 0;
};

}  // namespace flexstep::fs
