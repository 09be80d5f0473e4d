// Data Buffering and Channelling (DBC, paper Sec. III-C).
//
// A Channel is one configured link of the System Interconnect: an SPSC,
// segment-ordered stream from a main core's Data Buffer FIFO to a checker
// core. Capacity combines the 64-entry SRAM FIFO with main-memory DMA spill;
// pushes beyond `channel_capacity` assert backpressure (the main core stalls)
// — except while the checker is starved of complete segments, in which case
// the DMA spill absorbs the overflow (deadlock freedom by construction).
//
// Segments are forwarded store-and-forward: a checker begins replaying a
// segment only once its SegmentEnd is queued, so replay never starves
// mid-segment. This conservatively lengthens detection latency by one
// segment, which the paper's µs-scale latency distribution absorbs.
#pragma once

#include <optional>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/types.h"
#include "flexstep/config.h"
#include "flexstep/stream.h"

namespace flexstep::fs {

inline constexpr Cycle kNever = ~Cycle{0};

/// segment_end_seq value while the corrupted item's segment is still open
/// (resolved when the SegmentEnd is eventually pushed).
inline constexpr u64 kUnresolvedSegmentEnd = ~u64{0};

/// An injected fault pending detection (campaign bookkeeping).
struct InjectedFault {
  u64 seq = 0;           ///< Sequence number of the corrupted item.
  u64 segment_end_seq = kUnresolvedSegmentEnd;  ///< Seq of the closing SegmentEnd.
  Cycle injected_at = 0;
  StreamItem::Kind item_kind = StreamItem::Kind::kMem;
  u8 bit = 0;            ///< Which bit was flipped.
};

class Channel {
 public:
  struct SegmentMeta {
    u64 inst_count = 0;
    Cycle ready_at = 0;     ///< SegmentEnd visible_at.
    u64 end_seq = 0;
  };

  /// Complete channel state, including the routing endpoints so a Fabric can
  /// recreate the channel object itself from the snapshot.
  struct Snapshot {
    CoreId main_id = 0;
    CoreId checker_id = 0;
    std::vector<StreamItem> items;
    /// Payloads of the checkpoint items in `items`, in stream order.
    std::vector<Checkpoint> checkpoints;
    std::vector<SegmentMeta> segments;
    u64 next_seq = 0;
    u64 last_popped_seq = 0;
    Cycle last_pop_cycle = 0;
    bool closed = false;
    u64 max_occupancy = 0;
    u64 backpressure_events = 0;
    std::optional<InjectedFault> fault;
    std::size_t bytes() const {
      return items.size() * sizeof(StreamItem) + checkpoints.size() * sizeof(Checkpoint) +
             segments.size() * sizeof(SegmentMeta);
    }

    /// Wire format: endpoints, then each item with only the payload its
    /// kind carries (a MAL entry, or a checkpoint's registers plus the IC
    /// for a SegmentEnd), then the segment metadata, counters and fault.
    template <class Ar>
    void transfer(Ar& ar);
  };

  Channel(CoreId main_id, CoreId checker_id, const FlexStepConfig& config)
      : config_(config),
        main_id_(main_id),
        checker_id_(checker_id),
        // Ring sized to the backpressure threshold: occupancy beyond
        // channel_capacity (DMA spill while the checker starves) grows the
        // ring by doubling, preserving the overflow semantics.
        items_(static_cast<std::size_t>(config.channel_capacity) + 1) {}

  CoreId main_id() const { return main_id_; }
  CoreId checker_id() const { return checker_id_; }

  // ---- producer (main core) side ----

  /// Backpressure decision: can `entries` more items be pushed without
  /// stalling? Always true while the consumer has no complete segment queued
  /// (DMA spill rule; see header comment).
  bool producer_can_push(u32 entries) const;

  /// Space horizon: how many further entries are guaranteed pushable without
  /// any backpressure decision turning negative, assuming no consumer pop in
  /// between. ~u64{0} (unbounded) while no complete segment is queued — the
  /// DMA-spill rule makes a stall impossible then. The relaxed co-simulation
  /// engine sizes producer bursts from this up front instead of probing
  /// producer_can_push per instruction.
  u64 producer_headroom_entries() const;

  void push_scp(const arch::ArchState& scp, Cycle now);
  void push_segment_end(const arch::ArchState& ecp, u64 inst_count, Cycle now);

  /// Hot path: one call per logged memory access.
  void push_mem(const MemLogEntry& entry, Cycle now) {
    FLEX_CHECK_MSG(!closed_, "push on closed channel");
    items_.push_back(
        {StreamItem::Kind::kMem, next_seq_++, now + config_.channel_latency, entry});
    if (items_.size() > max_occupancy_) max_occupancy_ = items_.size();
  }

  /// Producer will push nothing more (verification job finished / dissociated).
  void close() { closed_ = true; }
  bool closed() const { return closed_; }

  // ---- consumer (checker core) side ----

  /// A complete segment (SCP..SegmentEnd) is queued and visible at `now`.
  bool segment_ready(Cycle now) const;
  /// Visibility time of the oldest complete queued segment (kNever if none).
  Cycle next_segment_ready_at() const;
  /// Instruction count of the oldest complete queued segment.
  u64 front_segment_ic() const;

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  bool drained() const { return closed_ && items_.empty(); }
  const StreamItem& front() const { return items_.front(); }
  /// Most recently forwarded queued item (what inject_fault_at_tail corrupts).
  const StreamItem& back() const { return items_.back(); }
  /// Queued item at `index` (0 = oldest still buffered).
  const StreamItem& item(std::size_t index) const { return items_[index]; }
  /// Register payload of the queued checkpoint item at `index` (kScp or
  /// kSegmentEnd). O(1) for the front item, O(index) otherwise.
  const Checkpoint& checkpoint(std::size_t index) const {
    return checkpoints_[checkpoint_slot(index)];
  }
  /// Dequeue the front item (and its checkpoint payload, which a caller that
  /// needs it reads through checkpoint(0) first).
  StreamItem pop(Cycle now);

  /// Bulk-retire `count` already-consumed kMem items from the front (fused
  /// replay path). Equivalent to `count` pop() calls whose intermediate
  /// last_pop_cycle values are unobservable: the caller guarantees no
  /// producer-wake space transition and no SegmentEnd sits inside the run,
  /// so only the final pop timestamp (`now`) is retained.
  void consume_front(u64 count, Cycle now);

  /// Cycle at which the consumer last freed space (producer resume time).
  Cycle last_pop_cycle() const { return last_pop_cycle_; }
  u64 last_popped_seq() const { return last_popped_seq_; }

  // ---- statistics ----
  u64 pushed() const { return next_seq_; }
  u64 complete_segments_queued() const { return static_cast<u64>(segments_.size()); }
  u64 max_occupancy() const { return max_occupancy_; }
  u64 backpressure_events() const { return backpressure_events_; }
  void count_backpressure_event() { ++backpressure_events_; }

  // ---- fault injection (Sec. VI-C) ----

  /// Flip one random payload bit of one random queued item. Fails (nullopt)
  /// if the queue is empty or a fault is already pending.
  std::optional<InjectedFault> inject_random_fault(Rng& rng, Cycle now);

  /// Corrupt the *most recently forwarded* item (the paper's fault model:
  /// the flip happens in the forwarding path as the main core produces the
  /// data, so detection latency spans the full buffering + replay pipeline).
  std::optional<InjectedFault> inject_fault_at_tail(Rng& rng, Cycle now);

  /// Corrupt the queued item at `index` (0 = oldest still buffered): targeted
  /// fault models — e.g. deterministic checkpoint corruption — beyond the
  /// campaign's tail placement. Fails if out of range or a fault is pending.
  std::optional<InjectedFault> inject_fault_at(std::size_t index, Rng& rng, Cycle now);

  bool fault_pending() const { return fault_.has_value(); }
  const InjectedFault& pending_fault() const { return *fault_; }
  void clear_fault() { fault_.reset(); }

  // ---- microarchitectural fault-site adapter (fault/sites.h) ----
  //
  // Unlike the Sec. VI-C injectors above, these flips perform no campaign
  // bookkeeping (no pending-fault attribution): the vulnerability framework
  // classifies outcomes against a golden fork, and a pending_fault() entry
  // would perturb the reporter's attribution path.

  /// Flippable payload bits of queued item `index` (kind-dependent: MAL
  /// entries expose addr+data, checkpoints expose pc + x1..x31 [+ IC]).
  u64 entry_bit_count(std::size_t index) const;
  /// XOR one payload bit of queued item `index`. Self-inverse.
  void flip_entry_bit(std::size_t index, u64 bit);

  /// Queued segment-metadata records (one per buffered SegmentEnd).
  u64 segment_meta_count() const { return segments_.size(); }
  /// SegmentMeta flip space: inst_count | ready_at | end_seq, 64 bits each.
  static constexpr u64 kSegmentMetaBits = 192;
  void flip_segment_meta_bit(std::size_t index, u64 bit);

  // ---- state capture ----
  void save(Snapshot& out) const;
  void restore(const Snapshot& snapshot);

 private:
  /// Queue a checkpoint item; returns its seq.
  u64 push_checkpoint(StreamItem::Kind kind, const Checkpoint& payload, Cycle now);
  /// checkpoints_ index of the checkpoint item at items_ index `index`.
  std::size_t checkpoint_slot(std::size_t index) const;
  std::optional<InjectedFault> corrupt_item(std::size_t index, Rng& rng, Cycle now);

  FlexStepConfig config_;
  CoreId main_id_;
  CoreId checker_id_;

  Ring<StreamItem> items_;
  Ring<Checkpoint> checkpoints_;  ///< One per queued checkpoint item, FIFO order.
  Ring<SegmentMeta> segments_;    ///< One per queued SegmentEnd, FIFO order.
  u64 next_seq_ = 0;
  u64 last_popped_seq_ = 0;
  Cycle last_pop_cycle_ = 0;
  bool closed_ = false;

  u64 max_occupancy_ = 0;
  u64 backpressure_events_ = 0;

  std::optional<InjectedFault> fault_;
};

}  // namespace flexstep::fs
