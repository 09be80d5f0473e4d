#include "flexstep/channel.h"

#include <algorithm>

#include "common/archive.h"
#include "common/check.h"

namespace flexstep::fs {

template <class Ar>
void Channel::Snapshot::transfer(Ar& ar) {
  ar.varint(main_id);
  ar.varint(checker_id);
  // A checkpoint item's payload is the next entry of `checkpoints`; decoding
  // appends it, so the two vectors stay consistent by construction.
  if constexpr (Ar::kReading) checkpoints.clear();
  std::size_t next_checkpoint = 0;
  // The smallest item on the wire is a MAL entry: kind, two varints, entry
  // kind and width, address and data.
  ar.vector(items, 1 + 1 + 1 + 1 + 1 + 16, [&](StreamItem& item) {
    ar.enumeration(item.kind, StreamItem::Kind::kSegmentEnd,
                   "stream item kind out of domain");
    ar.varint(item.seq);
    ar.varint(item.visible_at);
    if (item.kind == StreamItem::Kind::kMem) {
      ar.enumeration(item.mem.kind, MemEntryKind::kAmoStore, "MAL entry kind out of domain");
      ar.fixed(item.mem.bytes);
      ar.fixed(item.mem.addr);
      ar.fixed(item.mem.data);
      return;
    }
    if constexpr (Ar::kReading) {
      checkpoints.emplace_back();
    } else {
      FLEX_CHECK_MSG(next_checkpoint < checkpoints.size(),
                     "channel snapshot lacks a checkpoint payload");
    }
    Checkpoint& payload = checkpoints[next_checkpoint++];
    payload.state.transfer(ar);
    if (item.kind == StreamItem::Kind::kSegmentEnd) ar.varint(payload.inst_count);
  });
  ar.vector(segments, 3, [&](SegmentMeta& seg) {
    ar.varint(seg.inst_count);
    ar.varint(seg.ready_at);
    ar.varint(seg.end_seq);
  });
  ar.varint(next_seq);
  ar.varint(last_popped_seq);
  ar.varint(last_pop_cycle);
  ar.boolean(closed);
  ar.varint(max_occupancy);
  ar.varint(backpressure_events);
  bool has_fault = fault.has_value();
  ar.boolean(has_fault);
  if constexpr (Ar::kReading) {
    fault.reset();
    if (has_fault) fault.emplace();
  }
  if (has_fault) {
    ar.varint(fault->seq);
    ar.fixed(fault->segment_end_seq);  // kUnresolvedSegmentEnd = ~0
    ar.varint(fault->injected_at);
    ar.enumeration(fault->item_kind, StreamItem::Kind::kSegmentEnd,
                   "injected-fault kind out of domain");
    ar.fixed(fault->bit);
  }
}
template void Channel::Snapshot::transfer(io::ArchiveWriter&);
template void Channel::Snapshot::transfer(io::ArchiveReader&);

bool Channel::producer_can_push(u32 entries) const {
  if (items_.size() + entries <= config_.channel_capacity) return true;
  // DMA-spill rule: while the checker has no complete segment to chew on,
  // stalling the producer could never be relieved — spill instead.
  return segments_.empty();
}

u64 Channel::producer_headroom_entries() const {
  if (segments_.empty()) return ~u64{0};
  const u64 occupancy = items_.size();
  return occupancy < config_.channel_capacity ? config_.channel_capacity - occupancy
                                              : 0;
}

u64 Channel::push_checkpoint(StreamItem::Kind kind, const Checkpoint& payload,
                             Cycle now) {
  FLEX_CHECK_MSG(!closed_, "push on closed channel");
  const u64 seq = next_seq_++;
  items_.push_back({kind, seq, now + config_.channel_latency, {}});
  checkpoints_.push_back(payload);
  max_occupancy_ = std::max<u64>(max_occupancy_, items_.size());
  return seq;
}

void Channel::push_scp(const arch::ArchState& scp, Cycle now) {
  push_checkpoint(StreamItem::Kind::kScp, {scp, 0}, now);
}

void Channel::push_segment_end(const arch::ArchState& ecp, u64 inst_count, Cycle now) {
  const u64 seq = push_checkpoint(StreamItem::Kind::kSegmentEnd, {ecp, inst_count}, now);
  segments_.push_back({inst_count, now + config_.channel_latency, seq});
  // A fault injected into a then-open segment resolves against this boundary.
  if (fault_.has_value() && fault_->segment_end_seq == kUnresolvedSegmentEnd) {
    fault_->segment_end_seq = seq;
  }
}

std::size_t Channel::checkpoint_slot(std::size_t index) const {
  FLEX_CHECK(index < items_.size() && items_[index].kind != StreamItem::Kind::kMem);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < index; ++i) {
    slot += items_[i].kind != StreamItem::Kind::kMem ? 1 : 0;
  }
  return slot;
}

bool Channel::segment_ready(Cycle now) const {
  return !segments_.empty() && segments_.front().ready_at <= now;
}

Cycle Channel::next_segment_ready_at() const {
  return segments_.empty() ? kNever : segments_.front().ready_at;
}

u64 Channel::front_segment_ic() const {
  FLEX_CHECK(!segments_.empty());
  return segments_.front().inst_count;
}

StreamItem Channel::pop(Cycle now) {
  FLEX_CHECK_MSG(!items_.empty(), "pop on empty channel");
  const StreamItem item = items_.front();
  items_.pop_front();
  last_popped_seq_ = item.seq;
  last_pop_cycle_ = now;
  // The checker has moved past the SegmentEnd that closes a pending fault's
  // segment, which verified clean: the fault is masked. (An unresolved
  // segment_end_seq is ~0, which no seq exceeds.)
  if (fault_.has_value() && item.seq > fault_->segment_end_seq) fault_.reset();
  if (item.kind != StreamItem::Kind::kMem) checkpoints_.pop_front();
  if (item.kind == StreamItem::Kind::kSegmentEnd) {
    FLEX_CHECK(!segments_.empty());
    segments_.pop_front();
  }
  return item;
}

void Channel::consume_front(u64 count, Cycle now) {
  FLEX_CHECK_MSG(count <= items_.size(), "consume_front past queue end");
  for (u64 i = 0; i < count; ++i) {
    FLEX_CHECK(items_.front().kind == StreamItem::Kind::kMem);
    last_popped_seq_ = items_.front().seq;
    items_.pop_front();
  }
  if (count > 0) last_pop_cycle_ = now;
}

std::optional<InjectedFault> Channel::corrupt_item(std::size_t index, Rng& rng,
                                                   Cycle now) {
  StreamItem& item = items_[index];

  InjectedFault fault;
  fault.seq = item.seq;
  fault.injected_at = now;
  fault.item_kind = item.kind;

  switch (item.kind) {
    case StreamItem::Kind::kMem: {
      // Corrupt address (low 32 bits — stays in the plausible address range)
      // or data with equal probability.
      if (rng.next_bool(0.5)) {
        fault.bit = static_cast<u8>(rng.next_below(32));
        item.mem.addr ^= u64{1} << fault.bit;
      } else {
        const u32 width_bits = item.mem.bytes == 0 ? 64 : item.mem.bytes * 8;
        fault.bit = static_cast<u8>(rng.next_below(width_bits));
        item.mem.data ^= u64{1} << fault.bit;
      }
      break;
    }
    case StreamItem::Kind::kScp:
    case StreamItem::Kind::kSegmentEnd: {
      // Corrupt one architectural word: a register (x1..x31) or the PC.
      arch::ArchState& state = checkpoints_[checkpoint_slot(index)].state;
      const u64 which = rng.next_below(32);
      if (which == 0) {
        // PC corruption restricted to bits 2..17: a misaligned or wildly
        // out-of-range PC would be caught trivially by the fetch stage.
        fault.bit = static_cast<u8>(2 + rng.next_below(16));
        state.pc ^= u64{1} << fault.bit;
      } else {
        fault.bit = static_cast<u8>(rng.next_below(64));
        state.regs[which] ^= u64{1} << fault.bit;
      }
      break;
    }
  }

  // Locate the SegmentEnd that closes the segment containing this item, past
  // which pop() settles the fault as masked. When the segment is still open,
  // push_segment_end() fills it in later.
  fault.segment_end_seq = kUnresolvedSegmentEnd;
  for (std::size_t i = index; i < items_.size(); ++i) {
    if (items_[i].kind == StreamItem::Kind::kSegmentEnd) {
      fault.segment_end_seq = items_[i].seq;
      break;
    }
  }
  fault_ = fault;
  return fault;
}

u64 Channel::entry_bit_count(std::size_t index) const {
  FLEX_CHECK(index < items_.size());
  switch (items_[index].kind) {
    case StreamItem::Kind::kMem:
      return 128;  // addr | data
    case StreamItem::Kind::kScp:
      return 64 + 31 * 64;  // pc | x1..x31 (x0 is architecturally zero)
    case StreamItem::Kind::kSegmentEnd:
      return 64 + 31 * 64 + 64;  // pc | x1..x31 | inst_count
  }
  return 0;
}

void Channel::flip_entry_bit(std::size_t index, u64 bit) {
  FLEX_CHECK(index < items_.size());
  StreamItem& item = items_[index];
  FLEX_CHECK(bit < entry_bit_count(index));
  if (item.kind == StreamItem::Kind::kMem) {
    if (bit < 64) {
      item.mem.addr ^= u64{1} << bit;
    } else {
      item.mem.data ^= u64{1} << (bit - 64);
    }
    return;
  }
  Checkpoint& checkpoint = checkpoints_[checkpoint_slot(index)];
  if (bit >= 64 + 31 * 64) {  // kSegmentEnd only: the IC field
    checkpoint.inst_count ^= u64{1} << (bit - (64 + 31 * 64));
  } else if (bit < 64) {
    checkpoint.state.pc ^= u64{1} << bit;
  } else {
    checkpoint.state.regs[1 + (bit - 64) / 64] ^= u64{1} << (bit % 64);
  }
}

void Channel::flip_segment_meta_bit(std::size_t index, u64 bit) {
  FLEX_CHECK(index < segments_.size());
  FLEX_CHECK(bit < kSegmentMetaBits);
  SegmentMeta& meta = segments_[index];
  if (bit < 64) {
    meta.inst_count ^= u64{1} << bit;
  } else if (bit < 128) {
    meta.ready_at ^= u64{1} << (bit - 64);
  } else {
    meta.end_seq ^= u64{1} << (bit - 128);
  }
}

void Channel::save(Snapshot& out) const {
  out.main_id = main_id_;
  out.checker_id = checker_id_;
  out.items.clear();
  out.items.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) out.items.push_back(items_[i]);
  out.checkpoints.clear();
  out.checkpoints.reserve(checkpoints_.size());
  for (std::size_t i = 0; i < checkpoints_.size(); ++i) {
    out.checkpoints.push_back(checkpoints_[i]);
  }
  out.segments.clear();
  out.segments.reserve(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) out.segments.push_back(segments_[i]);
  out.next_seq = next_seq_;
  out.last_popped_seq = last_popped_seq_;
  out.last_pop_cycle = last_pop_cycle_;
  out.closed = closed_;
  out.max_occupancy = max_occupancy_;
  out.backpressure_events = backpressure_events_;
  out.fault = fault_;
}

void Channel::restore(const Snapshot& snapshot) {
  FLEX_CHECK_MSG(snapshot.main_id == main_id_ && snapshot.checker_id == checker_id_,
                 "channel snapshot endpoint mismatch");
  const auto checkpoint_items = std::count_if(
      snapshot.items.begin(), snapshot.items.end(),
      [](const StreamItem& item) { return item.kind != StreamItem::Kind::kMem; });
  FLEX_CHECK_MSG(static_cast<std::size_t>(checkpoint_items) == snapshot.checkpoints.size(),
                 "channel snapshot checkpoint payloads do not match its items");
  items_.clear();
  for (const StreamItem& item : snapshot.items) items_.push_back(item);
  checkpoints_.clear();
  for (const Checkpoint& checkpoint : snapshot.checkpoints) checkpoints_.push_back(checkpoint);
  segments_.clear();
  for (const SegmentMeta& meta : snapshot.segments) segments_.push_back(meta);
  next_seq_ = snapshot.next_seq;
  last_popped_seq_ = snapshot.last_popped_seq;
  last_pop_cycle_ = snapshot.last_pop_cycle;
  closed_ = snapshot.closed;
  max_occupancy_ = snapshot.max_occupancy;
  backpressure_events_ = snapshot.backpressure_events;
  fault_ = snapshot.fault;
}

std::optional<InjectedFault> Channel::inject_random_fault(Rng& rng, Cycle now) {
  if (items_.empty() || fault_.has_value()) return std::nullopt;
  const auto index = static_cast<std::size_t>(rng.next_below(items_.size()));
  return corrupt_item(index, rng, now);
}

std::optional<InjectedFault> Channel::inject_fault_at(std::size_t index, Rng& rng,
                                                      Cycle now) {
  if (index >= items_.size() || fault_.has_value()) return std::nullopt;
  // The corruption physically happens in the forwarding path, i.e. when the
  // producer pushed the item — not at the campaign's (later) wall time.
  const Cycle pushed_at = items_[index].visible_at - config_.channel_latency;
  return corrupt_item(index, rng, std::min(now, pushed_at));
}

}  // namespace flexstep::fs
