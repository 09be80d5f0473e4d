// DBC channel unit tests: stream ordering, segment readiness, backpressure
// and the DMA-spill rule, fault injection bookkeeping.
#include <gtest/gtest.h>

#include "flexstep/channel.h"
#include "flexstep/error.h"

namespace flexstep::fs {
namespace {

FlexStepConfig small_config() {
  FlexStepConfig c;
  c.channel_capacity = 8;
  c.channel_latency = 4;
  return c;
}

arch::ArchState state_with(u64 marker) {
  arch::ArchState s;
  s.pc = 0x1000;
  s.regs[1] = marker;
  return s;
}

TEST(Channel, FifoOrderPreserved) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 10);
  MemLogEntry e;
  e.kind = MemEntryKind::kLoadData;
  e.addr = 0x100;
  e.data = 42;
  ch.push_mem(e, 11);
  ch.push_segment_end(state_with(2), 1, 12);

  EXPECT_EQ(ch.pop(20).kind, StreamItem::Kind::kScp);
  EXPECT_EQ(ch.pop(21).kind, StreamItem::Kind::kMem);
  EXPECT_EQ(ch.pop(22).kind, StreamItem::Kind::kSegmentEnd);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, SegmentReadyOnlyAfterSegmentEndVisible) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 100);
  EXPECT_FALSE(ch.segment_ready(1000));  // no SegmentEnd yet
  ch.push_segment_end(state_with(2), 0, 200);
  EXPECT_FALSE(ch.segment_ready(203));   // latency 4: visible at 204
  EXPECT_TRUE(ch.segment_ready(204));
  EXPECT_EQ(ch.next_segment_ready_at(), 204u);
}

TEST(Channel, FrontSegmentIcTracksOldestSegment) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);
  ch.push_segment_end(state_with(2), 7, 1);
  ch.push_scp(state_with(3), 2);
  ch.push_segment_end(state_with(4), 13, 3);
  EXPECT_EQ(ch.front_segment_ic(), 7u);
  ch.pop(10);  // SCP
  ch.pop(10);  // SegmentEnd of first segment
  EXPECT_EQ(ch.front_segment_ic(), 13u);
}

TEST(Channel, BackpressureBeyondCapacityWithReadySegment) {
  Channel ch(0, 1, small_config());  // capacity 8
  ch.push_scp(state_with(1), 0);
  ch.push_segment_end(state_with(2), 0, 1);  // complete segment queued
  MemLogEntry e;
  for (int i = 0; i < 6; ++i) ch.push_mem(e, 2);
  EXPECT_EQ(ch.size(), 8u);
  EXPECT_TRUE(ch.producer_can_push(0));   // exactly at capacity
  EXPECT_FALSE(ch.producer_can_push(2));  // over capacity, consumer has work
}

TEST(Channel, DmaSpillWhenConsumerStarved) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  // No complete segment queued: pushes must never stall (deadlock freedom).
  ch.push_scp(state_with(1), 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(ch.producer_can_push(2));
    ch.push_mem(e, 1);
  }
  EXPECT_GT(ch.size(), small_config().channel_capacity);
}

TEST(Channel, ProducerHeadroomTracksSpaceHorizon) {
  Channel ch(0, 1, small_config());  // capacity 8
  MemLogEntry e;
  // Consumer starved (no complete segment): the spill rule makes a stall
  // impossible, so the horizon is unbounded — even past capacity.
  ch.push_scp(state_with(1), 0);
  EXPECT_EQ(ch.producer_headroom_entries(), ~u64{0});
  for (int i = 0; i < 10; ++i) ch.push_mem(e, 1);
  EXPECT_EQ(ch.producer_headroom_entries(), ~u64{0});

  // A complete segment arms backpressure: the horizon is the remaining space.
  ch.push_segment_end(state_with(2), 10, 2);  // occupancy 12 > capacity 8
  EXPECT_EQ(ch.producer_headroom_entries(), 0u);
  while (ch.size() > 5) ch.pop(10);
  EXPECT_EQ(ch.producer_headroom_entries(), 3u);

  // The horizon is exactly the guaranteed-no-stall push count.
  EXPECT_TRUE(ch.producer_can_push(3));
  EXPECT_FALSE(ch.producer_can_push(4));
}

TEST(Channel, DrainedRequiresCloseAndEmpty) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);
  EXPECT_FALSE(ch.drained());
  ch.close();
  EXPECT_FALSE(ch.drained());
  ch.pop(5);
  EXPECT_TRUE(ch.drained());
}

TEST(Channel, PopTracksConsumerTimestamp) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);
  ch.pop(777);
  EXPECT_EQ(ch.last_pop_cycle(), 777u);
}

TEST(ChannelFault, InjectFlipsExactlyOneBit) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  e.kind = MemEntryKind::kStoreAddrData;
  e.addr = 0x1000;
  e.data = 0xABCD;
  e.bytes = 8;
  ch.push_mem(e, 0);

  Rng rng(1);
  const auto fault = ch.inject_random_fault(rng, 50);
  ASSERT_TRUE(fault.has_value());
  EXPECT_TRUE(ch.fault_pending());
  const StreamItem& item = ch.front();
  const bool addr_changed = item.mem.addr != e.addr;
  const bool data_changed = item.mem.data != e.data;
  EXPECT_TRUE(addr_changed ^ data_changed);
  if (addr_changed) {
    EXPECT_EQ(__builtin_popcountll(item.mem.addr ^ e.addr), 1);
  } else {
    EXPECT_EQ(__builtin_popcountll(item.mem.data ^ e.data), 1);
  }
}

TEST(ChannelFault, OnlyOnePendingFault) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  ch.push_mem(e, 0);
  Rng rng(2);
  EXPECT_TRUE(ch.inject_random_fault(rng, 1).has_value());
  EXPECT_FALSE(ch.inject_random_fault(rng, 2).has_value());
  ch.clear_fault();
  EXPECT_TRUE(ch.inject_random_fault(rng, 3).has_value());
}

TEST(ChannelFault, InjectOnEmptyQueueFails) {
  Channel ch(0, 1, small_config());
  Rng rng(3);
  EXPECT_FALSE(ch.inject_random_fault(rng, 1).has_value());
  EXPECT_FALSE(ch.inject_fault_at_tail(rng, 1).has_value());
}

/// One segment (SCP seq 0, load seq 1, SegmentEnd seq 2) and the next one's
/// SCP (seq 3); with `closed` false the SegmentEnd is not yet pushed.
void push_segment(Channel& ch, bool closed) {
  ch.push_scp(state_with(1), 0);
  MemLogEntry load;
  load.kind = MemEntryKind::kLoadData;
  load.bytes = 8;
  ch.push_mem(load, 1);
  if (!closed) return;
  ch.push_segment_end(state_with(2), 1, 2);
  ch.push_scp(state_with(2), 3);
}

/// Pops the first segment through its SegmentEnd with the fault still
/// pending, then the next segment's SCP, which settles it as masked.
void expect_settles_after_segment_end(Channel& ch) {
  using Kind = StreamItem::Kind;
  for (const Kind kind : {Kind::kScp, Kind::kMem, Kind::kSegmentEnd}) {
    EXPECT_EQ(ch.pop(20).kind, kind);
    EXPECT_TRUE(ch.fault_pending());
  }
  EXPECT_EQ(ch.pop(23).kind, Kind::kScp);
  EXPECT_FALSE(ch.fault_pending());
}

TEST(ChannelFault, OpenSegmentFaultSettlesAtThePopAfterItsSegmentEnd) {
  Channel ch(0, 1, small_config());
  push_segment(ch, /*closed=*/false);
  Rng rng(5);
  ASSERT_TRUE(ch.inject_fault_at_tail(rng, 10).has_value());  // the load
  EXPECT_EQ(ch.pending_fault().segment_end_seq, kUnresolvedSegmentEnd);
  ch.push_segment_end(state_with(2), 1, 2);
  ch.push_scp(state_with(2), 3);
  EXPECT_EQ(ch.pending_fault().segment_end_seq, 2u);
  expect_settles_after_segment_end(ch);
}

TEST(ChannelFault, ClosedSegmentFaultSettlesAtThePopAfterItsSegmentEnd) {
  Channel ch(0, 1, small_config());
  push_segment(ch, /*closed=*/true);
  Rng rng(6);
  ASSERT_TRUE(ch.inject_fault_at(1, rng, 10).has_value());  // the load
  EXPECT_EQ(ch.pending_fault().segment_end_seq, 2u);
  expect_settles_after_segment_end(ch);
}

TEST(ChannelFault, AttributedDetectionSettlesTheFaultFirst) {
  Channel ch(0, 1, small_config());
  push_segment(ch, /*closed=*/true);
  Rng rng(7);
  ASSERT_TRUE(ch.inject_fault_at(1, rng, 10).has_value());
  ErrorReporter reporter;
  ch.pop(20);
  ch.pop(21);
  reporter.on_detect(ch, DetectKind::kLoadAddr, 1, 21);
  EXPECT_FALSE(ch.fault_pending());
  EXPECT_EQ(reporter.attributed_detections(), 1u);
  // The pops past the segment find nothing left to settle.
  ch.pop(22);
  ch.pop(23);
  EXPECT_FALSE(ch.fault_pending());
  EXPECT_EQ(reporter.events().front().latency, 21u - 1u);
}

TEST(ChannelFault, SegmentEndSeqLocatesClosingBoundary) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);          // seq 0
  MemLogEntry e;
  ch.push_mem(e, 1);                      // seq 1
  ch.push_segment_end(state_with(2), 1, 2);  // seq 2
  Rng rng(4);
  const auto fault = ch.inject_random_fault(rng, 10);
  ASSERT_TRUE(fault.has_value());
  EXPECT_LE(fault->seq, 2u);
  EXPECT_EQ(fault->segment_end_seq, 2u);
}

TEST(ChannelFault, ScpPcCorruptionStaysAligned) {
  Channel ch(0, 1, small_config());
  for (int trial = 0; trial < 64; ++trial) {
    ch.push_scp(state_with(1), 0);
    Rng rng(trial);
    const auto fault = ch.inject_random_fault(rng, 1);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(ch.checkpoint(0).state.pc % 4, 0u);  // PC flips restricted to bits 2..17
    ch.pop(2);
    ch.clear_fault();
  }
}

TEST(Channel, OccupancyHighWaterMark) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  for (int i = 0; i < 5; ++i) ch.push_mem(e, 0);
  ch.pop(1);
  ch.pop(1);
  EXPECT_EQ(ch.max_occupancy(), 5u);
  EXPECT_EQ(ch.size(), 3u);
}

}  // namespace
}  // namespace flexstep::fs
