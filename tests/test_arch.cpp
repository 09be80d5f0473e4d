// Memory, cache, and branch-predictor unit tests.
#include <gtest/gtest.h>

#include "arch/branch_pred.h"
#include "arch/cache.h"
#include "arch/memory.h"

namespace flexstep::arch {
namespace {

TEST(Memory, ReadWriteWidths) {
  Memory m;
  m.write(0x1000, 8, 0x1122334455667788ULL);
  EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ULL);
  EXPECT_EQ(m.read(0x1000, 4), 0x55667788ULL);
  EXPECT_EQ(m.read(0x1000, 2), 0x7788ULL);
  EXPECT_EQ(m.read(0x1000, 1), 0x88ULL);
  EXPECT_EQ(m.read(0x1004, 4), 0x11223344ULL);
}

TEST(Memory, ZeroInitialised) {
  Memory m;
  EXPECT_EQ(m.read(0xDEAD000, 8), 0u);
}

TEST(Memory, PageStraddlingAccess) {
  Memory m;
  const Addr addr = Memory::kPageSize - 4;
  m.write(addr, 8, 0xAABBCCDDEEFF0011ULL);
  EXPECT_EQ(m.read(addr, 8), 0xAABBCCDDEEFF0011ULL);
}

TEST(Memory, BlockCopy) {
  Memory m;
  std::vector<u8> src(10000);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<u8>(i * 7);
  m.write_block(0x3F00, src.data(), src.size());  // crosses pages
  std::vector<u8> dst(src.size());
  m.read_block(0x3F00, dst.data(), dst.size());
  EXPECT_EQ(src, dst);
}

TEST(Memory, SparseAllocation) {
  Memory m;
  m.write(0x0, 8, 1);
  m.write(0x4000'0000, 8, 2);
  EXPECT_EQ(m.resident_pages(), 2u);
}

TEST(Cache, HitAfterFill) {
  Cache c({.size_bytes = 1024, .ways = 2, .line_bytes = 64, .latency = 2});
  EXPECT_FALSE(c.access(0x100));
  EXPECT_TRUE(c.access(0x100));
  EXPECT_TRUE(c.access(0x13F));  // same 64B line
  EXPECT_FALSE(c.access(0x140)); // next line
}

TEST(Cache, LruEviction) {
  // 2-way, 8 sets of 64B: addresses 0, 512, 1024 map to set 0.
  Cache c({.size_bytes = 1024, .ways = 2, .line_bytes = 64, .latency = 2});
  c.access(0);
  c.access(512);
  EXPECT_TRUE(c.access(0));     // refresh 0: LRU is 512
  c.access(1024);               // evicts 512
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(512));  // was evicted
}

TEST(Cache, WorkingSetLargerThanCacheMisses) {
  Cache c({.size_bytes = 16 * 1024, .ways = 4, .line_bytes = 64, .latency = 2});
  // Stream 64 KB twice: second pass still misses (capacity).
  for (int pass = 0; pass < 2; ++pass) {
    for (Addr a = 0; a < 64 * 1024; a += 64) c.access(a);
  }
  EXPECT_GT(c.miss_rate(), 0.9);
}

TEST(Cache, WorkingSetFittingHitsOnSecondPass) {
  Cache c({.size_bytes = 16 * 1024, .ways = 4, .line_bytes = 64, .latency = 2});
  for (Addr a = 0; a < 8 * 1024; a += 64) c.access(a);
  u64 misses_before = c.misses();
  for (Addr a = 0; a < 8 * 1024; a += 64) c.access(a);
  EXPECT_EQ(c.misses(), misses_before);
}

TEST(CacheHierarchy, MissPenalties) {
  CacheConfig l1{.size_bytes = 1024, .ways = 2, .line_bytes = 64, .latency = 2};
  Cache l2({.size_bytes = 8 * 1024, .ways = 4, .line_bytes = 64, .latency = 40});
  CacheHierarchy h(l1, l1, &l2, 100);
  // Cold: L1 miss + L2 miss -> 140 extra cycles.
  EXPECT_EQ(h.data(0x5000), 140u);
  // Warm L1: no extra cost.
  EXPECT_EQ(h.data(0x5000), 0u);
}

TEST(CacheHierarchy, L2HitCostsL2Latency) {
  CacheConfig l1{.size_bytes = 128, .ways = 1, .line_bytes = 64, .latency = 2};
  Cache l2({.size_bytes = 8 * 1024, .ways = 4, .line_bytes = 64, .latency = 40});
  CacheHierarchy h(l1, l1, &l2, 100);
  h.data(0x0);     // fills both
  h.data(0x80);    // evicts 0x0 from the 2-line L1 (set 0)
  h.data(0x100);   // set 0 again
  const Cycle cost = h.data(0x0);  // L1 miss, L2 hit
  EXPECT_EQ(cost, 40u);
}

TEST(BranchPredictor, LearnsBias) {
  BranchPredictor bp({});
  const Addr pc = 0x1000;
  for (int i = 0; i < 4; ++i) bp.update(pc, true);
  EXPECT_TRUE(bp.predict_taken(pc));
  for (int i = 0; i < 4; ++i) bp.update(pc, false);
  EXPECT_FALSE(bp.predict_taken(pc));
}

TEST(BranchPredictor, TwoBitHysteresis) {
  BranchPredictor bp({});
  const Addr pc = 0x2000;
  for (int i = 0; i < 4; ++i) bp.update(pc, true);
  bp.update(pc, false);  // one not-taken shouldn't flip a saturated counter
  EXPECT_TRUE(bp.predict_taken(pc));
}

TEST(BranchPredictor, BtbInsertLookup) {
  BranchPredictor bp({});
  EXPECT_FALSE(bp.btb_lookup(0x100).has_value());
  bp.btb_insert(0x100, 0x500);
  ASSERT_TRUE(bp.btb_lookup(0x100).has_value());
  EXPECT_EQ(*bp.btb_lookup(0x100), 0x500u);
  bp.btb_insert(0x100, 0x600);  // update in place
  EXPECT_EQ(*bp.btb_lookup(0x100), 0x600u);
}

TEST(BranchPredictor, BtbCapacityEviction) {
  BranchPredictorConfig config;
  BranchPredictor bp(config);
  for (u32 i = 0; i < config.btb_entries + 4; ++i) {
    bp.btb_insert(0x1000 + i * 4, 0x9000 + i * 4);
  }
  u32 present = 0;
  for (u32 i = 0; i < config.btb_entries + 4; ++i) {
    present += bp.btb_lookup(0x1000 + i * 4).has_value();
  }
  EXPECT_EQ(present, config.btb_entries);
}

TEST(BranchPredictor, RasLifoOrder) {
  BranchPredictor bp({});
  bp.ras_push(0xA);
  bp.ras_push(0xB);
  EXPECT_EQ(*bp.ras_pop(), 0xBu);
  EXPECT_EQ(*bp.ras_pop(), 0xAu);
  EXPECT_FALSE(bp.ras_pop().has_value());
}

TEST(BranchPredictor, RasOverflowWraps) {
  BranchPredictorConfig config;  // 6 entries
  BranchPredictor bp(config);
  for (u32 i = 0; i < 8; ++i) bp.ras_push(i);
  // Deepest two entries were overwritten; the newest six pop correctly.
  for (u32 i = 8; i-- > 2;) {
    auto v = bp.ras_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

}  // namespace
}  // namespace flexstep::arch
