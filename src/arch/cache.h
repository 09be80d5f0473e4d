// Set-associative tag-array cache model (timing only — data lives in Memory).
//
// Matches the paper's Tab. II hierarchy: blocking L1 I/D caches (16 KB,
// 4-way, 2-cycle latency) and a shared 512 KB 8-way L2 with 40-cycle latency.
// The model tracks tags + LRU so hit/miss behaviour reflects the workload's
// true address stream; miss penalties feed the core's cycle accounting.
//
// The hit probe is inlined here (it sits on the per-instruction hot path of
// the batched execution engine); victim selection and the L2/memory descent
// stay out of line.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace flexstep::arch {

struct CacheConfig {
  u32 size_bytes = 16 * 1024;
  u32 ways = 4;
  u32 line_bytes = 64;
  Cycle latency = 2;  ///< Access latency on hit (paper "LatencyCycles").
};

class Cache {
 public:
  /// An invalid way carries this tag sentinel instead of a separate flag, so
  /// one set of 4 ways packs into a single 64 B host cache line. Real tags
  /// cannot collide with it: a tag is `addr >> (line_shift + set_shift)`, and
  /// an all-ones value would require addresses beyond any simulated mapping.
  static constexpr u64 kInvalidTag = ~u64{0};

  struct Way {
    u64 tag = kInvalidTag;
    u64 lru = 0;  ///< Higher = more recently used.
  };

  /// Full tag-array + LRU + statistics state (the data lives in Memory).
  struct Snapshot {
    std::vector<Way> ways;
    u64 tick = 0;
    u64 hits = 0;
    u64 misses = 0;
    std::size_t bytes() const { return ways.size() * sizeof(Way); }

    template <class Ar>
    void transfer(Ar& ar);
  };

  explicit Cache(const CacheConfig& config, std::string name = {});

  void save(Snapshot& out) const;
  /// Restore; the geometry (sets × ways) must match this cache's config.
  void restore(const Snapshot& snapshot);

  /// Probe (and fill on miss). Returns true on hit.
  bool access(Addr addr) {
    const u64 line = addr >> line_shift_;
    const u32 set = static_cast<u32>(line & (num_sets_ - 1));
    const u64 tag = line >> set_shift_;
    Way* base = &s_.ways[static_cast<std::size_t>(set) * config_.ways];
    ++s_.tick;
    // Branchless scan: the hit way's position is data-dependent, so an
    // early-exit loop mispredicts on nearly every probe. A fixed-trip scan
    // compiles to conditional moves, leaving only the (highly predictable)
    // hit/miss branch. At most one way can match (fill only happens on miss).
    u32 hit_way = config_.ways;
    for (u32 w = 0; w < config_.ways; ++w) {
      if (base[w].tag == tag) hit_way = w;
    }
    if (hit_way != config_.ways) [[likely]] {
      base[hit_way].lru = s_.tick;
      ++s_.hits;
      return true;
    }
    fill_miss(base, tag);
    return false;
  }

  // ---- fault-site adapter (fault/sites.h) ----

  /// Total tag-array ways (sets × associativity) enumerable as fault sites.
  std::size_t fault_way_count() const { return s_.ways.size(); }
  /// XOR one bit of a way's tag. Because an invalid way carries the all-ones
  /// kInvalidTag sentinel instead of a separate valid flag, the same 64-bit
  /// flip space covers both tag corruption (aliasing a way onto the wrong
  /// line) and valid-bit corruption (an invalid way turning into a bogus
  /// near-all-ones tag). Timing-only either way: data lives in Memory.
  void fault_flip_tag(std::size_t way_index, u64 bit) {
    s_.ways[way_index].tag ^= u64{1} << bit;
  }

  const CacheConfig& config() const { return config_; }
  u64 hits() const { return s_.hits; }
  u64 misses() const { return s_.misses; }
  double miss_rate() const;
  const std::string& name() const { return name_; }

 private:
  void fill_miss(Way* base, u64 tag);

  CacheConfig config_;
  std::string name_;
  u32 num_sets_;
  u32 line_shift_;
  u32 set_shift_;
  Snapshot s_;  ///< The whole state; ways are num_sets_ × config_.ways, row-major.
};

/// Per-core view of the memory hierarchy: private L1I/L1D over a shared L2.
/// Returns *extra* stall cycles beyond the pipelined L1-hit path.
class CacheHierarchy {
 public:
  CacheHierarchy(const CacheConfig& l1i, const CacheConfig& l1d, Cache* shared_l2,
                 Cycle memory_latency);

  /// Private-cache state (the shared L2 is snapshotted by its owner, the SoC).
  struct Snapshot {
    Cache::Snapshot l1i;
    Cache::Snapshot l1d;
    std::size_t bytes() const { return l1i.bytes() + l1d.bytes(); }

    template <class Ar>
    void transfer(Ar& ar);
  };

  void save(Snapshot& out) const {
    l1i_.save(out.l1i);
    l1d_.save(out.l1d);
  }
  void restore(const Snapshot& snapshot) {
    l1i_.restore(snapshot.l1i);
    l1d_.restore(snapshot.l1d);
  }

  /// Instruction fetch probe for the line containing `pc`.
  Cycle fetch(Addr pc) {
    if (l1i_.access(pc)) return 0;  // hit latency hidden by the pipelined front end
    return beyond_l1(pc);
  }

  /// Data access probe.
  Cycle data(Addr addr) {
    if (l1d_.access(addr)) return 0;  // hit path pipelined
    return beyond_l1(addr);
  }

  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }

  /// Upper bound on the extra stall any single probe can charge (L1 miss
  /// descending through the L2 to memory). Trace worst-case cost bounds.
  Cycle worst_miss_cost() const {
    return (l2_ != nullptr ? l2_->config().latency : Cycle{0}) + memory_latency_;
  }

 private:
  Cycle beyond_l1(Addr addr);

  Cache l1i_;
  Cache l1d_;
  Cache* l2_;  ///< Shared, owned by the SoC; may be null (then miss goes to memory).
  Cycle memory_latency_;
};

}  // namespace flexstep::arch
