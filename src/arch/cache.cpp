#include "arch/cache.h"

#include <bit>

#include "common/archive.h"
#include "common/check.h"

namespace flexstep::arch {

template <class Ar>
void Cache::Snapshot::transfer(Ar& ar) {
  ar.vector(ways, 9, [&](Way& way) {  // >= 8 tag bytes + 1 lru byte per way
    ar.fixed(way.tag);
    ar.varint(way.lru);
  });
  ar.varint(tick);
  ar.varint(hits);
  ar.varint(misses);
}
template void Cache::Snapshot::transfer(io::ArchiveWriter&);
template void Cache::Snapshot::transfer(io::ArchiveReader&);

template <class Ar>
void CacheHierarchy::Snapshot::transfer(Ar& ar) {
  l1i.transfer(ar);
  l1d.transfer(ar);
}
template void CacheHierarchy::Snapshot::transfer(io::ArchiveWriter&);
template void CacheHierarchy::Snapshot::transfer(io::ArchiveReader&);

Cache::Cache(const CacheConfig& config, std::string name)
    : config_(config), name_(std::move(name)) {
  FLEX_CHECK(config.line_bytes > 0 && std::has_single_bit(config.line_bytes));
  FLEX_CHECK(config.ways > 0);
  FLEX_CHECK(config.size_bytes % (config.line_bytes * config.ways) == 0);
  num_sets_ = config.size_bytes / (config.line_bytes * config.ways);
  FLEX_CHECK(std::has_single_bit(num_sets_));
  line_shift_ = static_cast<u32>(std::countr_zero(config.line_bytes));
  set_shift_ = static_cast<u32>(std::countr_zero(num_sets_));
  s_.ways.resize(static_cast<std::size_t>(num_sets_) * config.ways);
}

void Cache::save(Snapshot& out) const { out = s_; }

void Cache::restore(const Snapshot& snapshot) {
  FLEX_CHECK_MSG(snapshot.ways.size() == s_.ways.size(),
                 "cache snapshot geometry mismatch");
  s_ = snapshot;
}

void Cache::fill_miss(Way* base, u64 tag) {
  ++s_.misses;
  // Victim: first invalid way, otherwise least-recently-used.
  Way* victim = nullptr;
  for (u32 w = 0; w < config_.ways; ++w) {
    Way& way = base[w];
    if (way.tag == kInvalidTag) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru < victim->lru) victim = &way;
  }
  victim->tag = tag;
  victim->lru = s_.tick;
}

double Cache::miss_rate() const {
  const u64 total = s_.hits + s_.misses;
  return total == 0 ? 0.0 : static_cast<double>(s_.misses) / static_cast<double>(total);
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1i, const CacheConfig& l1d,
                               Cache* shared_l2, Cycle memory_latency)
    : l1i_(l1i, "L1I"), l1d_(l1d, "L1D"), l2_(shared_l2), memory_latency_(memory_latency) {}

Cycle CacheHierarchy::beyond_l1(Addr addr) {
  if (l2_ == nullptr) return memory_latency_;
  if (l2_->access(addr)) return l2_->config().latency;
  return l2_->config().latency + memory_latency_;
}

}  // namespace flexstep::arch
