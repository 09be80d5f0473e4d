#include "fault/sites.h"

#include "arch/cache.h"
#include "arch/core.h"
#include "common/check.h"
#include "flexstep/channel.h"
#include "flexstep/core_unit.h"
#include "flexstep/fabric.h"
#include "soc/snapshot.h"
#include "soc/soc.h"

namespace flexstep::fault {

namespace {

/// Registers-per-core slots in the kArchReg space: slot 0 = pc, 1..31 = x1..x31
/// (x0 is hardwired zero — a strike there is architecturally invisible).
constexpr u64 kRegSlots = 32;

/// Locate element `index` of a flat per-core cache-tag space laid out as
/// [core0 l1i | core0 l1d | core1 l1i | ... ] with the shared L2 last.
arch::Cache& locate_cache_way(soc::Soc& soc, u64 index, std::size_t& local) {
  for (CoreId c = 0; c < soc.num_cores(); ++c) {
    arch::CacheHierarchy& caches = soc.core(c).caches();
    if (index < caches.l1i().fault_way_count()) {
      local = static_cast<std::size_t>(index);
      return caches.l1i();
    }
    index -= caches.l1i().fault_way_count();
    if (index < caches.l1d().fault_way_count()) {
      local = static_cast<std::size_t>(index);
      return caches.l1d();
    }
    index -= caches.l1d().fault_way_count();
  }
  FLEX_CHECK_MSG(index < soc.l2().fault_way_count(),
                 "cache-tag fault index out of range");
  local = static_cast<std::size_t>(index);
  return soc.l2();
}

arch::BranchPredictor& locate_bpred_site(soc::Soc& soc, u64 index,
                                         std::size_t& local) {
  for (CoreId c = 0; c < soc.num_cores(); ++c) {
    arch::BranchPredictor& bpred = soc.core(c).bpred();
    if (index < bpred.fault_site_count()) {
      local = static_cast<std::size_t>(index);
      return bpred;
    }
    index -= bpred.fault_site_count();
  }
  FLEX_CHECK_MSG(false, "branch-predictor fault index out of range");
  return soc.core(0).bpred();  // unreachable
}

fs::Channel& locate_channel_entry(soc::Soc& soc, u64 index, std::size_t& local) {
  for (fs::Channel* ch : soc.fabric().channels()) {
    if (index < ch->size()) {
      local = static_cast<std::size_t>(index);
      return *ch;
    }
    index -= ch->size();
  }
  FLEX_CHECK_MSG(false, "dbc-entry fault index out of range");
  return *soc.fabric().channels().front();  // unreachable
}

fs::Channel& locate_channel_meta(soc::Soc& soc, u64 index, std::size_t& local) {
  for (fs::Channel* ch : soc.fabric().channels()) {
    if (index < ch->segment_meta_count()) {
      local = static_cast<std::size_t>(index);
      return *ch;
    }
    index -= ch->segment_meta_count();
  }
  FLEX_CHECK_MSG(false, "dbc-meta fault index out of range");
  return *soc.fabric().channels().front();  // unreachable
}

}  // namespace

u64 site_index_count(soc::Soc& soc, Component component) {
  switch (component) {
    case Component::kArchReg:
      return u64{soc.num_cores()} * kRegSlots;
    case Component::kMemory:
      return soc.memory().fault_word_count();
    case Component::kCacheTag: {
      u64 count = soc.l2().fault_way_count();
      for (CoreId c = 0; c < soc.num_cores(); ++c) {
        arch::CacheHierarchy& caches = soc.core(c).caches();
        count += caches.l1i().fault_way_count() + caches.l1d().fault_way_count();
      }
      return count;
    }
    case Component::kBranchPred: {
      u64 count = 0;
      for (CoreId c = 0; c < soc.num_cores(); ++c) {
        count += soc.core(c).bpred().fault_site_count();
      }
      return count;
    }
    case Component::kDbcEntry: {
      u64 count = 0;
      for (const fs::Channel* ch : soc.fabric().channels()) count += ch->size();
      return count;
    }
    case Component::kDbcMeta: {
      u64 count = 0;
      for (const fs::Channel* ch : soc.fabric().channels()) {
        count += ch->segment_meta_count();
      }
      return count;
    }
    case Component::kCheckerState:
      return soc.num_cores();
  }
  return 0;
}

u64 site_bit_count(soc::Soc& soc, const FaultSite& site) {
  switch (site.component) {
    case Component::kArchReg:
    case Component::kMemory:
    case Component::kCacheTag:
      return 64;
    case Component::kBranchPred: {
      std::size_t local = 0;
      return locate_bpred_site(soc, site.index, local).fault_site_bits(local);
    }
    case Component::kDbcEntry: {
      std::size_t local = 0;
      return locate_channel_entry(soc, site.index, local).entry_bit_count(local);
    }
    case Component::kDbcMeta:
      return fs::Channel::kSegmentMetaBits;
    case Component::kCheckerState:
      return fs::CoreUnit::kCheckerStateBits;
  }
  return 0;
}

void flip(soc::Soc& soc, const FaultSite& site) {
  FLEX_CHECK_MSG(site.index < site_index_count(soc, site.component),
                 "fault site index out of range");
  FLEX_CHECK_MSG(site.bit < site_bit_count(soc, site),
                 "fault site bit out of range");
  switch (site.component) {
    case Component::kArchReg: {
      arch::Core& core = soc.core(static_cast<CoreId>(site.index / kRegSlots));
      const u64 slot = site.index % kRegSlots;
      const u64 mask = u64{1} << site.bit;
      if (slot == 0) {
        core.set_pc(core.pc() ^ mask);
      } else {
        core.set_reg(static_cast<u8>(slot), core.reg(static_cast<u8>(slot)) ^ mask);
      }
      return;
    }
    case Component::kMemory:
      soc.memory().fault_flip_word(static_cast<std::size_t>(site.index), site.bit);
      return;
    case Component::kCacheTag: {
      std::size_t local = 0;
      locate_cache_way(soc, site.index, local).fault_flip_tag(local, site.bit);
      return;
    }
    case Component::kBranchPred: {
      std::size_t local = 0;
      locate_bpred_site(soc, site.index, local).fault_flip(local, site.bit);
      return;
    }
    case Component::kDbcEntry: {
      std::size_t local = 0;
      locate_channel_entry(soc, site.index, local).flip_entry_bit(local, site.bit);
      return;
    }
    case Component::kDbcMeta: {
      std::size_t local = 0;
      locate_channel_meta(soc, site.index, local).flip_segment_meta_bit(local,
                                                                        site.bit);
      return;
    }
    case Component::kCheckerState:
      soc.unit(static_cast<CoreId>(site.index)).flip_checker_state_bit(site.bit);
      return;
  }
}

FaultSite random_site(soc::Soc& soc, Component component, Rng& rng) {
  FaultSite site;
  site.component = component;
  const u64 count = site_index_count(soc, component);
  FLEX_CHECK_MSG(count > 0, "component has no enumerable fault sites");
  site.index = rng.next_below(count);
  site.bit = rng.next_below(site_bit_count(soc, site));
  site.cycle = soc.max_cycle();
  return site;
}

std::string describe(const FaultSite& site) {
  std::string out = component_name(site.component);
  out += " i" + std::to_string(site.index);
  out += " b" + std::to_string(site.bit);
  out += " @" + std::to_string(site.cycle);
  return out;
}

}  // namespace flexstep::fault
