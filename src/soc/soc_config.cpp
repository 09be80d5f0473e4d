#include "soc/soc_config.h"

#include <cstdio>

#include "common/fnv.h"

namespace flexstep::soc {

SocConfig SocConfig::paper_default(u32 cores) {
  SocConfig config;
  config.num_cores = cores;
  return config;
}

u64 SocConfig::fingerprint() const {
  // FNV-1a over every field, one word each (never the raw structs: padding).
  Fnv1a h;
  const auto mix = [&h](u64 v) { h.word(v); };
  const auto cache = [&mix](const arch::CacheConfig& c) {
    mix(c.size_bytes);
    mix(c.ways);
    mix(c.line_bytes);
    mix(c.latency);
  };
  mix(num_cores);
  cache(core.l1i);
  cache(core.l1d);
  mix(core.bpred.bht_entries);
  mix(core.bpred.btb_entries);
  mix(core.bpred.ras_entries);
  mix(core.bpred.mispredict_penalty);
  mix(core.memory_latency);
  mix(core.load_use_penalty);
  mix(core.trace.enabled ? 1 : 0);
  cache(l2);
  mix(flexstep.segment_limit);
  mix(flexstep.channel_capacity);
  mix(flexstep.channel_latency);
  mix(flexstep.checkpoint_stall);
  mix(flexstep.max_replay_factor);
  return h.value();
}

std::string SocConfig::describe() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "Homogeneous Core\n"
      "  Core          In-order scalar Rocket-class, @%.1fGHz, %u cores\n"
      "  Pipeline      5-stage, 1 ALU, 1 DIV (33-cycle), 1 MUL (4-cycle)\n"
      "  Branch Pred.  %u-entry BHT, %u-entry BTB, %u-entry RAS\n"
      "Memory Hierarchy\n"
      "  L1 I-Cache    %u KB, %u-way, Blocking, %llu LatencyCycles\n"
      "  L1 D-Cache    %u KB, %u-way, Blocking, %llu LatencyCycles\n"
      "  L2 Cache      %u KB, %u-way, shared, %llu LatencyCycles\n"
      "FlexStep\n"
      "  Segment limit %u instructions; channel capacity %llu entries;\n"
      "  channel latency %llu cycles; checkpoint stall %llu cycles\n",
      kClockHz / 1e9, num_cores, core.bpred.bht_entries, core.bpred.btb_entries,
      core.bpred.ras_entries, core.l1i.size_bytes / 1024, core.l1i.ways,
      static_cast<unsigned long long>(core.l1i.latency), core.l1d.size_bytes / 1024,
      core.l1d.ways, static_cast<unsigned long long>(core.l1d.latency),
      l2.size_bytes / 1024, l2.ways, static_cast<unsigned long long>(l2.latency),
      flexstep.segment_limit, static_cast<unsigned long long>(flexstep.channel_capacity),
      static_cast<unsigned long long>(flexstep.channel_latency),
      static_cast<unsigned long long>(flexstep.checkpoint_stall));
  return buf;
}

}  // namespace flexstep::soc
