#include "fault/vuln.h"

#include <bit>
#include <optional>
#include <utility>

#include "arch/core.h"
#include "arch/memory.h"
#include "common/archive.h"
#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "flexstep/channel.h"
#include "sim/scenario.h"
#include "soc/snapshot.h"

namespace flexstep::fault {

// ---------------------------------------------------------------------------
// VulnReport
// ---------------------------------------------------------------------------

void VulnReport::add(const InjectionRecord& record) {
  records.push_back(record);
  OutcomeTally::add(record.outcome);
  components[static_cast<std::size_t>(record.site.component)].add(record.outcome);
}

void VulnReport::merge(VulnReport&& shard) {
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    components[c].merge(shard.components[c]);
  }
  records.insert(records.end(), shard.records.begin(), shard.records.end());
  OutcomeTally::merge(shard);
  total_instructions += shard.total_instructions;
  check_invariant();
}

void VulnReport::check_invariant() const {
  FLEX_CHECK_MSG(masked + detected + sdc + due == injected,
                 "vuln campaign classification invariant violated: "
                 "masked + detected + sdc + due != injected");
  u32 component_sum = 0;
  for (const OutcomeTally& comp : components) {
    FLEX_CHECK_MSG(comp.masked + comp.detected + comp.sdc + comp.due ==
                       comp.injected,
                   "vuln campaign per-component classification invariant "
                   "violated");
    component_sum += comp.injected;
  }
  FLEX_CHECK_MSG(component_sum == injected,
                 "vuln campaign component totals do not sum to injected");
}

Histogram VulnReport::latency_histogram(double lo_us, double hi_us,
                                        std::size_t bins) const {
  Histogram hist(lo_us, hi_us, bins);
  for (const InjectionRecord& record : records) {
    if (record.outcome == OutcomeKind::kDetected) hist.add(record.latency_us);
  }
  return hist;
}

u64 VulnReport::digest() const {
  Fnv1a h;
  for (const InjectionRecord& r : records) {
    h.word(static_cast<u64>(r.site.component));
    h.word(r.site.index);
    h.word(r.site.bit);
    h.word(r.site.cycle);
    h.word(static_cast<u64>(r.outcome));
    h.word(static_cast<u64>(r.detect_kind));
    h.word(std::bit_cast<u64>(r.latency_us));
    h.word(r.rc_valid ? 1 : 0);
    h.word(r.rc_instret);
    h.word(r.rc_victim_pc);
    h.word(r.rc_golden_pc);
  }
  return h.value();
}

template <class Ar>
void VulnReport::transfer(Ar& ar) {
  if constexpr (Ar::kReading) *this = VulnReport{};
  ar.vector(records, 16, [&](InjectionRecord& r) {
    ar.enumeration(r.site.component, static_cast<Component>(kComponentCount - 1),
                   "injection record component out of domain");
    ar.varint(r.site.index);
    ar.varint(r.site.bit);
    ar.varint(r.site.cycle);
    ar.enumeration(r.outcome, OutcomeKind::kDue, "injection record outcome out of domain");
    ar.enumeration(r.detect_kind, fs::DetectKind::kStructural,
                   "injection record detect kind out of domain");
    ar.f64(r.latency_us);
    ar.boolean(r.rc_valid);
    ar.varint(r.rc_instret);
    ar.fixed(r.rc_victim_pc);
    ar.fixed(r.rc_golden_pc);
  });
  ar.varint(total_instructions);
  // Rebuild the rollups through add(), once every component is in domain.
  if constexpr (Ar::kReading) {
    if (ar.ok()) {
      for (const InjectionRecord& r : std::exchange(records, {})) add(r);
    }
  }
}

void VulnReport::serialize(io::ArchiveWriter& ar) const {
  const_cast<VulnReport*>(this)->transfer(ar);
}

void VulnReport::deserialize(io::ArchiveReader& ar) { transfer(ar); }

// ---------------------------------------------------------------------------
// Injection and classification (the shard loop is campaign.cpp's walk_shard)
// ---------------------------------------------------------------------------

namespace {

/// Main core of every campaign session (walk_shard pins main 0 / checker 1).
constexpr CoreId kMainCore = 0;

constexpr const char* kVulnName = "vuln campaign";

/// Architectural compare of the victim against the golden session:
/// main-core pc + x1..x31, then the memory image. `excl_reg` / `excl_word`
/// exclude the flipped register slot / 8-byte word itself: a flip parked
/// where the program never consumed it within the horizon is a latent fault
/// (masked), and the residual flipped cell must not read as divergence.
bool architecturally_equal(sim::Session& victim, sim::Session& golden,
                           std::optional<u8> excl_reg, std::optional<Addr> excl_word) {
  const arch::Core& v = victim.soc().core(kMainCore);
  const arch::Core& g = golden.soc().core(kMainCore);
  if (v.pc() != g.pc()) return false;
  for (u8 r = 1; r < 32; ++r) {
    if (excl_reg == r) continue;
    if (v.reg(r) != g.reg(r)) return false;
  }
  return victim.soc().memory().same_contents(golden.soc().memory(), excl_word);
}

/// Inject one whole-SoC fault into the victim, which stands at the pre-fault
/// state `snap`, and classify it at the target: the main core's
/// user-instruction count at `snap` plus horizon / 2. Only a fault the
/// detection window leaves open is compared with a golden run: `golden()` is
/// the baseline's clean session, which earlier injections left at their own
/// (no later) targets. `executed` accumulates instructions actually simulated
/// (victim tail + golden run + optional root-cause forks).
InjectionRecord run_one_injection(sim::Session& victim, const soc::Snapshot& snap,
                                  const std::function<sim::Session&()>& golden,
                                  Component component, Rng& rng,
                                  const VulnConfig& config, u64& executed) {
  InjectionRecord rec;
  rec.site = random_site(victim.soc(), component, rng);

  // Compare exclusions for the residual flipped cell (latent faults classify
  // masked). Resolved NOW: the memory index->address mapping depends on the
  // resident-page set, which grows as the victim runs.
  std::optional<Addr> excl_word;
  if (component == Component::kMemory) {
    excl_word = victim.soc().memory().fault_word_addr(
        static_cast<std::size_t>(rec.site.index));
  }
  std::optional<u8> excl_reg;
  if (component == Component::kArchReg && rec.site.index / 32 == kMainCore &&
      rec.site.index % 32 != 0) {
    excl_reg = static_cast<u8>(rec.site.index % 32);
  }

  const auto& events = victim.reporter().events();
  const std::size_t events_before = events.size();
  const u64 victim_base = victim.total_instret();
  const u64 target = victim.soc().core(kMainCore).user_instret() + config.horizon / 2;
  flip(victim.soc(), rec.site);

  // Detection window: run the victim until its main core reaches the target,
  // stopping at the first round end with a reporter event.
  victim.advance_main_to(target, [&] { return events.size() > events_before; });
  if (events.size() > events_before) {
    // Any post-flip reporter event is this fault's detection (the victim was
    // rewound to the pre-fault state, which carries no pending event).
    // Latency runs from the strike to the checker's report, as in the
    // paper's Fig. 7.
    const fs::DetectionEvent& event = events[events_before];
    rec.outcome = OutcomeKind::kDetected;
    rec.detect_kind = event.kind;
    rec.latency_us =
        cycles_to_us(event.at >= rec.site.cycle ? event.at - rec.site.cycle : 0);
  } else if (victim.stalled()) {
    rec.outcome = OutcomeKind::kDue;  // wedged first (a tolerated stall)
  } else {
    // Open: compare with the clean run at the same main-core count. A victim
    // that finished before the target is compared as it ended (a fault that
    // legitimately shortened the run shows up as divergence).
    sim::Session& clean = golden();
    const u64 golden_base = clean.total_instret();
    clean.advance_main_to(target);
    executed += clean.total_instret() - golden_base;
    rec.outcome = architecturally_equal(victim, clean, excl_reg, excl_word)
                      ? OutcomeKind::kMasked
                      : OutcomeKind::kSdc;
  }
  executed += victim.total_instret() - victim_base;

  // Root-cause attribution (SDC/DUE only): lockstep a flipped/clean fork pair
  // from the pre-fault snapshot and find the first retired instruction at
  // which the main core's architectural state diverges.
  if (config.root_cause &&
      (rec.outcome == OutcomeKind::kSdc || rec.outcome == OutcomeKind::kDue)) {
    sim::Session flipped = victim.fork(snap);
    sim::Session clean = victim.fork(snap);
    const u64 rc_base = flipped.total_instret() + clean.total_instret();
    flip(flipped.soc(), rec.site);
    for (u64 step = 0; step < config.horizon; ++step) {
      const bool flipped_alive = flipped.advance(1);
      const bool clean_alive = clean.advance(1);
      arch::Core& mv = flipped.soc().core(kMainCore);
      arch::Core& mg = clean.soc().core(kMainCore);
      bool diverged = mv.pc() != mg.pc();
      for (u8 r = 1; r < 32 && !diverged; ++r) {
        if (excl_reg.has_value() && *excl_reg == r) continue;
        diverged = mv.reg(r) != mg.reg(r);
      }
      if (diverged) {
        rec.rc_valid = true;
        rec.rc_instret = mv.instret();
        rec.rc_victim_pc = mv.pc();
        rec.rc_golden_pc = mg.pc();
        break;
      }
      if ((!flipped_alive && !clean_alive) || flipped.stalled()) break;
    }
    executed += flipped.total_instret() + clean.total_instret() - rc_base;
  }
  return rec;
}

}  // namespace

namespace detail {

std::vector<Component> resolve_components(const VulnConfig& config) {
  std::vector<Component> comps = config.components;
  if (comps.empty()) {
    for (std::size_t c = 0; c < kComponentCount; ++c) {
      comps.push_back(static_cast<Component>(c));
    }
  }
  return comps;
}

VulnReport run_vuln_shard(const workloads::WorkloadProfile& profile,
                          const soc::SocConfig& soc_config,
                          const VulnConfig& config,
                          const std::vector<Component>& comps, u32 shard_index,
                          u32 target_faults, u32 global_start,
                          BaselineStore* baselines, std::string* error) {
  VulnReport report;
  // The target component rotates by GLOBAL injection index, so even a tiny
  // campaign covers every component class across its shards.
  const auto component = [&](u32 n) { return comps[(global_start + n) % comps.size()]; };
  ShardKind kind;
  kind.name = kVulnName;
  kind.wait_stride = 256;
  // Whole-SoC faults can wedge the machine (e.g. a corrupted main-core pc
  // halting without task exit): that is the DUE outcome, not a crash.
  kind.tolerate_stall = true;
  kind.salt = 1;
  // DBC components need live targets at the injection point; everything
  // else (registers, memory, caches, predictor, checker latches) is always
  // populated.
  kind.ready = [&](const fs::Channel& ch, u32 n) {
    return !ch.empty() &&
           (component(n) != Component::kDbcMeta || ch.complete_segments_queued() > 0);
  };
  kind.inject = [&](sim::Session& victim, const soc::Snapshot& pre_fault,
                    const std::function<sim::Session&()>& golden, Rng& rng, u32 n) {
    u64 executed = 0;
    report.add(run_one_injection(victim, pre_fault, golden, component(n), rng, config,
                                 executed));
    return executed;
  };
  report.total_instructions = walk_shard(profile, soc_config, config, shard_index,
                                         target_faults, baselines, kind, error);
  return report;
}

void validate_vuln_campaign(const VulnConfig& config) {
  // The main core runs horizon / 2 user instructions past each injection.
  FLEX_CHECK_MSG(config.horizon >= 2, "vuln campaign: horizon must be >= 2");
  validate_campaign(config, kVulnName);
}

}  // namespace detail

VulnReport run_vuln_campaign(const workloads::WorkloadProfile& profile,
                             const soc::SocConfig& soc_config,
                             const VulnConfig& config) {
  detail::validate_vuln_campaign(config);
  const std::vector<Component> comps = detail::resolve_components(config);
  VulnReport report = detail::run_shards<VulnReport>(
      config, kVulnName, [&](u32 shard, u32 quota, u32 first) {
        return detail::run_vuln_shard(profile, soc_config, config, comps, shard, quota,
                                      first);
      });
  report.check_invariant();
  return report;
}

}  // namespace flexstep::fault
