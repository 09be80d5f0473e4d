// Whole-SoC microarchitectural vulnerability campaigns.
//
// The second campaign kind of fault/campaign.h's shard loop
// (detail::walk_shard): the baseline walk, sharding, seeding, victim
// materialisation and drivers are the DBC-stream campaign's (the paper's
// Sec. VI-C methodology); only the injection differs. It asks the CFA-class
// question: *where* in the SoC is a particle strike dangerous, and what does
// FlexStep do about it? Each injection picks one FaultSite (fault/sites.h)
// across the component classes, flips it in the victim session, and
// classifies the outcome at a fixed target: the main core's user-instruction
// count at the injection point plus horizon / 2. The detection window runs
// the victim's main core to the target (VerifiedExecution::advance_main_to)
// and stops at the first round end with a reporter event; a fault the window
// leaves open is compared with a clean run standing at the same target:
//
//   detected — a checker reported a mismatch within the window;
//   DUE      — the co-simulation wedged (a stall): the fault is
//              unrecoverable but not silent;
//   SDC      — no detection, and the victim's architectural state (main-core
//              registers + pc + memory) diverged from the golden run at the
//              target;
//   masked   — no detection and bit-identical architectural outcome.
//
// The main core's state at a user-instruction count depends neither on the
// engine nor on how the run was chunked into rounds
// (VerifiedRun.MainCoreStateAtAUserInstructionCountIsScheduleFree), and the
// targets never decrease along a baseline. So each baseline's golden session
// is forked once, at its first open injection, and only ever advances. It
// starts from the same state in BOTH campaign modes, which the parity gate
// (VulnCampaign.DeterministicAcrossModesAndThreads, and the perfbench
// fault_campaign oracle) holds to the same outcome stream.
//
// Classification invariant (enforced): masked + detected + sdc + due ==
// injected, per component and in total.
//
// Scope note: a fault that is still latent at the horizon (e.g. a flipped
// memory word the program never re-reads within the window) classifies as
// masked — outcomes are horizon-relative, as in trace-window CFA studies.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.h"
#include "fault/campaign.h"
#include "fault/sites.h"
#include "flexstep/error.h"
#include "soc/verified_run.h"
#include "workloads/profile.h"

namespace flexstep::fault {

/// A whole-SoC campaign: the shared campaign settings, with this kind's own
/// defaults, plus the whole-SoC ones.
struct VulnConfig : CampaignConfig {
  VulnConfig()
      : CampaignConfig{.target_faults = 700,
                       .warmup_rounds = 20'000,
                       .gap_rounds = 1'000,
                       .seed = 0xCFA} {}

  /// Post-injection observation window, in retired instructions summed
  /// across cores (>= 2). The detection window and the golden compare end
  /// once the main core has retired horizon / 2 user instructions past the
  /// injection: about its share of `horizon` in a dual run.
  u64 horizon = 30'000;
  /// Component classes to inject into, round-robin by global injection index
  /// (so even tiny campaigns cover every class). Empty = all seven.
  std::vector<Component> components;
  /// Attribute SDC/DUE outcomes to the first diverging retired instruction
  /// by lockstepping a flipped/clean fork pair (2× the per-injection cost).
  bool root_cause = false;
};

/// One classified injection.
struct InjectionRecord {
  FaultSite site;
  OutcomeKind outcome = OutcomeKind::kMasked;
  fs::DetectKind detect_kind{};  ///< Valid when outcome == kDetected.
  double latency_us = 0.0;       ///< Valid when outcome == kDetected.

  // Root-cause attribution (VulnConfig::root_cause, SDC/DUE only): the first
  // retired instruction at which the flipped fork's main-core state diverged
  // from the clean fork's.
  bool rc_valid = false;
  u64 rc_instret = 0;      ///< Main-core instret at first divergence.
  Addr rc_victim_pc = 0;   ///< Main-core pc of the flipped fork there.
  Addr rc_golden_pc = 0;   ///< Main-core pc of the clean fork there.
};

/// Full campaign result: the tally, its per-component breakdown and the flat
/// record stream (in deterministic shard-merge order).
struct VulnReport : OutcomeTally {
  std::array<OutcomeTally, kComponentCount> components{};
  std::vector<InjectionRecord> records;
  /// Instructions actually executed across every session (baselines, victims,
  /// golden runs, root-cause forks); restored snapshots contribute nothing.
  u64 total_instructions = 0;

  void add(const InjectionRecord& record);
  /// Fold another shard in (call in ascending shard order for determinism).
  void merge(VulnReport&& shard);
  /// FLEX_CHECKs masked + detected + sdc + due == injected, per component
  /// and in total.
  void check_invariant() const;

  /// Order-sensitive FNV-1a digest of the full record stream (site, outcome,
  /// detect kind, latency bits, root-cause fields). Two campaigns classified
  /// identically iff their digests match — the determinism gates compare
  /// this. Deliberately EXCLUDES total_instructions, which measures host work
  /// (a resumed campaign executes less while classifying identically).
  u64 digest() const;

  /// Wire format (shard checkpoint files): the record stream + the
  /// total_instructions counter; deserialize() rebuilds every per-component
  /// rollup from the records, so a decoded report satisfies
  /// check_invariant() by construction.
  void serialize(io::ArchiveWriter& ar) const;
  void deserialize(io::ArchiveReader& ar);

 private:
  template <class Ar>
  void transfer(Ar& ar);
};

/// Run a whole-SoC vulnerability campaign on `profile` under dual-core
/// verification (main core 0, checker core 1). The same driver and shard loop
/// as run_fault_campaign: outcomes depend only on (seed, shards, mode-
/// independent), never on thread count.
VulnReport run_vuln_campaign(const workloads::WorkloadProfile& profile,
                             const soc::SocConfig& soc_config,
                             const VulnConfig& config);

namespace detail {

/// validate_campaign under the vuln kind's name, plus its horizon.
void validate_vuln_campaign(const VulnConfig& config);

/// The component rotation run_vuln_campaign injects into: config.components,
/// or all seven classes when empty. Exposed so worker processes resolve the
/// identical rotation.
std::vector<Component> resolve_components(const VulnConfig& config);

/// One vulnerability-campaign shard, exactly as run_vuln_campaign executes
/// it. `global_start` is the shard's first global injection index (drives the
/// component rotation); `baselines` and `error` as for run_campaign_shard.
VulnReport run_vuln_shard(const workloads::WorkloadProfile& profile,
                          const soc::SocConfig& soc_config,
                          const VulnConfig& config,
                          const std::vector<Component>& comps, u32 shard_index,
                          u32 target_faults, u32 global_start,
                          BaselineStore* baselines = nullptr,
                          std::string* error = nullptr);

}  // namespace detail

}  // namespace flexstep::fault
