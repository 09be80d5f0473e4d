// Fault-injection campaigns (paper Sec. VI-C).
//
// Two campaign kinds share one experiment: a clean baseline session per shard
// walks a warmup and then gaps between injection points, and every injection
// runs in a victim session materialised at the baseline's state. Victims are
// rewound, not rebuilt: one victim serves all of a baseline's injections and
// is restored in place to each injection point. A victim runs in full-length
// rounds and stops at the first round end where its outcome is settled
// (sim::Session::advance's stop condition). One shard loop
// (detail::walk_shard) runs both kinds; a kind supplies only its injection
// routine and the few settings in detail::ShardKind.
//
// This file's kind perturbs the *forwarded* data: bit flips in MAL entries
// and ASS checkpoint words queued in a DBC channel, exactly the paper's
// methodology, which perturbs the verification stream without disturbing the
// main core. Detection latency is the simulated time from corruption to the
// checker's mismatch report, stamped by the reporter, so where the victim
// stops moves no latency. The whole-SoC kind (fault/vuln.h) flips
// microarchitectural state instead.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "flexstep/error.h"
#include "flexstep/stream.h"
#include "soc/verified_run.h"
#include "workloads/profile.h"

namespace flexstep {
class Rng;
}  // namespace flexstep

namespace flexstep::io {
class ArchiveWriter;
class ArchiveReader;
}  // namespace flexstep::io

namespace flexstep::fs {
class Channel;
}  // namespace flexstep::fs

namespace flexstep::sim {
class Session;
}  // namespace flexstep::sim

namespace flexstep::soc {
struct Snapshot;
}  // namespace flexstep::soc

namespace flexstep::fault {

/// Default shard count for sharded campaigns. Fixed (not derived from the
/// host's core count) because shard structure feeds seed derivation: outcomes
/// depend on `shards`, never on how many threads execute them.
inline constexpr u32 kDefaultCampaignShards = 8;

/// How each injection's pre-fault state is materialised. Every injection
/// starts from the exact pre-fault state, so its perturbations (checker
/// divergence, reporter events, timing drift) never reach the next
/// injection's starting state; the two modes differ only in how that state is
/// produced and are bit-identical outcome-for-outcome (tests/test_sim.cpp
/// holds them to it).
enum class CampaignMode : u8 {
  /// Warm the baseline once and soc::Snapshot it at every injection point.
  /// A baseline's first injection forks a victim from its snapshot
  /// (sim::Session::fork); every later one rewinds that victim to its own
  /// snapshot in place (sim::Session::restore), so injections build no SoC.
  /// Executes only the baseline prefix once plus each injection's resolution
  /// tail — the checkpoint-restore campaign structure of CFA/gem5-class
  /// frameworks.
  kSnapshotFork,
  /// Reference: rebuild the session and re-execute the whole warmup + gap
  /// prefix for every injection. Orders of magnitude more simulated
  /// instructions at paper-scale warmups; kept as the parity baseline the
  /// snapshot path is verified against (CampaignParity tests, and the
  /// perfbench fault_campaign oracle).
  kWarmupReexecution,
};

/// The settings every campaign has; a DBC-stream campaign has no others, and
/// VulnConfig (fault/vuln.h) adds the whole-SoC ones.
struct CampaignConfig {
  u32 target_faults = 2000;     ///< Injections to perform (summed over shards).
  u64 warmup_rounds = 50'000;   ///< Retired instructions before the first injection.
  u64 gap_rounds = 3'000;       ///< Baseline advance between injection points.
  u64 seed = 0xF417;
  u32 workload_iterations = 0;  ///< Override profile iterations (0 = default).
  u32 shards = kDefaultCampaignShards;  ///< Independent campaign shards (>= 1).
  u32 threads = 0;  ///< Worker threads (0 = FLEX_THREADS / hardware_concurrency).
  CampaignMode mode = CampaignMode::kSnapshotFork;
  /// Co-simulation engine the sessions run under. Injection placement keys
  /// off advance() rendezvous points, so absolute outcomes at a given seed
  /// are engine-specific; snapshot-fork vs re-execution parity holds within
  /// any one engine.
  soc::Engine engine = soc::Engine::kQuantum;
};

/// Final classification of one injection — the four-way taxonomy of
/// CFA-class vulnerability analyses. "Undetected" alone is not a class:
/// a fault FlexStep missed may still have perturbed architectural state
/// (SDC) or wedged the machine (DUE), and those must never be conflated
/// with harmless masked flips.
enum class OutcomeKind : u8 {
  kMasked,    ///< No detection, final architectural state matches the golden run.
  kDetected,  ///< A checker reported a mismatch (FlexStep coverage).
  kSdc,       ///< Silent data corruption: undetected AND architecturally diverged.
  kDue,       ///< Detected-unrecoverable: the run wedged (stall).
};

struct FaultOutcome {
  bool detected = false;
  double latency_us = 0.0;                  ///< Valid when detected.
  fs::DetectKind detect_kind{};             ///< Valid when detected.
  fs::StreamItem::Kind target_kind{};       ///< What was corrupted.
  /// Four-way classification. The DBC stream campaign (this file) only
  /// produces kDetected/kMasked — a corrupted stream item never touches
  /// architectural state; the whole-SoC campaign (fault/vuln.h) produces
  /// all four.
  OutcomeKind kind = OutcomeKind::kMasked;
};

/// The four-way outcome counts of a campaign, or of one component class of a
/// whole-SoC campaign. Every campaign result counts through one of these.
struct OutcomeTally {
  u32 injected = 0;
  u32 masked = 0;
  u32 detected = 0;
  u32 sdc = 0;
  u32 due = 0;

  /// Everything FlexStep missed: masked + sdc + due.
  u32 undetected() const { return masked + sdc + due; }
  double coverage() const {
    return injected == 0 ? 0.0 : static_cast<double>(detected) / injected;
  }
  /// Silent-data-corruption rate: the fraction of injections FlexStep both
  /// missed and that corrupted architectural state.
  double sdc_rate() const {
    return injected == 0 ? 0.0 : static_cast<double>(sdc) / injected;
  }

  /// Count one classified injection.
  void add(OutcomeKind kind);
  /// Fold another tally in. Enforces the classification invariant
  /// masked + detected + sdc + due == injected on the sum.
  void merge(const OutcomeTally& other);
};

/// A DBC-stream campaign's result: the outcome stream and its tally.
struct CampaignStats : OutcomeTally {
  std::vector<FaultOutcome> outcomes;

  /// Instructions actually executed on the host across every session (baseline
  /// prefixes + per-injection work). A restored snapshot contributes nothing;
  /// a re-executed prefix contributes in full — this is the counter the
  /// snapshot-fork speedup claim is asserted against.
  u64 total_instructions = 0;

  std::vector<double> latencies_us() const;

  /// Record one classified injection (counts it and appends the outcome).
  void record(const FaultOutcome& outcome);

  /// Appends another shard's outcomes and folds its tally in. Shards are
  /// merged in ascending shard order so the campaign result is deterministic.
  void merge(CampaignStats&& shard);

  /// Order-sensitive FNV-1a digest of the outcome stream (detected flag,
  /// latency bits, detect/target/outcome kinds). Deliberately EXCLUDES
  /// total_instructions: that counter measures host work, which legitimately
  /// differs between a cold campaign and one resumed from persisted baselines
  /// while the classified outcomes stay bit-identical. The distributed-merge
  /// and resume gates compare this.
  u64 digest() const;

  /// Wire format (shard checkpoint files): the outcome stream + the
  /// total_instructions counter; deserialize() rebuilds every rollup counter
  /// from the outcomes, so a decoded shard satisfies the classification
  /// invariant by construction.
  void serialize(io::ArchiveWriter& ar) const;
  void deserialize(io::ArchiveReader& ar);

 private:
  template <class Ar>
  void transfer(Ar& ar);
};

/// Persistence seam for warmed baseline sessions. A campaign shard asks the
/// store for a baseline keyed by (shard, ordinal, tag) before executing a
/// warmup; on a hit the warmup is elided entirely (restore is bit-exact, so
/// outcomes are unchanged), on a miss the shard executes the warmup and
/// offers the warmed state back. `tag` fingerprints everything the warmed
/// state depends on (profile, seed, shard, session seed, warmup length,
/// iterations, platform), so a stale or foreign file can never be restored.
/// Stores only engage in kSnapshotFork mode — re-execution victims replay the
/// baseline's advance schedule, which a restored baseline never executed.
class BaselineStore {
 public:
  virtual ~BaselineStore() = default;
  /// Restore the keyed baseline into `session` if present and tag-matching.
  virtual bool try_load(u32 shard, u32 ordinal, u64 tag, sim::Session& session) = 0;
  virtual void save(u32 shard, u32 ordinal, u64 tag, const sim::Session& session) = 0;
};

/// Run a DBC-stream campaign on `profile` under dual-core verification. The
/// campaign is split into `campaign.shards` independent shards — each a
/// worker-owned sim::Session sequence hosting its share of `target_faults`
/// injections, seeded from the shard index via runtime::stream_rng — executed
/// on the parallel runtime and merged in shard order (detail::run_shards).
/// Each shard is one detail::walk_shard: a clean baseline session, and every
/// injection in a victim session materialised per `campaign.mode`
/// (snapshot-fork by default). Results are bit-identical for a given (seed,
/// shards, mode-independent) at any thread count.
CampaignStats run_fault_campaign(const workloads::WorkloadProfile& profile,
                                 const soc::SocConfig& soc_config,
                                 const CampaignConfig& campaign);

namespace detail {

/// The DBC-stream kind's diagnostic prefix (ShardKind::name).
inline constexpr const char* kCampaignName = "fault campaign";

/// FLEX_CHECKs the fields every campaign kind shares, prefixing the message
/// with the kind's `name`: a zero shard count, fault target, warmup or gap
/// degenerates the campaign. run_shards and the multi-process entry points
/// (distributed.h) call it before running or writing anything.
void validate_campaign(const CampaignConfig& campaign, const char* name);

/// The per-shard quota split run_fault_campaign uses: target_faults divided
/// as evenly as possible over min(shards, target_faults) shards, remainder to
/// the lowest indices. Exposed so the multi-process driver (distributed.h)
/// partitions work identically to the in-process one.
std::vector<u32> shard_quotas(u32 target_faults, u32 shards);

/// What sets one campaign kind's shards apart; walk_shard owns the rest.
struct ShardKind {
  const char* name = "";  ///< Diagnostic prefix, e.g. "fault campaign".
  /// Baseline advance per probe while no injection point is ready.
  u64 wait_stride = 0;
  /// Latch a wedged co-simulation as Session::stalled() instead of aborting.
  bool tolerate_stall = false;
  u64 salt = 0;  ///< Separates the kinds' baseline tags.
  /// Whether the baseline's channel can host the shard's injection `n`.
  std::function<bool(const fs::Channel& channel, u32 n)> ready;
  /// Inject the shard's fault `n` into `victim`, which stands at the
  /// pre-fault state `pre_fault`, and record its outcome. `golden()` returns
  /// a fault-free session of the same baseline, for a kind that compares
  /// with a clean run: walk_shard forks it at `pre_fault` on the baseline's
  /// first call and never rewinds it, so a kind must never run it past a
  /// point a later injection compares at. A kind that never calls it never
  /// pays for it. Returns the instructions the injection executed.
  std::function<u64(sim::Session& victim, const soc::Snapshot& pre_fault,
                    const std::function<sim::Session&()>& golden, Rng& rng, u32 n)>
      inject;
};

/// The one shard loop of both campaign kinds. A clean baseline session walks
/// a jittered warmup (restored from `baselines` when it holds one) and the
/// gaps between injection points; every injection runs in a victim
/// materialised at the baseline's state. Under kSnapshotFork one victim per
/// baseline is forked at its first injection and rewound in place to the
/// baseline's snapshot at every later one; under kWarmupReexecution each
/// injection rebuilds a victim and re-executes the prefix. The golden session
/// ShardKind::inject may ask for is forked per baseline at the first
/// injection that asks for it, and is never rewound.
/// Everything random derives from (campaign.seed, shard_index), so a shard's
/// outcomes are independent of the thread or process that runs it, and of
/// the materialisation mode. Returns the instructions executed by baselines,
/// re-executed prefixes and injections. A workload that exhausts before the
/// warmup completes, 16 sessions in a row, FLEX_CHECKs; with `error` set,
/// the diagnostic is stored there and the walk stops instead.
u64 walk_shard(const workloads::WorkloadProfile& profile,
               const soc::SocConfig& soc_config, const CampaignConfig& campaign,
               u32 shard_index, u32 target_faults, BaselineStore* baselines,
               const ShardKind& kind, std::string* error);

/// The in-process driver of both campaign kinds: validates the shared
/// fields (validate_campaign), splits target_faults with shard_quotas and runs
/// `run_shard(shard, quota, first)` for every shard on the parallel runtime
/// (`first` is the shard's first global injection index), merging in shard
/// order. Instantiated for CampaignStats and VulnReport.
template <typename Result>
Result run_shards(const CampaignConfig& campaign, const char* name,
                  const std::function<Result(u32 shard, u32 quota, u32 first)>& run_shard);

/// One campaign shard, exactly as run_fault_campaign executes it. Exposed so
/// worker processes can run individual shards. `baselines` (optional) elides
/// warmups via persisted warmed state — outcomes are unchanged. `error` as
/// for walk_shard.
CampaignStats run_campaign_shard(const workloads::WorkloadProfile& profile,
                                 const soc::SocConfig& soc_config,
                                 const CampaignConfig& campaign, u32 shard_index,
                                 u32 target_faults,
                                 BaselineStore* baselines = nullptr,
                                 std::string* error = nullptr);

}  // namespace detail

}  // namespace flexstep::fault
