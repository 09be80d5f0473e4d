// Multi-process resumable campaign driver.
//
// Scales the sharded fault campaigns (fault/campaign.h, fault/vuln.h) across
// worker PROCESSES and makes them restartable: every shard's result streams
// to its own CRC-guarded archive file (written via temp + atomic rename, so a
// killed worker never leaves a torn file), warmed baselines persist to disk
// and are restored instead of re-executed on subsequent runs, and a fresh
// driver invocation resumes by scanning which shard files already decode
// cleanly — only the missing shards re-run.
//
// Determinism contract: shards are seeded from (seed, shard_index) alone
// (runtime::stream_rng), so process placement cannot change any outcome. The
// parent merges decoded shards in ascending shard-index order — the same fold
// order as the in-process driver — so the merged CampaignStats / VulnReport
// is bit-identical (digest()-equal) to a single-process run of the same
// config, including after a worker was killed mid-shard and the campaign
// resumed.
//
// Workers are fork()ed children: each runs its shard list with the very
// shard function the in-process driver calls (detail::run_campaign_shard /
// run_vuln_shard), so any SocConfig works and no job is serialised. A
// persisted baseline is a plain snapshot file (sim::Session::save_file) under
// `<dir>/baselines/`, named `baseline_s<shard>_o<ordinal>_<tag hex>.fxar`
// after the BaselineStore key; a missing, damaged or foreign file re-warms. A
// worker whose shard cannot run (its workload exhausts before the warmup
// completes) prints the diagnostic, writes no file for that shard and exits 2.
// A degenerate config aborts with the same message as in process, before
// any worker is forked or any file or directory is written.
//
// Fault hook for the kill-and-resume tests: when the FLEX_CAMPAIGN_DIE_SHARD
// environment variable names a shard index, the worker that runs that shard
// completes it and then _exit(42)s WITHOUT writing its result file —
// simulating a worker killed mid-shard after the work was done but before the
// atomic rename. The next driver run redoes exactly that shard.
#pragma once

#include <string>

#include "fault/campaign.h"
#include "fault/vuln.h"

namespace flexstep::fault {

struct DistributedConfig {
  u32 workers = 2;        ///< Worker processes (>= 1).
  std::string dir;        ///< Campaign directory: shard files, baselines, journal.
  /// Names this run's shard-result files (`<run_label>_shard_<k>.fxar`) and
  /// journal. Re-running with a fresh label but the same dir re-runs every
  /// shard against the persisted baselines (a warm start).
  std::string run_label = "run";
};

/// What a driver invocation did, beyond the merged result.
struct DistributedOutcome {
  u32 shards_total = 0;
  u32 shards_completed = 0;  ///< Shard files that decode cleanly at the end.
  u32 shards_resumed = 0;    ///< Found already complete before any worker ran.
  /// Warmup instructions restored from persisted baselines instead of
  /// executed, summed over completed shards (0 on a cold run).
  u64 warmup_instructions_elided = 0;

  /// All shards accounted for; the merged result is only meaningful when
  /// true (a killed worker leaves its shard missing — re-run to resume).
  bool complete() const { return shards_completed == shards_total; }
};

struct DistributedCampaignResult {
  CampaignStats stats;  ///< Merged in shard order; valid when run.complete().
  DistributedOutcome run;
};

struct DistributedVulnResult {
  VulnReport report;  ///< Merged in shard order; valid when run.complete().
  DistributedOutcome run;
};

/// Run (or resume) a DBC-stream campaign across worker processes.
DistributedCampaignResult run_distributed_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const CampaignConfig& campaign, const DistributedConfig& dist);

/// Run (or resume) a whole-SoC vulnerability campaign across worker processes.
DistributedVulnResult run_distributed_vuln_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const VulnConfig& config, const DistributedConfig& dist);

}  // namespace flexstep::fault
