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
// Worker dispatch has two modes:
//   * plain fork() (default): the child runs its shard list in-process and
//     _exit()s — works for any SocConfig, no binary involved;
//   * fork + exec (DistributedConfig::use_exec): the child re-executes
//     `exe --campaign-worker <spec>` with a text spec file naming the
//     campaign. Spec files carry the workload by profile NAME and the
//     platform as a core count, so exec mode is restricted to
//     SocConfig::paper_default platforms: the driver aborts on any other
//     SocConfig (compared by SocConfig::fingerprint) before it forks.
//
// Fault hook for the kill-and-resume tests: when the FLEX_CAMPAIGN_DIE_SHARD
// environment variable names a shard index, the worker that runs that shard
// completes it and then _exit(42)s WITHOUT writing its result file —
// simulating a worker killed mid-shard after the work was done but before the
// atomic rename. The next driver run redoes exactly that shard.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

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
  bool use_exec = false;  ///< fork+exec `exe --campaign-worker <spec>` workers.
  std::string exe;        ///< Binary for exec mode (e.g. /proc/self/exe).
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

/// A campaign of either kind as the distributed driver runs it, and an
/// exec-mode worker's assignment, decoded from its spec file.
struct WorkerSpec {
  bool vuln = false;  ///< kind=vuln; otherwise kind=campaign.
  const workloads::WorkloadProfile* profile = nullptr;
  soc::SocConfig soc_config;
  DistributedConfig dist;     ///< dir + run_label.
  std::vector<u32> assigned;  ///< Shard indices, each below the shard count.
  /// The campaign. kind=campaign uses only its CampaignConfig fields.
  VulnConfig config;
};

/// Outcome of parsing a worker spec: the spec on success, otherwise a
/// diagnostic naming the field that failed. Parsing never aborts — spec files
/// are untrusted input, so every field a campaign would FLEX_CHECK on (kind,
/// profile, core count, engine, mode, counts, components, assigned shards) is
/// validated here.
struct ParseWorkerSpecResult {
  std::optional<WorkerSpec> spec;
  std::string error;  ///< Empty on success.

  bool ok() const { return spec.has_value(); }
};

/// Parse and validate the `key=value` lines of a worker spec.
ParseWorkerSpecResult parse_worker_spec(std::string_view text);

/// Exec-mode worker entry point: parse `spec_path`, run the assigned shards,
/// write their result files. Returns a process exit code: 0 on success, 2
/// (with a message on stderr) for an unreadable or malformed spec. A binary
/// that serves as DistributedConfig::exe hands it `--campaign-worker <spec>`
/// before parsing its own arguments (tests/test_snapshot_io.cpp's main()).
int campaign_worker_main(const std::string& spec_path);

}  // namespace flexstep::fault
