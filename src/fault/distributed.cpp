#include "fault/distributed.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <numeric>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/archive.h"
#include "common/check.h"
#include "common/log.h"
#include "sim/scenario.h"

namespace flexstep::fault {

namespace {

// ---------------------------------------------------------------------------
// Shard-result files
// ---------------------------------------------------------------------------

/// Shard-result archive: app tag "FSHD", one meta section (campaign kind,
/// shard index, elided-warmup counter) + one payload section (the shard's
/// CampaignStats / VulnReport wire form).
constexpr u32 kShardTag = 0x44485346;  // "FSHD" little-endian.
constexpr u32 kShardVersion = 1;
constexpr u32 kShardMetaSection = 1;
constexpr u32 kShardPayloadSection = 2;

constexpr u8 kKindCampaign = 0;
constexpr u8 kKindVuln = 1;

std::string shard_path(const DistributedConfig& dist, u32 shard) {
  return dist.dir + "/" + dist.run_label + "_shard_" + std::to_string(shard) +
         ".fxar";
}

template <typename Result>
struct ShardFile {
  u8 kind = 0;
  u32 shard = 0;
  u64 elided = 0;  ///< Warmup instructions restored, not executed, that run.
  Result result;

  template <class Ar>
  void transfer(Ar& ar) {
    ar.section(kShardMetaSection, [&] {
      ar.fixed(kind);
      ar.fixed(shard);
      ar.varint(elided);
    });
    ar.section(kShardPayloadSection, [&] {
      if constexpr (Ar::kReading) {
        result.deserialize(ar);
      } else {
        result.serialize(ar);
      }
    });
  }
};

/// Decode a shard-result file; nullopt on ANY defect (missing, truncated,
/// corrupt, wrong kind/index) — an invalid file simply means "not done",
/// which is exactly the resume semantic. Atomic-rename writes guarantee a
/// file that exists is either whole or from a different (stale) run.
template <typename Result>
std::optional<ShardFile<Result>> read_shard_file(const std::string& path,
                                                 u8 kind, u32 shard) {
  std::vector<u8> data;
  if (!io::read_file(path, data).ok()) return std::nullopt;
  io::ArchiveReader ar(data.data(), data.size(), kShardTag, kShardVersion);
  ShardFile<Result> file;
  file.transfer(ar);
  if (!ar.ok() || file.kind != kind || file.shard != shard) return std::nullopt;
  return file;
}

template <typename Result>
bool write_shard_file(const std::string& path, ShardFile<Result>& file) {
  io::ArchiveWriter ar(kShardTag, kShardVersion);
  file.transfer(ar);
  const io::ArchiveError err = ar.write_file(path);
  if (!err.ok()) {
    FLEX_LOG_ERROR("distributed campaign: cannot write %s: %s", path.c_str(),
                  err.message().c_str());
  }
  return err.ok();
}

// ---------------------------------------------------------------------------
// FileBaselineStore
// ---------------------------------------------------------------------------

/// BaselineStore over one directory of snapshot files, keyed by (shard,
/// ordinal, tag) in the file name. Load failures of every kind fall back to
/// re-warming; save failures only cost the next run its warm start. Never
/// fatal — baselines are a cache.
class FileBaselineStore final : public BaselineStore {
 public:
  explicit FileBaselineStore(std::string dir) : dir_(std::move(dir)) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }

  u64 elided_instructions() const { return elided_; }

  bool try_load(u32 shard, u32 ordinal, u64 tag, sim::Session& session) override {
    // A file is untrusted input: load_file CRC-checks it and gates its
    // geometry, and leaves the session untouched when either fails.
    if (!session.load_file(path(shard, ordinal, tag)).ok()) return false;
    elided_ += session.total_instret();
    return true;
  }

  void save(u32 shard, u32 ordinal, u64 tag,
            const sim::Session& session) override {
    const std::string file = path(shard, ordinal, tag);
    const io::ArchiveError err = session.save_file(file);
    if (!err.ok()) {
      FLEX_LOG_ERROR("baseline store: cannot write %s: %s", file.c_str(),
                     err.message().c_str());
    }
  }

 private:
  std::string path(u32 shard, u32 ordinal, u64 tag) const {
    char hex[17] = {};
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(tag));
    return dir_ + "/baseline_s" + std::to_string(shard) + "_o" +
           std::to_string(ordinal) + "_" + hex + ".fxar";
  }

  std::string dir_;
  u64 elided_ = 0;
};

// ---------------------------------------------------------------------------
// Worker body
// ---------------------------------------------------------------------------

/// Kill hook: FLEX_CAMPAIGN_DIE_SHARD=<index> makes the worker that runs that
/// shard finish the work and _exit(42) BEFORE the result file is written —
/// the kill-and-resume tests' "died between compute and rename" window.
bool die_requested(u32 shard) {
  const char* env = std::getenv("FLEX_CAMPAIGN_DIE_SHARD");
  if (env == nullptr || *env == '\0') return false;
  return std::strtoul(env, nullptr, 10) == shard;
}

/// One shard, run exactly as the in-process driver runs it, against a
/// baseline store; a diagnostic in `error` means the shard could not run.
template <typename Result>
using ShardRunner =
    std::function<Result(u32 shard, BaselineStore* store, std::string* error)>;

template <typename Result>
constexpr u8 kind_of() {
  return std::is_same_v<Result, VulnReport> ? kKindVuln : kKindCampaign;
}

/// A forked worker's body: run the assigned shards, each with a baseline
/// store, and persist their results. Returns the worker's exit code: 0, or 2
/// (with the diagnostic on stderr, and no file for that shard) when a shard's
/// workload exhausts before its warmup completes.
template <typename Result>
int run_assigned(const DistributedConfig& dist, const std::vector<u32>& assigned,
                 const ShardRunner<Result>& run_shard) {
  for (u32 shard : assigned) {
    FileBaselineStore store(dist.dir + "/baselines");
    std::string error;
    ShardFile<Result> file{kind_of<Result>(), shard, 0, run_shard(shard, &store, &error)};
    if (!error.empty()) {
      std::fprintf(stderr, "campaign worker: %s\n", error.c_str());
      return 2;
    }
    if (die_requested(shard)) _exit(42);
    file.elided = store.elided_instructions();
    write_shard_file(shard_path(dist, shard), file);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Parent driver
// ---------------------------------------------------------------------------

void write_journal(const DistributedConfig& dist, u8 kind,
                   const std::vector<bool>& complete) {
  std::string text = "# resumable campaign journal: kind=";
  text += (kind == kKindCampaign ? "campaign" : "vuln");
  text += " run=" + dist.run_label + "\n";
  for (std::size_t s = 0; s < complete.size(); ++s) {
    text += "shard " + std::to_string(s) +
            (complete[s] ? " complete\n" : " missing\n");
  }
  io::write_file_atomic(dist.dir + "/" + dist.run_label + "_journal.txt",
                        text.data(), text.size());
}

/// The driver of both campaign kinds (kind=vuln when Result is VulnReport):
/// scan → partition pending shards over workers → fork → wait → rescan →
/// merge in shard order → journal. `merged` receives the completed shards
/// merged in ascending shard-index order (the in-process fold order).
template <typename Result>
DistributedOutcome drive(const DistributedConfig& dist, u32 shards,
                         const ShardRunner<Result>& run_shard, Result& merged) {
  FLEX_CHECK_MSG(dist.workers >= 1,
                 "distributed campaign: workers must be >= 1");
  FLEX_CHECK_MSG(!dist.dir.empty(), "distributed campaign: dir must be set");
  std::error_code ec;
  std::filesystem::create_directories(dist.dir, ec);

  const u8 kind = kind_of<Result>();
  DistributedOutcome out;
  out.shards_total = shards;

  // Resume scan: a shard whose result file decodes cleanly is done — its
  // worker survived the atomic rename. Everything else re-runs.
  std::vector<std::optional<ShardFile<Result>>> have(shards);
  std::vector<u32> pending;
  for (u32 s = 0; s < shards; ++s) {
    have[s] = read_shard_file<Result>(shard_path(dist, s), kind, s);
    if (!have[s].has_value()) pending.push_back(s);
  }
  out.shards_resumed = shards - static_cast<u32>(pending.size());

  // Round-robin the pending shards over the workers; shard->worker placement
  // is irrelevant to outcomes (shards are (seed, index)-seeded), so the
  // simplest deterministic partition wins.
  std::vector<std::vector<u32>> plan(dist.workers);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    plan[i % dist.workers].push_back(pending[i]);
  }

  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> children;
  for (u32 w = 0; w < dist.workers; ++w) {
    if (plan[w].empty()) continue;
    const pid_t pid = fork();
    FLEX_CHECK_MSG(pid >= 0, "distributed campaign: fork() failed");
    if (pid == 0) _exit(run_assigned(dist, plan[w], run_shard));
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
    // A dead worker is not fatal to the driver: its shards simply stay
    // missing and the next invocation resumes them.
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      FLEX_LOG_ERROR("distributed campaign: worker %d exited with code %d — run "
                     "again to resume its shards",
                     static_cast<int>(pid), WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
      FLEX_LOG_ERROR("distributed campaign: worker %d was killed by signal %d (%s) "
                     "— run again to resume its shards",
                     static_cast<int>(pid), WTERMSIG(status), strsignal(WTERMSIG(status)));
    }
  }

  // Rescan what the workers produced, then merge every completed shard in
  // ascending index order — the exact fold order of the in-process driver.
  std::vector<bool> complete(shards, false);
  for (u32 s = 0; s < shards; ++s) {
    if (!have[s].has_value()) {
      have[s] = read_shard_file<Result>(shard_path(dist, s), kind, s);
    }
    complete[s] = have[s].has_value();
  }
  for (u32 s = 0; s < shards; ++s) {
    if (!have[s].has_value()) continue;
    ++out.shards_completed;
    out.warmup_instructions_elided += have[s]->elided;
    merged.merge(std::move(have[s]->result));
  }
  write_journal(dist, kind, complete);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public drivers
// ---------------------------------------------------------------------------

DistributedCampaignResult run_distributed_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const CampaignConfig& campaign, const DistributedConfig& dist) {
  detail::validate_campaign(campaign, detail::kCampaignName);
  const std::vector<u32> quota = detail::shard_quotas(campaign.target_faults, campaign.shards);
  DistributedCampaignResult result;
  result.run = drive<CampaignStats>(
      dist, static_cast<u32>(quota.size()),
      [&](u32 shard, BaselineStore* store, std::string* error) {
        return detail::run_campaign_shard(profile, soc_config, campaign, shard,
                                          quota[shard], store, error);
      },
      result.stats);
  return result;
}

DistributedVulnResult run_distributed_vuln_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const VulnConfig& config, const DistributedConfig& dist) {
  detail::validate_vuln_campaign(config);
  const std::vector<u32> quota = detail::shard_quotas(config.target_faults, config.shards);
  const std::vector<Component> comps = detail::resolve_components(config);
  DistributedVulnResult result;
  result.run = drive<VulnReport>(
      dist, static_cast<u32>(quota.size()),
      [&](u32 shard, BaselineStore* store, std::string* error) {
        const u32 first = std::accumulate(quota.begin(), quota.begin() + shard, u32{0});
        return detail::run_vuln_shard(profile, soc_config, config, comps, shard,
                                      quota[shard], first, store, error);
      },
      result.report);
  return result;
}

}  // namespace flexstep::fault
