#include "fault/distributed.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/archive.h"
#include "common/check.h"
#include "common/log.h"
#include "sim/scenario.h"
#include "soc/snapshot.h"

namespace flexstep::fault {

namespace {

// ---------------------------------------------------------------------------
// Wire formats: shard-result files and persisted baselines
// ---------------------------------------------------------------------------

/// Shard-result archive: app tag "FSHD", one meta section (campaign kind,
/// shard index, elided-warmup counter) + one payload section (the shard's
/// CampaignStats / VulnReport wire form).
constexpr u32 kShardTag = 0x44485346;  // "FSHD" little-endian.
constexpr u32 kShardVersion = 1;
constexpr u32 kShardMetaSection = 1;
constexpr u32 kShardPayloadSection = 2;

/// Persisted-baseline archive: app tag "FBAS", one meta section (the
/// BaselineStore tag fingerprint) followed by the soc::Snapshot sections.
/// The meta section is fixed, so the version follows the snapshot format's:
/// a baseline written under another format is rejected as version skew.
constexpr u32 kBaselineTag = 0x53414246;  // "FBAS" little-endian.
constexpr u32 kBaselineVersion = soc::kSnapshotFormatVersion;
constexpr u32 kBaselineMetaSection = 100;  ///< Distinct from SnapshotSection ids.

constexpr u8 kKindCampaign = 0;
constexpr u8 kKindVuln = 1;

std::string shard_path(const DistributedConfig& dist, u32 shard) {
  return dist.dir + "/" + dist.run_label + "_shard_" + std::to_string(shard) +
         ".fxar";
}

template <typename Result>
struct ShardFile {
  Result result;
  u64 elided = 0;  ///< Warmup instructions restored, not executed, that run.
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
  if (!ar.begin_section(kShardMetaSection)) return std::nullopt;
  const u8 stored_kind = ar.take_u8();
  const u32 stored_shard = ar.take_u32();
  ShardFile<Result> out;
  out.elided = ar.take_varint();
  ar.end_section();
  if (!ar.ok() || stored_kind != kind || stored_shard != shard) {
    return std::nullopt;
  }
  if (!ar.begin_section(kShardPayloadSection)) return std::nullopt;
  out.result.deserialize(ar);
  ar.end_section();
  if (!ar.ok()) return std::nullopt;
  return out;
}

template <typename Result>
bool write_shard_file(const std::string& path, u8 kind, u32 shard, u64 elided,
                      const Result& result) {
  io::ArchiveWriter ar(kShardTag, kShardVersion);
  ar.begin_section(kShardMetaSection);
  ar.put_u8(kind);
  ar.put_u32(shard);
  ar.put_varint(elided);
  ar.end_section();
  ar.begin_section(kShardPayloadSection);
  result.serialize(ar);
  ar.end_section();
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

/// BaselineStore over one directory of "FBAS" archives, keyed by
/// (shard, ordinal) in the file name and the fingerprint tag in the file.
/// Load failures of every kind fall back to re-warming; save failures only
/// cost the next run its warm start. Never fatal — baselines are a cache.
class FileBaselineStore final : public BaselineStore {
 public:
  explicit FileBaselineStore(std::string dir) : dir_(std::move(dir)) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }

  u64 elided_instructions() const { return elided_; }

  bool try_load(u32 shard, u32 ordinal, u64 tag, sim::Session& session) override {
    std::vector<u8> data;
    if (!io::read_file(path(shard, ordinal), data).ok()) return false;
    io::ArchiveReader ar(data.data(), data.size(), kBaselineTag,
                         kBaselineVersion);
    if (!ar.begin_section(kBaselineMetaSection)) return false;
    const u64 stored_tag = ar.take_u64();
    ar.end_section();
    if (!ar.ok() || stored_tag != tag) return false;
    soc::Snapshot snapshot;
    snapshot.deserialize(ar);
    if (!ar.ok()) return false;
    // The tag fingerprints the platform; the geometry check still guards the
    // restore, because a file is untrusted input.
    if (!session.restore_checked(snapshot).ok()) return false;
    elided_ += session.total_instret();
    return true;
  }

  void save(u32 shard, u32 ordinal, u64 tag,
            const sim::Session& session) override {
    io::ArchiveWriter ar(kBaselineTag, kBaselineVersion);
    ar.begin_section(kBaselineMetaSection);
    ar.put_u64(tag);
    ar.end_section();
    session.snapshot().serialize(ar);
    const io::ArchiveError err = ar.write_file(path(shard, ordinal));
    if (!err.ok()) {
      FLEX_LOG_ERROR("baseline store: cannot write %s: %s",
                    path(shard, ordinal).c_str(), err.message().c_str());
    }
  }

 private:
  std::string path(u32 shard, u32 ordinal) const {
    return dir_ + "/baseline_s" + std::to_string(shard) + "_o" +
           std::to_string(ordinal) + ".fxar";
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

/// Run one shard with a baseline store and persist its result. Shared by the
/// fork-mode child and the exec-mode worker so the two dispatch modes are
/// behaviourally identical (including the die hook).
template <typename Result>
void run_and_store_shard(
    u8 kind, u32 shard, const DistributedConfig& dist,
    const std::function<Result(u32, BaselineStore*)>& run_shard) {
  FileBaselineStore store(dist.dir + "/baselines");
  const Result result = run_shard(shard, &store);
  if (die_requested(shard)) _exit(42);
  write_shard_file(shard_path(dist, shard), kind, shard,
                   store.elided_instructions(), result);
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

/// The generic driver: scan → partition pending shards over workers → fork
/// (or fork+exec) → wait → rescan → merge in shard order → journal.
/// `spawn_exec` writes a worker's spec file and returns its path (exec mode
/// only). Returns the outcome; `merged` receives completed shards merged in
/// ascending shard-index order (the in-process fold order).
template <typename Result>
DistributedOutcome drive(
    u8 kind, u32 shards, const DistributedConfig& dist,
    const std::function<Result(u32, BaselineStore*)>& run_shard,
    const std::function<std::string(u32 worker, const std::vector<u32>&)>&
        spawn_exec,
    Result& merged) {
  FLEX_CHECK_MSG(dist.workers >= 1,
                 "distributed campaign: workers must be >= 1");
  FLEX_CHECK_MSG(!dist.dir.empty(), "distributed campaign: dir must be set");
  std::error_code ec;
  std::filesystem::create_directories(dist.dir, ec);

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
    if (pid == 0) {
      if (spawn_exec != nullptr) {
        const std::string spec = spawn_exec(w, plan[w]);
        execl(dist.exe.c_str(), dist.exe.c_str(), "--campaign-worker",
              spec.c_str(), static_cast<char*>(nullptr));
        std::fprintf(stderr, "campaign worker: exec %s failed\n",
                     dist.exe.c_str());
        _exit(127);
      }
      for (u32 s : plan[w]) run_and_store_shard(kind, s, dist, run_shard);
      _exit(0);
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
    // A dead worker is not fatal to the driver: its shards simply stay
    // missing and the next invocation resumes them.
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      FLEX_LOG_ERROR("distributed campaign: worker %d exited abnormally "
                    "(status %d) — run again to resume its shards",
                    static_cast<int>(pid), status);
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

// ---------------------------------------------------------------------------
// Exec-mode spec files
// ---------------------------------------------------------------------------

std::string csv(const std::vector<u32>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

/// Exec-mode specs carry the platform as a core count, and workers rebuild
/// SocConfig::paper_default(cores) from it. Any other platform would run
/// silently as the paper default, so the parent refuses it up front.
void check_exec_platform(const soc::SocConfig& soc_config,
                         const DistributedConfig& dist) {
  const soc::SocConfig shipped = soc::SocConfig::paper_default(soc_config.num_cores);
  FLEX_CHECK_MSG(!dist.use_exec || soc_config.fingerprint() == shipped.fingerprint(),
                 "distributed campaign: exec-mode workers run only "
                 "SocConfig::paper_default platforms; use fork mode");
}

/// Common spec fields of both campaign kinds: the workload by profile name,
/// the platform as a core count (see check_exec_platform) and the engine.
void spec_common(std::string& spec, const workloads::WorkloadProfile& profile,
                 const soc::SocConfig& soc_config, soc::Engine engine,
                 const DistributedConfig& dist, const std::vector<u32>& assigned) {
  spec += "profile=" + profile.name + "\n";
  spec += "cores=" + std::to_string(soc_config.num_cores) + "\n";
  spec += "engine=" + std::to_string(static_cast<int>(engine)) + "\n";
  spec += "dir=" + dist.dir + "\n";
  spec += "run_label=" + dist.run_label + "\n";
  spec += "assigned=" + csv(assigned) + "\n";
}

std::string write_spec_file(const DistributedConfig& dist, u32 worker,
                            const std::string& spec) {
  const std::string path = dist.dir + "/" + dist.run_label + "_worker_" +
                           std::to_string(worker) + ".spec";
  const io::ArchiveError err =
      io::write_file_atomic(path, spec.data(), spec.size());
  FLEX_CHECK_MSG(err.ok(), "distributed campaign: cannot write worker spec");
  return path;
}

/// Reads the `key=value` lines of a worker spec, keeping the first defect.
class SpecReader {
 public:
  explicit SpecReader(std::string_view text) {
    while (!text.empty()) {
      const std::size_t eol = std::min(text.find('\n'), text.size());
      const std::string_view line = text.substr(0, eol);
      text.remove_prefix(std::min(eol + 1, text.size()));
      const std::size_t eq = line.find('=');
      if (eq != std::string_view::npos) {
        fields_[std::string(line.substr(0, eq))] = std::string(line.substr(eq + 1));
      }
    }
  }

  const std::string& error() const { return error_; }
  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  std::string text(const std::string& key) const {
    const auto it = fields_.find(key);
    return it == fields_.end() ? std::string() : it->second;
  }

  /// A decimal number in [lo, hi]; `fallback` when the key is absent or empty.
  u64 number(const std::string& key, u64 fallback, u64 lo, u64 hi) {
    const std::string value = text(key);
    u64 out = fallback;
    if (!value.empty() && !parse(value, out)) {
      fail(key + ": '" + value + "' is not a decimal number");
    } else if (out < lo || out > hi) {
      fail(key + ": " + std::to_string(out) + " is outside [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]");
    }
    return out;
  }

  /// Comma-separated decimal numbers, each below `bound`.
  std::vector<u32> list(const std::string& key, u64 bound) {
    std::vector<u32> out;
    const std::string value = text(key);
    std::string_view rest = value;
    std::string bad;
    while (!rest.empty() && bad.empty()) {
      const std::size_t comma = std::min(rest.find(','), rest.size());
      std::string item(rest.substr(0, comma));
      rest.remove_prefix(std::min(comma + 1, rest.size()));
      u64 entry = 0;
      if (item.empty()) continue;
      if (!parse(item, entry) || entry >= bound) {
        bad = std::move(item);
      } else {
        out.push_back(static_cast<u32>(entry));
      }
    }
    if (!bad.empty()) {
      fail(key + ": entry '" + bad + "' is not a number below " + std::to_string(bound));
    }
    return out;
  }

 private:
  static bool parse(const std::string& text, u64& out) {
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc{} && end == text.data() + text.size();
  }

  std::map<std::string, std::string> fields_;
  std::string error_;
};

/// The shard bodies, as the parent's fork-mode children and the exec-mode
/// workers both run them.
std::function<CampaignStats(u32, BaselineStore*)> campaign_shard_runner(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const CampaignConfig& campaign) {
  return [&profile, soc_config, campaign,
          quota = detail::shard_quotas(campaign.target_faults, campaign.shards)](
             u32 s, BaselineStore* store) {
    return detail::run_campaign_shard(profile, soc_config, campaign, s, quota[s], store);
  };
}

std::function<VulnReport(u32, BaselineStore*)> vuln_shard_runner(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const VulnConfig& config) {
  const std::vector<u32> quota =
      detail::shard_quotas(config.target_faults, config.shards);
  std::vector<u32> start(quota.size());
  u32 assigned_faults = 0;
  for (std::size_t s = 0; s < quota.size(); ++s) {
    start[s] = assigned_faults;
    assigned_faults += quota[s];
  }
  return [&profile, soc_config, config, quota, start,
          comps = detail::resolve_components(config)](u32 s, BaselineStore* store) {
    return detail::run_vuln_shard(profile, soc_config, config, comps, s, quota[s],
                                  start[s], store);
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Public drivers
// ---------------------------------------------------------------------------

DistributedCampaignResult run_distributed_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const CampaignConfig& campaign, const DistributedConfig& dist) {
  check_exec_platform(soc_config, dist);
  const std::vector<u32> quota =
      detail::shard_quotas(campaign.target_faults, campaign.shards);
  const auto run_shard = campaign_shard_runner(profile, soc_config, campaign);
  std::function<std::string(u32, const std::vector<u32>&)> spawn_exec;
  if (dist.use_exec) {
    spawn_exec = [&](u32 worker, const std::vector<u32>& assigned) {
      std::string spec = "kind=campaign\n";
      spec_common(spec, profile, soc_config, campaign.engine, dist, assigned);
      spec += "target_faults=" + std::to_string(campaign.target_faults) + "\n";
      spec += "warmup_rounds=" + std::to_string(campaign.warmup_rounds) + "\n";
      spec += "gap_rounds=" + std::to_string(campaign.gap_rounds) + "\n";
      spec += "seed=" + std::to_string(campaign.seed) + "\n";
      spec += "workload_iterations=" +
              std::to_string(campaign.workload_iterations) + "\n";
      spec += "shards=" + std::to_string(campaign.shards) + "\n";
      spec += std::string("mode=") +
              (campaign.mode == CampaignMode::kSnapshotFork ? "fork" : "reexec") +
              "\n";
      return write_spec_file(dist, worker, spec);
    };
  }

  DistributedCampaignResult result;
  result.run = drive<CampaignStats>(kKindCampaign,
                                    static_cast<u32>(quota.size()), dist,
                                    run_shard, spawn_exec, result.stats);
  return result;
}

DistributedVulnResult run_distributed_vuln_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const VulnConfig& config, const DistributedConfig& dist) {
  check_exec_platform(soc_config, dist);
  const std::vector<u32> quota =
      detail::shard_quotas(config.target_faults, config.shards);
  const auto run_shard = vuln_shard_runner(profile, soc_config, config);
  std::function<std::string(u32, const std::vector<u32>&)> spawn_exec;
  if (dist.use_exec) {
    spawn_exec = [&](u32 worker, const std::vector<u32>& assigned) {
      std::string spec = "kind=vuln\n";
      spec_common(spec, profile, soc_config, config.engine, dist, assigned);
      spec += "target_faults=" + std::to_string(config.target_faults) + "\n";
      spec += "warmup_rounds=" + std::to_string(config.warmup_rounds) + "\n";
      spec += "gap_rounds=" + std::to_string(config.gap_rounds) + "\n";
      spec += "horizon=" + std::to_string(config.horizon) + "\n";
      spec += "seed=" + std::to_string(config.seed) + "\n";
      spec += "workload_iterations=" +
              std::to_string(config.workload_iterations) + "\n";
      spec += "shards=" + std::to_string(config.shards) + "\n";
      spec += std::string("mode=") +
              (config.mode == CampaignMode::kSnapshotFork ? "fork" : "reexec") +
              "\n";
      spec += std::string("root_cause=") + (config.root_cause ? "1" : "0") + "\n";
      if (!config.components.empty()) {
        std::vector<u32> comp_ids;
        for (Component c : config.components) {
          comp_ids.push_back(static_cast<u32>(c));
        }
        spec += "components=" + csv(comp_ids) + "\n";
      }
      return write_spec_file(dist, worker, spec);
    };
  }

  DistributedVulnResult result;
  result.run = drive<VulnReport>(kKindVuln, static_cast<u32>(quota.size()),
                                 dist, run_shard, spawn_exec, result.report);
  return result;
}

ParseWorkerSpecResult parse_worker_spec(std::string_view text) {
  SpecReader in(text);
  WorkerSpec spec;
  const std::string kind = in.text("kind");
  if (kind != "campaign" && kind != "vuln") {
    in.fail("kind: expected campaign or vuln, got '" + kind + "'");
  }
  spec.vuln = kind == "vuln";
  const std::string profile = in.text("profile");
  spec.profile = workloads::lookup_profile(profile);
  if (spec.profile == nullptr) in.fail("profile: unknown workload '" + profile + "'");
  // Both campaign kinds verify main core 0 with checker core 1, and the
  // G.Configure masks hold core ids 0..63.
  spec.soc_config =
      soc::SocConfig::paper_default(static_cast<u32>(in.number("cores", 2, 2, 64)));
  spec.dist.dir = in.text("dir");
  if (spec.dist.dir.empty()) in.fail("dir: missing");
  spec.dist.run_label = in.text("run_label");

  const std::string mode = in.text("mode");
  if (!mode.empty() && mode != "fork" && mode != "reexec") {
    in.fail("mode: expected fork or reexec, got '" + mode + "'");
  }
  const auto engine = static_cast<soc::Engine>(
      in.number("engine", static_cast<u64>(soc::Engine::kQuantum), 0,
                static_cast<u64>(soc::Engine::kQuantumBounded)));
  constexpr u64 kU32Max = ~u32{0};
  constexpr u64 kU64Max = ~u64{0};
  const auto fill = [&](auto& config) {
    config.target_faults = static_cast<u32>(in.number("target_faults", 0, 1, kU32Max));
    config.warmup_rounds = in.number("warmup_rounds", 0, 1, kU64Max);
    config.gap_rounds = in.number("gap_rounds", 0, 1, kU64Max);
    config.seed = in.number("seed", 0, 0, kU64Max);
    config.workload_iterations =
        static_cast<u32>(in.number("workload_iterations", 0, 0, kU32Max));
    config.shards = static_cast<u32>(in.number("shards", 1, 1, kU32Max));
    config.mode = mode == "reexec" ? CampaignMode::kWarmupReexecution
                                   : CampaignMode::kSnapshotFork;
    config.engine = engine;
    // detail::shard_quotas runs min(shards, target_faults) shards.
    spec.assigned = in.list("assigned", std::min(config.shards, config.target_faults));
  };
  if (spec.vuln) {
    VulnConfig& config = spec.vuln_config;
    fill(config);
    config.horizon = in.number("horizon", 0, 1, kU64Max);
    config.root_cause = in.number("root_cause", 0, 0, 1) != 0;
    for (u32 c : in.list("components", kComponentCount)) {
      config.components.push_back(static_cast<Component>(c));
    }
  } else {
    fill(spec.campaign);
  }

  ParseWorkerSpecResult result;
  if (in.error().empty()) {
    result.spec = std::move(spec);
  } else {
    result.error = in.error();
  }
  return result;
}

int campaign_worker_main(const std::string& spec_path) {
  std::vector<u8> raw;
  if (!io::read_file(spec_path, raw).ok()) {
    std::fprintf(stderr, "campaign worker: cannot read spec %s\n",
                 spec_path.c_str());
    return 2;
  }
  const ParseWorkerSpecResult parsed = parse_worker_spec(
      std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()));
  if (!parsed.spec.has_value()) {
    std::fprintf(stderr, "campaign worker: malformed spec %s: %s\n",
                 spec_path.c_str(), parsed.error.c_str());
    return 2;
  }
  const WorkerSpec& spec = *parsed.spec;
  if (spec.vuln) {
    const auto run_shard =
        vuln_shard_runner(*spec.profile, spec.soc_config, spec.vuln_config);
    for (u32 s : spec.assigned) run_and_store_shard(kKindVuln, s, spec.dist, run_shard);
  } else {
    const auto run_shard =
        campaign_shard_runner(*spec.profile, spec.soc_config, spec.campaign);
    for (u32 s : spec.assigned) {
      run_and_store_shard(kKindCampaign, s, spec.dist, run_shard);
    }
  }
  return 0;
}

}  // namespace flexstep::fault
