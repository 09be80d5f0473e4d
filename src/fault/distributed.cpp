#include "fault/distributed.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <type_traits>
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

u8 kind_of(const WorkerSpec& job) { return job.vuln ? kKindVuln : kKindCampaign; }

/// Shard `shard` of `job`, split and seeded exactly as the in-process driver
/// runs it (Result is VulnReport for kind=vuln, CampaignStats otherwise).
template <typename Result>
Result run_shard(const WorkerSpec& job, u32 shard, BaselineStore* store,
                 std::string* error) {
  const VulnConfig& config = job.config;
  const std::vector<u32> quota = detail::shard_quotas(config.target_faults, config.shards);
  if constexpr (std::is_same_v<Result, VulnReport>) {
    const u32 first = std::accumulate(quota.begin(), quota.begin() + shard, u32{0});
    return detail::run_vuln_shard(*job.profile, job.soc_config, config,
                                  detail::resolve_components(config), shard,
                                  quota[shard], first, store, error);
  } else {
    return detail::run_campaign_shard(*job.profile, job.soc_config, config, shard,
                                      quota[shard], store, error);
  }
}

/// Run `job`'s assigned shards, each with a baseline store, and persist their
/// results. The fork-mode child and the exec-mode worker both run this, so
/// the two dispatch modes behave identically (including the die hook).
/// Returns the worker's exit code: 0, or 2 (with the diagnostic on stderr,
/// and no file for that shard) when a shard's workload exhausts before its
/// warmup completes.
template <typename Result>
int run_assigned(const WorkerSpec& job) {
  for (u32 shard : job.assigned) {
    FileBaselineStore store(job.dist.dir + "/baselines");
    std::string error;
    const Result result = run_shard<Result>(job, shard, &store, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "campaign worker: %s\n", error.c_str());
      return 2;
    }
    if (die_requested(shard)) _exit(42);
    write_shard_file(shard_path(job.dist, shard), kind_of(job), shard,
                     store.elided_instructions(), result);
  }
  return 0;
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

/// Write `job` (its assigned shards included) as worker `worker`'s spec file
/// and return the path. The workload travels by profile name and the
/// platform as a core count (see drive()).
std::string write_worker_spec(const WorkerSpec& job, u32 worker) {
  const VulnConfig& config = job.config;
  std::string spec;
  const auto field = [&spec](const char* key, const std::string& value) {
    spec += std::string(key) + "=" + value + "\n";
  };
  field("kind", job.vuln ? "vuln" : "campaign");
  field("profile", job.profile->name);
  field("cores", std::to_string(job.soc_config.num_cores));
  field("engine", std::to_string(static_cast<int>(config.engine)));
  field("dir", job.dist.dir);
  field("run_label", job.dist.run_label);
  field("assigned", csv(job.assigned));
  field("target_faults", std::to_string(config.target_faults));
  field("warmup_rounds", std::to_string(config.warmup_rounds));
  field("gap_rounds", std::to_string(config.gap_rounds));
  field("seed", std::to_string(config.seed));
  field("workload_iterations", std::to_string(config.workload_iterations));
  field("shards", std::to_string(config.shards));
  field("mode", config.mode == CampaignMode::kSnapshotFork ? "fork" : "reexec");
  if (job.vuln) {
    field("horizon", std::to_string(config.horizon));
    field("root_cause", config.root_cause ? "1" : "0");
    std::vector<u32> components;
    for (Component c : config.components) components.push_back(static_cast<u32>(c));
    field("components", csv(components));
  }
  const std::string path = job.dist.dir + "/" + job.dist.run_label + "_worker_" +
                           std::to_string(worker) + ".spec";
  const io::ArchiveError err = io::write_file_atomic(path, spec.data(), spec.size());
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
/// scan → partition pending shards over workers → fork (or fork+exec) → wait
/// → rescan → merge in shard order → journal. `merged` receives the
/// completed shards merged in ascending shard-index order (the in-process
/// fold order).
template <typename Result>
DistributedOutcome drive(const workloads::WorkloadProfile& profile,
                         const soc::SocConfig& soc_config, const VulnConfig& config,
                         const DistributedConfig& dist, Result& merged) {
  WorkerSpec job;
  job.vuln = std::is_same_v<Result, VulnReport>;
  job.profile = &profile;
  job.soc_config = soc_config;
  job.dist = dist;
  job.config = config;
  FLEX_CHECK_MSG(dist.workers >= 1,
                 "distributed campaign: workers must be >= 1");
  FLEX_CHECK_MSG(!dist.dir.empty(), "distributed campaign: dir must be set");
  // Exec-mode specs carry the platform as a core count, and workers rebuild
  // SocConfig::paper_default(cores) from it. Any other platform would run
  // silently as the paper default, so it is refused up front.
  const soc::SocConfig shipped = soc::SocConfig::paper_default(job.soc_config.num_cores);
  FLEX_CHECK_MSG(!dist.use_exec || job.soc_config.fingerprint() == shipped.fingerprint(),
                 "distributed campaign: exec-mode workers run only "
                 "SocConfig::paper_default platforms; use fork mode");
  std::error_code ec;
  std::filesystem::create_directories(dist.dir, ec);

  const u8 kind = kind_of(job);
  const u32 shards = static_cast<u32>(
      detail::shard_quotas(job.config.target_faults, job.config.shards).size());
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
      job.assigned = plan[w];
      if (dist.use_exec) {
        const std::string spec = write_worker_spec(job, w);
        execl(dist.exe.c_str(), dist.exe.c_str(), "--campaign-worker",
              spec.c_str(), static_cast<char*>(nullptr));
        std::fprintf(stderr, "campaign worker: exec %s failed\n",
                     dist.exe.c_str());
        _exit(127);
      }
      _exit(run_assigned<Result>(job));
    }
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
  VulnConfig config;
  static_cast<CampaignConfig&>(config) = campaign;
  DistributedCampaignResult result;
  result.run = drive(profile, soc_config, config, dist, result.stats);
  return result;
}

DistributedVulnResult run_distributed_vuln_campaign(
    const workloads::WorkloadProfile& profile, const soc::SocConfig& soc_config,
    const VulnConfig& config, const DistributedConfig& dist) {
  DistributedVulnResult result;
  result.run = drive(profile, soc_config, config, dist, result.report);
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

  VulnConfig& config = spec.config;
  const std::string mode = in.text("mode");
  if (!mode.empty() && mode != "fork" && mode != "reexec") {
    in.fail("mode: expected fork or reexec, got '" + mode + "'");
  }
  config.mode = mode == "reexec" ? CampaignMode::kWarmupReexecution
                                 : CampaignMode::kSnapshotFork;
  config.engine = static_cast<soc::Engine>(
      in.number("engine", static_cast<u64>(soc::Engine::kQuantum), 0,
                static_cast<u64>(soc::Engine::kQuantumBounded)));
  constexpr u64 kU32Max = ~u32{0};
  constexpr u64 kU64Max = ~u64{0};
  config.target_faults = static_cast<u32>(in.number("target_faults", 0, 1, kU32Max));
  config.warmup_rounds = in.number("warmup_rounds", 0, 1, kU64Max);
  config.gap_rounds = in.number("gap_rounds", 0, 1, kU64Max);
  config.seed = in.number("seed", 0, 0, kU64Max);
  config.workload_iterations =
      static_cast<u32>(in.number("workload_iterations", 0, 0, kU32Max));
  config.shards = static_cast<u32>(in.number("shards", 1, 1, kU32Max));
  // detail::shard_quotas runs min(shards, target_faults) shards.
  spec.assigned = in.list("assigned", std::min(config.shards, config.target_faults));
  if (spec.vuln) {
    config.horizon = in.number("horizon", 0, 1, kU64Max);
    config.root_cause = in.number("root_cause", 0, 0, 1) != 0;
    for (u32 c : in.list("components", kComponentCount)) {
      config.components.push_back(static_cast<Component>(c));
    }
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
  return spec.vuln ? run_assigned<VulnReport>(spec) : run_assigned<CampaignStats>(spec);
}

}  // namespace flexstep::fault
