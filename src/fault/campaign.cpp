#include "fault/campaign.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "common/archive.h"
#include "common/check.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "fault/vuln.h"
#include "runtime/parallel.h"
#include "sim/scenario.h"
#include "soc/snapshot.h"

namespace flexstep::fault {

void OutcomeTally::add(OutcomeKind kind) {
  ++injected;
  switch (kind) {
    case OutcomeKind::kMasked: ++masked; break;
    case OutcomeKind::kDetected: ++detected; break;
    case OutcomeKind::kSdc: ++sdc; break;
    case OutcomeKind::kDue: ++due; break;
  }
}

void OutcomeTally::merge(const OutcomeTally& other) {
  injected += other.injected;
  masked += other.masked;
  detected += other.detected;
  sdc += other.sdc;
  due += other.due;
  FLEX_CHECK_MSG(masked + detected + sdc + due == injected,
                 "campaign classification invariant violated: "
                 "masked + detected + sdc + due != injected");
}

std::vector<double> CampaignStats::latencies_us() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o.detected) out.push_back(o.latency_us);
  }
  return out;
}

void CampaignStats::record(const FaultOutcome& outcome) {
  add(outcome.kind);
  outcomes.push_back(outcome);
}

void CampaignStats::merge(CampaignStats&& shard) {
  OutcomeTally::merge(shard);
  total_instructions += shard.total_instructions;
  outcomes.insert(outcomes.end(), shard.outcomes.begin(), shard.outcomes.end());
}

u64 CampaignStats::digest() const {
  Fnv1a h;
  for (const FaultOutcome& o : outcomes) {
    h.word(o.detected ? 1 : 0);
    h.word(std::bit_cast<u64>(o.latency_us));
    h.word(static_cast<u64>(o.detect_kind));
    h.word(static_cast<u64>(o.target_kind));
    h.word(static_cast<u64>(o.kind));
  }
  return h.value();
}

template <class Ar>
void CampaignStats::transfer(Ar& ar) {
  if constexpr (Ar::kReading) *this = CampaignStats{};
  ar.vector(outcomes, 12, [&](FaultOutcome& o) {
    ar.boolean(o.detected);
    ar.f64(o.latency_us);
    ar.enumeration(o.detect_kind, fs::DetectKind::kStructural,
                   "fault outcome detect kind out of domain");
    ar.enumeration(o.target_kind, fs::StreamItem::Kind::kSegmentEnd,
                   "fault outcome target kind out of domain");
    ar.enumeration(o.kind, OutcomeKind::kDue, "fault outcome kind out of domain");
    if constexpr (Ar::kReading) add(o.kind);
  });
  ar.varint(total_instructions);
}

void CampaignStats::serialize(io::ArchiveWriter& ar) const {
  const_cast<CampaignStats*>(this)->transfer(ar);
}

void CampaignStats::deserialize(io::ArchiveReader& ar) { transfer(ar); }

namespace {

/// Deterministic pacing jitter added to the warmup and to each inter-fault
/// gap. Without it every injection lands on the same grid of the baseline's
/// wait stride at the same program phase in every shard, which biases which
/// state sits at the injection point. Odd bounds so the jitter breaks it.
constexpr u64 kWarmupJitter = 4099;
constexpr u64 kGapJitter = 257;

/// Consecutive sessions allowed to die inside the warmup before the campaign
/// aborts instead of silently looping on a pathological profile.
constexpr u32 kMaxWarmupRetries = 16;

/// A BaselineStore hit is honoured only on an exact tag match, so stale
/// files from another configuration re-warm instead of corrupting the
/// campaign. The tag fingerprints everything a warmed baseline's state
/// depends on: workload identity + build seed, shard seeding, exact warmup
/// length, every SocConfig field, engine, and the kind's salt for what its
/// scenario adds beyond these.
u64 baseline_tag(const workloads::WorkloadProfile& profile,
                 const soc::SocConfig& soc_config,
                 const CampaignConfig& campaign, u32 shard_index,
                 u64 session_seed, u64 warmup_rounds, u64 salt) {
  Fnv1a h;
  h.text(profile.name);
  h.word(campaign.seed);
  h.word(shard_index);
  h.word(session_seed);
  h.word(warmup_rounds);
  h.word(campaign.workload_iterations);
  h.word(soc_config.fingerprint());
  h.word(static_cast<u64>(campaign.engine));
  h.word(salt);
  return h.value();
}

/// Corrupt the tail of `victim`'s DBC stream and run until the fault resolves:
/// detected (attributed reporter event) or masked (the corrupted item's
/// segment verified clean, or the run drained). The victim stops at the first
/// round end where one of these holds; the caller rewinds it before it runs
/// again.
FaultOutcome run_injection(sim::Session& victim, Rng& rng) {
  fs::Channel* ch = victim.channel();
  FLEX_CHECK(ch != nullptr);
  // Corrupt at the forwarding path (the most recently produced item), as the
  // paper's campaign does — latency then spans the full buffering and replay
  // pipeline. The baseline guaranteed a queued item before materialising us.
  const auto fault = ch->inject_fault_at_tail(rng, victim.soc().max_cycle());
  FLEX_CHECK_MSG(fault.has_value(), "injection point had no queued stream item");
  const auto& events = victim.reporter().events();
  const std::size_t events_before = events.size();

  const auto detection = [&]() -> const fs::DetectionEvent* {
    for (std::size_t i = events_before; i < events.size(); ++i) {
      if (events[i].attributed) return &events[i];
    }
    return nullptr;
  };
  // Only the reporter clears a pending fault (attributing an event as it
  // does); a fault cleared without one resolves the run all the same.
  victim.advance(~u64{0}, [&] {
    return detection() != nullptr || !ch->fault_pending() ||
           (ch->pending_fault().segment_end_seq != fs::kUnresolvedSegmentEnd &&
            ch->last_popped_seq() > ch->pending_fault().segment_end_seq);
  });

  // Detection first: one round can land both the detection and a clean pop.
  FaultOutcome outcome;
  outcome.target_kind = fault->item_kind;
  if (const fs::DetectionEvent* event = detection()) {
    outcome.detected = true;
    outcome.latency_us = cycles_to_us(event->latency);
    outcome.detect_kind = event->kind;
    outcome.kind = OutcomeKind::kDetected;
  } else if (ch->fault_pending()) {
    // The corrupted segment verified clean, or execution drained with the
    // stream fully consumed: masked.
    ch->clear_fault();
  }
  return outcome;
}

}  // namespace

namespace detail {

std::vector<u32> shard_quotas(u32 target_faults, u32 shards) {
  // Shards beyond target_faults would all get a zero quota, so capping here
  // changes no outcome — it only bounds the allocations.
  const u32 n = std::min<u32>(shards, target_faults);
  std::vector<u32> quota(n);
  for (u32 s = 0; s < n; ++s) {
    quota[s] = target_faults / n + (s < target_faults % n ? 1 : 0);
  }
  return quota;
}

u64 walk_shard(const workloads::WorkloadProfile& profile,
               const soc::SocConfig& soc_config, const CampaignConfig& campaign,
               u32 shard_index, u32 target_faults, BaselineStore* baselines,
               const ShardKind& kind, std::string* error) {
  Rng shard_rng = runtime::stream_rng(campaign.seed, shard_index);
  Rng rng = shard_rng.split();               // fault-placement draws
  Rng pace_rng = shard_rng.split();          // warmup/gap pacing jitter
  u64 session_seed = shard_rng.next_u64();   // workload-build seeds

  const bool fork_mode = campaign.mode == CampaignMode::kSnapshotFork;
  // Stores only engage in fork mode: re-execution victims replay the
  // baseline's advance schedule, which a restored baseline never executed.
  BaselineStore* store = fork_mode ? baselines : nullptr;
  u64 executed = 0;
  u32 injected = 0;
  u32 failed_warmups = 0;
  u32 ordinal = 0;  ///< Successful warmups so far — the store key.

  while (injected < target_faults) {
    // One long-running workload execution (so one baseline hosts many
    // injection points) under dual-core verification.
    sim::Scenario scenario;
    scenario.workload(profile)
        .seed(++session_seed)
        .iterations(campaign.workload_iterations != 0 ? campaign.workload_iterations
                                                      : profile.iterations * 40)
        .soc(soc_config)
        .main_core(0)
        .checkers({1})
        .tolerate_stall(kind.tolerate_stall)
        .engine(campaign.engine);
    sim::Session baseline = scenario.build();
    // Every baseline advance is recorded so the re-execution mode can replay
    // the exact prefix; the fork mode snapshots its end state instead.
    std::vector<u64> schedule;
    auto baseline_advance = [&](u64 rounds) {
      schedule.push_back(rounds);
      return baseline.advance(rounds);
    };

    // The warmup draw happens unconditionally (the pace_rng stream must not
    // depend on store hits), and its length is part of the baseline tag.
    const u64 warmup = campaign.warmup_rounds + pace_rng.next_below(kWarmupJitter);
    u64 baseline_restored = 0;  ///< Instret restored (not executed) from the store.
    bool warm = false;
    if (store != nullptr) {
      const u64 tag = baseline_tag(profile, soc_config, campaign, shard_index,
                                   session_seed, warmup, kind.salt);
      if (store->try_load(shard_index, ordinal, tag, baseline)) {
        baseline_restored = baseline.total_instret();
        warm = true;
      } else if ((warm = baseline_advance(warmup))) {
        store->save(shard_index, ordinal, tag, baseline);
      }
      if (warm) ++ordinal;
    } else {
      warm = baseline_advance(warmup);
    }
    if (!warm) {
      executed += baseline.total_instret();
      if (++failed_warmups == kMaxWarmupRetries) {
        const std::string message =
            std::string(kind.name) +
            ": workload exhausts before warmup_rounds completes (profile too "
            "short) — raise workload_iterations or lower warmup_rounds";
        FLEX_CHECK_MSG(error != nullptr, message.c_str());
        *error = message;
        return executed;
      }
      continue;  // next seed builds a fresh (differently shaped) workload
    }
    failed_warmups = 0;

    // The baseline's injections share one fork-mode victim, forked at the
    // first and rewound in place (Session::restore, which reuses its SoC) for
    // every later one, and one golden session, forked at the first injection
    // that asks for it and never rewound.
    soc::Snapshot pre_fault;
    std::optional<sim::Session> victim;
    std::optional<sim::Session> golden_session;
    const std::function<sim::Session&()> golden = [&]() -> sim::Session& {
      if (!golden_session.has_value()) golden_session.emplace(victim->fork(pre_fault));
      return *golden_session;
    };

    bool session_alive = true;
    while (session_alive && injected < target_faults) {
      // Waiting happens on the baseline, so the rng draw stream is the same
      // in both materialisation modes.
      fs::Channel* ch = baseline.channel();
      if (ch == nullptr) break;
      while (!kind.ready(*ch, injected)) {
        if (!(session_alive = baseline_advance(kind.wait_stride))) break;
      }
      if (!session_alive) break;

      // Materialise the victim and its pre-fault state: the baseline's
      // snapshot the victim is rewound to, or the re-executed victim's own.
      if (fork_mode) {
        pre_fault = baseline.snapshot();
        if (victim.has_value()) {
          victim->restore(pre_fault);
        } else {
          victim.emplace(baseline.fork(pre_fault));
        }
      } else {
        victim.emplace(scenario.build());
        for (u64 rounds : schedule) victim->advance(rounds);
        executed += victim->total_instret();  // the re-executed prefix
        pre_fault = victim->snapshot();
      }
      executed += kind.inject(*victim, pre_fault, golden, rng, injected++);

      // Advance the clean baseline to the next injection point.
      session_alive = baseline_advance(campaign.gap_rounds +
                                       pace_rng.next_below(kGapJitter));
    }
    executed += baseline.total_instret() - baseline_restored;
  }
  return executed;
}

void validate_campaign(const CampaignConfig& campaign, const char* name) {
  // A zero in any of these silently degenerates the campaign (no shards to
  // run, nothing to inject, or injection points all landing at cycle 0) —
  // fail loudly instead of producing an empty report.
  const auto fail = [name](const char* what) { return std::string(name) + ": " + what; };
  FLEX_CHECK_MSG(campaign.shards >= 1, fail("shards must be >= 1 (got 0)").c_str());
  FLEX_CHECK_MSG(campaign.target_faults > 0, fail("target_faults must be > 0").c_str());
  FLEX_CHECK_MSG(campaign.warmup_rounds > 0 && campaign.gap_rounds > 0,
                 fail("warmup_rounds and gap_rounds must be nonzero").c_str());
}

template <typename Result>
Result run_shards(const CampaignConfig& campaign, const char* name,
                  const std::function<Result(u32 shard, u32 quota, u32 first)>& run_shard) {
  validate_campaign(campaign, name);
  // The split depends only on the config and is shared with the
  // multi-process driver (fault/distributed.h).
  const std::vector<u32> quota = shard_quotas(campaign.target_faults, campaign.shards);
  std::vector<u32> first(quota.size(), 0);
  for (std::size_t s = 1; s < quota.size(); ++s) first[s] = first[s - 1] + quota[s - 1];

  const auto shard_job = [&](std::size_t s) {
    return run_shard(static_cast<u32>(s), quota[s], first[s]);
  };
  const auto fold = [](Result& acc, Result&& part) { acc.merge(std::move(part)); };
  if (campaign.threads != 0) {
    runtime::JobPool pool(campaign.threads);
    return runtime::parallel_accumulate(pool, quota.size(), Result{}, shard_job, fold);
  }
  return runtime::parallel_accumulate(quota.size(), Result{}, shard_job, fold);
}

template CampaignStats run_shards(
    const CampaignConfig&, const char*,
    const std::function<CampaignStats(u32, u32, u32)>&);
template VulnReport run_shards(const CampaignConfig&, const char*,
                               const std::function<VulnReport(u32, u32, u32)>&);

CampaignStats run_campaign_shard(const workloads::WorkloadProfile& profile,
                                 const soc::SocConfig& soc_config,
                                 const CampaignConfig& campaign, u32 shard_index,
                                 u32 target_faults, BaselineStore* baselines,
                                 std::string* error) {
  CampaignStats stats;
  ShardKind kind;
  kind.name = kCampaignName;
  kind.wait_stride = 512;
  // The injection corrupts the most recently forwarded item; one must be
  // queued at the injection point.
  kind.ready = [](const fs::Channel& ch, u32) { return !ch.empty(); };
  kind.inject = [&stats](sim::Session& victim, const soc::Snapshot&,
                         const std::function<sim::Session&()>&, Rng& rng, u32) {
    const u64 before = victim.total_instret();
    stats.record(run_injection(victim, rng));
    return victim.total_instret() - before;
  };
  stats.total_instructions = walk_shard(profile, soc_config, campaign, shard_index,
                                        target_faults, baselines, kind, error);
  return stats;
}

}  // namespace detail

CampaignStats run_fault_campaign(const workloads::WorkloadProfile& profile,
                                 const soc::SocConfig& soc_config,
                                 const CampaignConfig& campaign) {
  return detail::run_shards<CampaignStats>(
      campaign, detail::kCampaignName, [&](u32 shard, u32 quota, u32) {
        return detail::run_campaign_shard(profile, soc_config, campaign, shard, quota);
      });
}

}  // namespace flexstep::fault
