#include "fault/campaign.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/archive.h"
#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel.h"
#include "sim/scenario.h"

namespace flexstep::fault {

using fs::Channel;

std::vector<double> CampaignStats::latencies_us() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o.detected) out.push_back(o.latency_us);
  }
  return out;
}

void CampaignStats::record(const FaultOutcome& outcome) {
  ++injected;
  switch (outcome.kind) {
    case OutcomeKind::kDetected:
      ++detected;
      break;
    case OutcomeKind::kMasked:
      ++masked;
      ++undetected;
      break;
    case OutcomeKind::kSdc:
      ++sdc;
      ++undetected;
      break;
    case OutcomeKind::kDue:
      ++due;
      ++undetected;
      break;
  }
  outcomes.push_back(outcome);
}

void CampaignStats::merge(CampaignStats&& shard) {
  injected += shard.injected;
  detected += shard.detected;
  undetected += shard.undetected;
  masked += shard.masked;
  sdc += shard.sdc;
  due += shard.due;
  total_instructions += shard.total_instructions;
  outcomes.insert(outcomes.end(), shard.outcomes.begin(), shard.outcomes.end());
  FLEX_CHECK_MSG(masked + detected + sdc + due == injected,
                 "campaign classification invariant violated: "
                 "masked + detected + sdc + due != injected");
}

u64 CampaignStats::digest() const {
  u64 h = 14695981039346656037ULL;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const FaultOutcome& o : outcomes) {
    mix(o.detected ? 1 : 0);
    u64 latency_bits = 0;
    std::memcpy(&latency_bits, &o.latency_us, sizeof(latency_bits));
    mix(latency_bits);
    mix(static_cast<u64>(o.detect_kind));
    mix(static_cast<u64>(o.target_kind));
    mix(static_cast<u64>(o.kind));
  }
  return h;
}

void CampaignStats::serialize(io::ArchiveWriter& ar) const {
  ar.put_varint(outcomes.size());
  for (const FaultOutcome& o : outcomes) {
    ar.put_bool(o.detected);
    ar.put_f64(o.latency_us);
    ar.put_u8(static_cast<u8>(o.detect_kind));
    ar.put_u8(static_cast<u8>(o.target_kind));
    ar.put_u8(static_cast<u8>(o.kind));
  }
  ar.put_varint(total_instructions);
}

void CampaignStats::deserialize(io::ArchiveReader& ar) {
  *this = CampaignStats{};
  const u64 count = ar.take_count(12);
  for (u64 i = 0; ar.ok() && i < count; ++i) {
    FaultOutcome o;
    o.detected = ar.take_bool();
    o.latency_us = ar.take_f64();
    const u8 detect = ar.take_u8();
    const u8 target = ar.take_u8();
    const u8 kind = ar.take_u8();
    if (ar.ok() && (detect > static_cast<u8>(fs::DetectKind::kStructural) ||
                    target > static_cast<u8>(fs::StreamItem::Kind::kSegmentEnd) ||
                    kind > static_cast<u8>(OutcomeKind::kDue))) {
      ar.fail(io::ArchiveStatus::kMalformed, "fault outcome kind out of domain");
    }
    o.detect_kind = static_cast<fs::DetectKind>(detect);
    o.target_kind = static_cast<fs::StreamItem::Kind>(target);
    o.kind = static_cast<OutcomeKind>(kind);
    if (ar.ok()) record(o);
  }
  total_instructions = ar.take_varint();
}

namespace {

/// Instructions advanced between fault-resolution probes.
constexpr u64 kResolvePollStride = 64;

/// Deterministic pacing jitter added to the warmup and to each inter-fault
/// gap. Without it every injection lands on the same kResolvePollStride grid
/// at the same program phase in every shard, which biases which stream-item
/// kind sits at the channel tail. Odd bounds so the jitter breaks the
/// 64-instruction poll grid.
constexpr u64 kWarmupJitter = 4099;
constexpr u64 kGapJitter = 257;

/// Consecutive sessions allowed to die inside the warmup before the campaign
/// aborts instead of silently looping on a pathological profile.
constexpr u32 kMaxWarmupRetries = 16;

/// The shared session shape: one long-running workload execution (so one
/// baseline hosts many injection points) under dual-core verification.
sim::Scenario campaign_scenario(const workloads::WorkloadProfile& profile,
                                const soc::SocConfig& soc_config,
                                const CampaignConfig& campaign, u64 seed) {
  sim::Scenario scenario;
  scenario.workload(profile)
      .seed(seed)
      .iterations(campaign.workload_iterations != 0 ? campaign.workload_iterations
                                                    : profile.iterations * 40)
      .soc(soc_config)
      .main_core(0)
      .checkers({1})
      .engine(campaign.engine);
  return scenario;
}

/// Corrupt the tail of `victim`'s DBC stream and run until the fault resolves:
/// detected (attributed reporter event) or masked (the corrupted item's
/// segment verified clean, or the run drained). The victim is disposable;
/// the caller never advances it again.
FaultOutcome run_injection(sim::Session& victim, Rng& rng) {
  Channel* ch = victim.channel();
  FLEX_CHECK(ch != nullptr);
  // Corrupt at the forwarding path (the most recently produced item), as the
  // paper's campaign does — latency then spans the full buffering and replay
  // pipeline. The baseline guaranteed a queued item before materialising us.
  const auto fault = ch->inject_fault_at_tail(rng, victim.soc().max_cycle());
  FLEX_CHECK_MSG(fault.has_value(), "injection point had no queued stream item");
  const std::size_t events_before = victim.reporter().events().size();

  FaultOutcome outcome;
  outcome.target_kind = fault->item_kind;
  bool resolved = false;
  while (!resolved) {
    // Resolution conditions are sticky (reporter events accumulate, pop
    // sequence numbers are monotone), so the quantum engine may advance a
    // short burst between probes without missing an outcome; detection
    // latency itself is timestamped by the reporter, not by this poll.
    const bool alive = victim.advance(kResolvePollStride);
    const auto& events = victim.reporter().events();
    for (std::size_t i = events_before; i < events.size(); ++i) {
      if (events[i].attributed) {
        outcome.detected = true;
        outcome.latency_us = cycles_to_us(events[i].latency);
        outcome.detect_kind = events[i].kind;
        outcome.kind = OutcomeKind::kDetected;
        resolved = true;
        break;
      }
    }
    if (!resolved && !ch->fault_pending()) {
      // Cleared without an attributed event cannot happen (only the reporter
      // clears); guard anyway.
      resolved = true;
    }
    if (!resolved && ch->fault_pending() &&
        ch->pending_fault().segment_end_seq != fs::kUnresolvedSegmentEnd &&
        ch->last_popped_seq() > ch->pending_fault().segment_end_seq) {
      // The segment containing the corruption verified clean: masked.
      ch->clear_fault();
      resolved = true;
    }
    if (!alive) {
      // Execution drained with the fault still pending: if the stream is
      // fully consumed, the fault was masked.
      if (ch->fault_pending()) ch->clear_fault();
      resolved = true;
    }
  }
  return outcome;
}

}  // namespace

namespace detail {

/// A BaselineStore hit is honoured only on an exact tag match, so stale
/// files from another configuration re-warm instead of corrupting the
/// campaign.
u64 baseline_tag(const workloads::WorkloadProfile& profile,
                 const soc::SocConfig& soc_config,
                 const CampaignConfig& campaign, u32 shard_index,
                 u64 session_seed, u64 warmup_rounds, u64 salt) {
  u64 h = 14695981039346656037ULL;
  const auto mix_bytes = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix = [&](u64 v) { mix_bytes(&v, sizeof(v)); };
  mix_bytes(profile.name.data(), profile.name.size());
  mix(campaign.seed);
  mix(shard_index);
  mix(session_seed);
  mix(warmup_rounds);
  mix(campaign.workload_iterations);
  mix(soc_config.fingerprint());
  mix(static_cast<u64>(campaign.engine));
  mix(salt);
  return h;
}

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

/// One shard: a clean baseline session walks warmup + inter-injection gaps;
/// every injection runs in a disposable session materialised at the baseline's
/// current state — restored from a snapshot (kSnapshotFork) or re-executed
/// from scratch (kWarmupReexecution). Everything random derives from
/// (campaign.seed, shard_index), so a shard's outcome stream is independent
/// of which thread or process runs it — and of the materialisation mode.
CampaignStats run_campaign_shard(const workloads::WorkloadProfile& profile,
                                 const soc::SocConfig& soc_config,
                                 const CampaignConfig& campaign, u32 shard_index,
                                 u32 target_faults, BaselineStore* baselines) {
  CampaignStats stats;
  Rng shard_rng = runtime::stream_rng(campaign.seed, shard_index);
  Rng rng = shard_rng.split();               // fault-placement draws
  Rng pace_rng = shard_rng.split();          // warmup/gap pacing jitter
  u64 session_seed = shard_rng.next_u64();   // workload-build seeds

  const bool fork_mode = campaign.mode == CampaignMode::kSnapshotFork;
  // Stores only engage in fork mode: re-execution victims replay the
  // baseline's advance schedule, which a restored baseline never executed.
  BaselineStore* store = fork_mode ? baselines : nullptr;
  u32 failed_warmups = 0;
  u32 ordinal = 0;  ///< Successful warmups so far — the store key.

  while (stats.injected < target_faults) {
    const sim::Scenario scenario =
        campaign_scenario(profile, soc_config, campaign, ++session_seed);
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
                                   session_seed, warmup, /*salt=*/0);
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
      stats.total_instructions += baseline.total_instret();
      ++failed_warmups;
      FLEX_CHECK_MSG(failed_warmups < kMaxWarmupRetries,
                     "fault campaign: workload exhausts before warmup_rounds "
                     "completes (profile too short) — raise workload_iterations "
                     "or lower warmup_rounds");
      continue;  // next seed builds a fresh (differently shaped) workload
    }
    failed_warmups = 0;

    bool session_alive = true;
    while (session_alive && stats.injected < target_faults) {
      // The injection corrupts the most recently forwarded item; make sure
      // one is queued at the baseline's injection point.
      Channel* ch = baseline.channel();
      if (ch == nullptr) break;
      while (ch->empty()) {
        if (!(session_alive = baseline_advance(512))) break;
      }
      if (!session_alive) break;

      // Materialise the disposable pre-injection session.
      sim::Session victim = fork_mode ? baseline.fork() : scenario.build();
      u64 restored_instructions = 0;
      if (fork_mode) {
        restored_instructions = victim.total_instret();  // restored, not executed
      } else {
        for (u64 rounds : schedule) victim.advance(rounds);
      }

      const FaultOutcome outcome = run_injection(victim, rng);
      stats.record(outcome);
      stats.total_instructions += victim.total_instret() - restored_instructions;

      // Advance the clean baseline to the next injection point.
      session_alive = baseline_advance(campaign.gap_rounds +
                                       pace_rng.next_below(kGapJitter));
    }
    stats.total_instructions += baseline.total_instret() - baseline_restored;
  }
  return stats;
}

}  // namespace detail

CampaignStats run_fault_campaign(const workloads::WorkloadProfile& profile,
                                 const soc::SocConfig& soc_config,
                                 const CampaignConfig& campaign) {
  // Validate up front: a zero in any of these silently degenerates the
  // campaign (no shards to run, nothing to inject, or injection points all
  // landing at cycle 0) — fail loudly instead of producing an empty report.
  FLEX_CHECK_MSG(campaign.shards >= 1,
                 "fault campaign: shards must be >= 1 (got 0)");
  FLEX_CHECK_MSG(campaign.target_faults > 0,
                 "fault campaign: target_faults must be > 0");
  FLEX_CHECK_MSG(campaign.warmup_rounds > 0 && campaign.gap_rounds > 0,
                 "fault campaign: warmup_rounds and gap_rounds need a nonzero "
                 "horizon");
  // Shard quotas: target_faults split as evenly as possible, the remainder
  // going to the lowest shard indices. The split depends only on the config
  // and is shared with the multi-process driver (fault/distributed.h).
  const std::vector<u32> quota =
      detail::shard_quotas(campaign.target_faults, campaign.shards);
  const u32 shards = static_cast<u32>(quota.size());

  auto shard_job = [&](std::size_t s) {
    return quota[s] == 0
               ? CampaignStats{}
               : detail::run_campaign_shard(profile, soc_config, campaign,
                                            static_cast<u32>(s), quota[s]);
  };
  auto fold = [](CampaignStats& acc, CampaignStats&& part) {
    acc.merge(std::move(part));
  };
  if (campaign.threads != 0) {
    runtime::JobPool pool(campaign.threads);
    return runtime::parallel_accumulate(pool, shards, CampaignStats{}, shard_job, fold);
  }
  return runtime::parallel_accumulate(shards, CampaignStats{}, shard_job, fold);
}

}  // namespace flexstep::fault
