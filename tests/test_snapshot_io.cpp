// Wire-format robustness for the FXAR archive container and the snapshot /
// campaign checkpoint formats built on it, plus the multi-process resumable
// campaign driver.
//
// The contracts under test:
//   * Primitive and structure round-trips are bit-exact (re-serializing a
//     decoded snapshot reproduces the identical byte buffer).
//   * Every byte of a well-formed archive is covered by a check: a
//     deterministic single-bit corruption sweep must reject EVERY flip with a
//     structured error — never a crash, never a silent wrong decode.
//   * Truncation at any prefix and version skew are structured errors.
//   * The encoding is pinned to the format version, and every value has one
//     encoding: a resealed mutation (CRC recomputed) either fails with a
//     structured error or decodes to something that re-encodes to itself,
//     and restoring it never aborts.
//   * A two-worker multi-process campaign merges digest-identical to the
//     single-process run, including after a worker dies mid-shard and the
//     campaign is resumed, and warm reruns elide persisted warmups — but
//     never restore a baseline warmed on another SocConfig, and re-warm a
//     damaged one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "common/archive.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "fault/campaign.h"
#include "fault/distributed.h"
#include "fault/vuln.h"
#include "sim/scenario.h"
#include "soc/snapshot.h"

namespace flexstep {
namespace {

using io::ArchiveReader;
using io::ArchiveStatus;
using io::ArchiveWriter;

constexpr u32 kTestTag = 0x54534554;  // "TEST"

TEST(Archive, PrimitiveRoundTrip) {
  ArchiveWriter w(kTestTag, 3);
  w.begin_section(1);
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_bool(true);
  w.put_bool(false);
  w.put_f64(-2.5);
  w.end_section();
  w.begin_section(2);
  w.put_varint(0);
  w.put_varint(127);
  w.put_varint(128);
  w.put_varint(0xFFFFFFFFFFFFFFFFULL);
  const u8 raw[5] = {1, 2, 3, 4, 5};
  w.put_bytes(raw, sizeof(raw));
  w.end_section();

  const auto& buf = w.buffer();
  ArchiveReader r(buf.data(), buf.size(), kTestTag, 3);
  ASSERT_TRUE(r.begin_section(1));
  EXPECT_EQ(r.take_u8(), 0xAB);
  EXPECT_EQ(r.take_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.take_u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.take_bool());
  EXPECT_FALSE(r.take_bool());
  EXPECT_EQ(r.take_f64(), -2.5);
  r.end_section();
  ASSERT_TRUE(r.begin_section(2));
  EXPECT_EQ(r.take_varint(), 0u);
  EXPECT_EQ(r.take_varint(), 127u);
  EXPECT_EQ(r.take_varint(), 128u);
  EXPECT_EQ(r.take_varint(), 0xFFFFFFFFFFFFFFFFULL);
  u8 got[5] = {};
  r.take_bytes(got, sizeof(got));
  EXPECT_EQ(std::memcmp(got, raw, sizeof(raw)), 0);
  r.end_section();
  EXPECT_TRUE(r.ok()) << r.error().message();
}

TEST(Archive, RejectsWrongTagAndVersion) {
  ArchiveWriter w(kTestTag, 3);
  w.begin_section(1);
  w.put_u64(42);
  w.end_section();
  const auto& buf = w.buffer();

  ArchiveReader wrong_tag(buf.data(), buf.size(), kTestTag + 1, 3);
  EXPECT_EQ(wrong_tag.error().status, ArchiveStatus::kBadMagic);

  ArchiveReader wrong_version(buf.data(), buf.size(), kTestTag, 4);
  EXPECT_EQ(wrong_version.error().status, ArchiveStatus::kVersionSkew);
  // The skew message names both versions so campaign logs are actionable.
  EXPECT_NE(wrong_version.error().message().find("3"), std::string::npos);
  EXPECT_NE(wrong_version.error().message().find("4"), std::string::npos);
}

TEST(Archive, SectionOrderAndOverconsumptionAreStructured) {
  ArchiveWriter w(kTestTag, 1);
  w.begin_section(7);
  w.put_u32(5);
  w.end_section();
  const auto& buf = w.buffer();

  ArchiveReader wrong_id(buf.data(), buf.size(), kTestTag, 1);
  EXPECT_FALSE(wrong_id.begin_section(8));
  EXPECT_EQ(wrong_id.error().status, ArchiveStatus::kMalformed);

  // A decoder that reads past the payload gets kTruncated, zeros, no crash.
  ArchiveReader over(buf.data(), buf.size(), kTestTag, 1);
  ASSERT_TRUE(over.begin_section(7));
  EXPECT_EQ(over.take_u32(), 5u);
  EXPECT_EQ(over.take_u64(), 0u);
  EXPECT_EQ(over.error().status, ArchiveStatus::kTruncated);

  // A decoder that consumes less than the payload is caught at end_section.
  ArchiveReader under(buf.data(), buf.size(), kTestTag, 1);
  ASSERT_TRUE(under.begin_section(7));
  under.end_section();
  EXPECT_EQ(under.error().status, ArchiveStatus::kMalformed);
}

TEST(Archive, CountValidationBlocksGiantAllocations) {
  ArchiveWriter w(kTestTag, 1);
  w.begin_section(1);
  w.put_varint(1u << 20);  // claims 2^20 elements in a near-empty payload
  w.end_section();
  const auto& buf = w.buffer();
  ArchiveReader r(buf.data(), buf.size(), kTestTag, 1);
  ASSERT_TRUE(r.begin_section(1));
  EXPECT_EQ(r.take_count(8), 0u);
  EXPECT_EQ(r.error().status, ArchiveStatus::kMalformed);
}

TEST(Archive, EveryVarintHasOneEncoding) {
  // A zero-padded tail, or a tenth byte carrying bits past 2^64, would give a
  // value a second encoding; both are kMalformed. 2^64 - 1 itself decodes.
  const std::vector<std::vector<u8>> cases = {
      {0x80, 0x00},
      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ArchiveWriter w(kTestTag, 1);
    w.begin_section(1);
    w.put_bytes(cases[c].data(), cases[c].size());
    w.end_section();
    ArchiveReader r(w.buffer().data(), w.buffer().size(), kTestTag, 1);
    ASSERT_TRUE(r.begin_section(1));
    const u64 v = r.take_varint();
    if (c + 1 < cases.size()) {
      EXPECT_EQ(r.error().status, ArchiveStatus::kMalformed) << "case " << c;
    } else {
      EXPECT_TRUE(r.ok()) << r.error().message();
      EXPECT_EQ(v, ~u64{0});
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot wire form
// ---------------------------------------------------------------------------

sim::Session warmed_session() {
  sim::Scenario scenario;
  scenario.workload("swaptions").seed(11).iterations(400).dual();
  sim::Session session = scenario.build();
  EXPECT_TRUE(session.advance(5'000));
  return session;
}

std::vector<u8> snapshot_bytes(const soc::Snapshot& snap) {
  ArchiveWriter w(soc::kSnapshotAppTag, soc::kSnapshotFormatVersion);
  snap.serialize(w);
  return w.buffer();
}

TEST(SnapshotWire, RoundTripIsBitIdentical) {
  sim::Session session = warmed_session();
  const soc::Snapshot snap = session.snapshot();
  const std::vector<u8> bytes = snapshot_bytes(snap);

  ArchiveReader r(bytes.data(), bytes.size(), soc::kSnapshotAppTag,
                  soc::kSnapshotFormatVersion);
  soc::Snapshot decoded;
  decoded.deserialize(r);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(soc::snapshot_digest(decoded), soc::snapshot_digest(snap));
  // Bit-identity of the wire form itself: re-encoding the decoded snapshot
  // reproduces the exact byte buffer.
  EXPECT_EQ(snapshot_bytes(decoded), bytes);
}

TEST(SnapshotWire, SingleBitCorruptionSweepAllRejected) {
  sim::Session session = warmed_session();
  const std::vector<u8> bytes = snapshot_bytes(session.snapshot());
  const u64 clean_digest = soc::snapshot_digest(session.snapshot());

  const auto decode = [&](const std::vector<u8>& buf, soc::Snapshot* out) {
    ArchiveReader r(buf.data(), buf.size(), soc::kSnapshotAppTag,
                    soc::kSnapshotFormatVersion);
    out->deserialize(r);
    return r.error();
  };

  // Deterministic sweep: every bit of the first 64 bytes (container header +
  // first section header — the fields with bespoke checks), then a fixed
  // prime stride across the whole buffer so every section's payload, CRC,
  // reserved word and padding gets sampled. Every flip must be rejected with
  // a structured error; none may crash or decode to a different snapshot.
  std::vector<std::size_t> bit_positions;
  const std::size_t total_bits = bytes.size() * 8;
  for (std::size_t b = 0; b < std::min<std::size_t>(64 * 8, total_bits); ++b) {
    bit_positions.push_back(b);
  }
  for (std::size_t b = 64 * 8; b < total_bits; b += 4099) bit_positions.push_back(b);

  std::vector<u8> corrupt = bytes;
  for (const std::size_t bit : bit_positions) {
    corrupt[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    soc::Snapshot out;
    const io::ArchiveError err = decode(corrupt, &out);
    EXPECT_FALSE(err.ok()) << "bit flip at " << bit << " was not rejected";
    corrupt[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  }

  // The unflipped buffer still decodes to the clean digest (sweep hygiene).
  soc::Snapshot out;
  ASSERT_TRUE(decode(corrupt, &out).ok());
  EXPECT_EQ(soc::snapshot_digest(out), clean_digest);
}

TEST(SnapshotWire, EveryTruncationPrefixIsStructurallyHandled) {
  // Small archive (a CampaignStats section) so every prefix length is cheap
  // to try. A prefix may only succeed if it merely dropped trailing padding;
  // anything else must fail with a structured error — never crash.
  fault::CampaignStats stats;
  fault::FaultOutcome o;
  o.detected = true;
  o.latency_us = 3.75;
  o.kind = fault::OutcomeKind::kDetected;
  stats.record(o);
  o.detected = false;
  o.latency_us = 0.0;
  o.kind = fault::OutcomeKind::kMasked;
  stats.record(o);
  stats.total_instructions = 12345;

  ArchiveWriter w(kTestTag, 1);
  w.begin_section(1);
  stats.serialize(w);
  w.end_section();
  const auto& buf = w.buffer();

  for (std::size_t len = 0; len < buf.size(); ++len) {
    ArchiveReader r(buf.data(), len, kTestTag, 1);
    fault::CampaignStats decoded;
    if (r.begin_section(1)) {
      decoded.deserialize(r);
      r.end_section();
    }
    if (r.ok()) {
      // Only a pad-only truncation may decode; it must decode identically.
      EXPECT_GE(len, buf.size() - 7);
      EXPECT_EQ(decoded.digest(), stats.digest());
    } else {
      EXPECT_NE(r.error().status, ArchiveStatus::kOk);
    }
  }
}

TEST(SnapshotWire, DomainChecksRejectCrcCleanGarbage) {
  // A CRC-valid payload whose fields are out of domain (e.g. written by a
  // buggy producer) must still be rejected: detect_kind 99 does not exist.
  ArchiveWriter w(kTestTag, 1);
  w.begin_section(1);
  w.put_varint(1);
  w.put_bool(true);
  w.put_f64(1.0);
  w.put_u8(99);  // detect_kind out of domain
  w.put_u8(0);
  w.put_u8(1);
  w.put_varint(0);
  w.end_section();
  const auto& buf = w.buffer();

  ArchiveReader r(buf.data(), buf.size(), kTestTag, 1);
  ASSERT_TRUE(r.begin_section(1));
  fault::CampaignStats decoded;
  decoded.deserialize(r);
  EXPECT_EQ(r.error().status, ArchiveStatus::kMalformed);
}

TEST(SnapshotWire, CampaignStatsAndVulnReportRoundTrip) {
  fault::CampaignStats stats;
  fault::FaultOutcome o;
  o.detected = true;
  o.latency_us = 0.5;
  o.kind = fault::OutcomeKind::kDetected;
  stats.record(o);
  stats.total_instructions = 777;

  ArchiveWriter sw(kTestTag, 1);
  sw.begin_section(1);
  stats.serialize(sw);
  sw.end_section();
  ArchiveReader sr(sw.buffer().data(), sw.buffer().size(), kTestTag, 1);
  ASSERT_TRUE(sr.begin_section(1));
  fault::CampaignStats stats2;
  stats2.deserialize(sr);
  sr.end_section();
  ASSERT_TRUE(sr.ok()) << sr.error().message();
  EXPECT_EQ(stats2.digest(), stats.digest());
  EXPECT_EQ(stats2.detected, stats.detected);
  EXPECT_EQ(stats2.total_instructions, stats.total_instructions);

  fault::VulnReport report;
  fault::InjectionRecord rec;
  rec.site = {fault::Component::kMemory, 12, 3, 77};
  rec.outcome = fault::OutcomeKind::kSdc;
  rec.rc_valid = true;
  rec.rc_instret = 1234;
  rec.rc_victim_pc = 0x80000010;
  rec.rc_golden_pc = 0x80000014;
  report.add(rec);
  rec = fault::InjectionRecord{};
  rec.site = {fault::Component::kDbcEntry, 4, 60, 900};
  rec.outcome = fault::OutcomeKind::kDetected;
  rec.latency_us = 8.25;
  report.add(rec);
  report.total_instructions = 4242;

  ArchiveWriter vw(kTestTag, 1);
  vw.begin_section(1);
  report.serialize(vw);
  vw.end_section();
  ArchiveReader vr(vw.buffer().data(), vw.buffer().size(), kTestTag, 1);
  ASSERT_TRUE(vr.begin_section(1));
  fault::VulnReport report2;
  report2.deserialize(vr);
  vr.end_section();
  ASSERT_TRUE(vr.ok()) << vr.error().message();
  EXPECT_EQ(report2.digest(), report.digest());
  EXPECT_EQ(report2.injected, report.injected);
  EXPECT_EQ(report2.sdc, report.sdc);
  report2.check_invariant();
}

TEST(SnapshotWire, VersionSkewIsRejectedExactly) {
  // v2 widened the driver section (exec_main_halted -> exec_halted_mask for
  // role-based topologies); v3 narrowed every DBC item to its kind's payload;
  // v4 dropped the core's software-interrupt flag. There are no migration
  // shims: a v1, v2 or v3 archive — or any version other than the current
  // one — must be rejected with a structured kVersionSkew before any section
  // is decoded.
  static_assert(soc::kSnapshotFormatVersion == 4,
                "bump this test (and re-check the skew matrix) when the "
                "snapshot format changes again");

  sim::Session session = warmed_session();
  const soc::Snapshot snap = session.snapshot();

  for (const u32 stale : {u32{1}, u32{2}, u32{3}, soc::kSnapshotFormatVersion + 1}) {
    ArchiveWriter w(soc::kSnapshotAppTag, stale);
    snap.serialize(w);
    ArchiveReader r(w.buffer().data(), w.buffer().size(), soc::kSnapshotAppTag,
                    soc::kSnapshotFormatVersion);
    EXPECT_EQ(r.error().status, ArchiveStatus::kVersionSkew);
    soc::Snapshot decoded;
    decoded.deserialize(r);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, ArchiveStatus::kVersionSkew);
  }
}

TEST(SnapshotWire, FileHelpersReportIoErrors) {
  std::vector<u8> out;
  const io::ArchiveError err = io::read_file("does_not_exist.fxar", out);
  EXPECT_EQ(err.status, ArchiveStatus::kIoError);

  soc::Snapshot snap;
  EXPECT_EQ(soc::load_snapshot("also_missing.fxar", snap).status,
            ArchiveStatus::kIoError);
}

// ---------------------------------------------------------------------------
// Wire-format pins
// ---------------------------------------------------------------------------

/// Field values for the hand-built structs below: distinct, never zero, and
/// of every varint length from one to ten bytes.
class FieldValues {
 public:
  u64 next() {
    ++n_;
    return ((n_ * 0x9E3779B97F4A7C15ULL) >> (n_ % 61)) | 1;
  }

 private:
  u64 n_ = 0;
};

arch::Cache::Snapshot pinned_cache(FieldValues& val, std::size_t ways) {
  arch::Cache::Snapshot cache;
  for (std::size_t w = 0; w < ways; ++w) cache.ways.push_back({val.next(), val.next()});
  cache.ways.back().tag = arch::Cache::kInvalidTag;
  cache.tick = val.next();
  cache.hits = val.next();
  cache.misses = val.next();
  return cache;
}

arch::Core::Snapshot pinned_core(FieldValues& val) {
  arch::Core::Snapshot core;
  for (u64& r : core.regs) r = val.next();
  core.pc = val.next();
  core.user_mode = false;
  core.csr_mepc = val.next();
  core.csr_mcause = val.next();
  core.csr_mscratch = val.next();
  core.caches.l1i = pinned_cache(val, 3);
  core.caches.l1d = pinned_cache(val, 4);
  core.bpred.bht = {3, 0, 2, 1};
  core.bpred.btb = {{val.next(), val.next(), true, val.next()},
                    {val.next(), val.next(), false, val.next()}};
  core.bpred.ras = {val.next(), val.next(), val.next()};
  core.bpred.ras_top = 5;
  core.bpred.btb_tick = val.next();
  core.last_fetch_line = val.next();
  core.reservation_addr = val.next();
  core.reservation_valid = true;
  core.cycle = val.next();
  core.instret = val.next();
  core.user_instret = val.next();
  core.stall_cycles = val.next();
  core.mispredicts = val.next();
  core.timer_at = val.next();
  core.timer_armed = true;
  core.suppress_traps = true;
  core.status = arch::Core::Status::kWaitingInterrupt;
  return core;
}

/// A channel holding every item kind and every MAL entry kind.
fs::Channel::Snapshot pinned_channel(FieldValues& val, CoreId main, CoreId checker) {
  using Kind = fs::StreamItem::Kind;
  fs::Channel::Snapshot ch;
  ch.main_id = main;
  ch.checker_id = checker;
  const auto checkpoint = [&](Kind kind) {
    ch.items.push_back({kind, val.next(), val.next(), {}});
    fs::Checkpoint& payload = ch.checkpoints.emplace_back();
    payload.state.pc = val.next();
    for (u64& r : payload.state.regs) r = val.next();
    if (kind == Kind::kSegmentEnd) payload.inst_count = val.next();
  };
  checkpoint(Kind::kScp);
  for (u8 k = 0; k <= static_cast<u8>(fs::MemEntryKind::kAmoStore); ++k) {
    ch.items.push_back({Kind::kMem, val.next(), val.next(),
                        {static_cast<fs::MemEntryKind>(k), static_cast<u8>(1u << (k % 4)),
                         val.next(), val.next()}});
  }
  checkpoint(Kind::kSegmentEnd);
  checkpoint(Kind::kScp);
  ch.segments = {{val.next(), val.next(), val.next()}};
  ch.next_seq = val.next();
  ch.last_popped_seq = val.next();
  ch.last_pop_cycle = val.next();
  ch.closed = true;
  ch.max_occupancy = val.next();
  ch.backpressure_events = val.next();
  return ch;
}

fs::CoreUnit::Snapshot pinned_unit(FieldValues& val) {
  fs::CoreUnit::Snapshot unit;
  unit.checking_enabled = true;
  unit.segment_active = true;
  unit.segment_ic = val.next();
  unit.checking_budget = val.next();
  unit.segment_start_pc = val.next();
  unit.checker_busy = true;
  unit.replay_active = true;
  unit.replay_suspended = true;
  unit.have_thread_ctx = true;
  unit.ass_thread_ctx.pc = val.next();
  for (u64& r : unit.ass_thread_ctx.regs) r = val.next();
  unit.pending_scp.pc = val.next();
  for (u64& r : unit.pending_scp.regs) r = val.next();
  unit.expected_ic = val.next();
  unit.replayed = val.next();
  unit.segment_result_ok = false;
  unit.segment_verify_failed = true;
  unit.segment_abort = true;
  unit.segments_produced = val.next();
  unit.segments_verified = val.next();
  unit.segments_failed = val.next();
  unit.checkpoints_captured = val.next();
  unit.mem_entries_logged = val.next();
  unit.replayed_total = val.next();
  return unit;
}

/// A three-core shared-checker snapshot in which every field and every
/// branch of the wire form holds a distinct non-default value: two resident
/// pages, an invalid cache way, a valid reservation and an armed timer, one
/// channel with a pending fault and one without, a waitlisted channel, and
/// attributed and unattributed detection events.
soc::Snapshot pinned_snapshot() {
  FieldValues val;
  soc::Snapshot snap;
  for (const u64 id : {u64{0x12}, u64{0x80005}}) {
    arch::Memory::Page page{};
    for (std::size_t at = 0; at < page.size(); at += 8) {
      const u64 word = val.next();
      std::memcpy(page.data() + at, &word, sizeof(word));
    }
    snap.memory.pages.emplace_back(id, page);
  }
  snap.l2 = pinned_cache(val, 5);
  for (int c = 0; c < 3; ++c) snap.cores.push_back(pinned_core(val));

  fs::Fabric::Snapshot& fabric = snap.fabric;
  fabric.main_mask = 0b101;
  fabric.checker_mask = 0b010;
  fabric.reporter.events = {{1, val.next(), fs::DetectKind::kEcpPc, true, val.next()},
                            {2, val.next(), fs::DetectKind::kStructural, false, 0}};
  fabric.reporter.attributed = 1;
  fabric.channels.push_back(pinned_channel(val, 0, 1));
  fabric.channels.back().fault = fs::InjectedFault{
      val.next(), val.next(), val.next(), fs::StreamItem::Kind::kSegmentEnd, 37};
  fabric.channels.push_back(pinned_channel(val, 2, 1));
  for (int u = 0; u < 3; ++u) fabric.units.push_back(pinned_unit(val));
  fabric.out_channels = {{0}, {}, {1}};
  fabric.in_channel = {0, 1, 0};
  fabric.waitlists = {{}, {1}, {}};

  snap.exec_prepared = true;
  snap.exec_halted_mask = val.next();
  return snap;
}

/// Outcomes of every detect, target and outcome kind.
fault::CampaignStats pinned_stats() {
  FieldValues val;
  fault::CampaignStats stats;
  for (u8 k = 0; k <= static_cast<u8>(fs::DetectKind::kStructural); ++k) {
    fault::FaultOutcome o;
    o.detected = k % 2 == 1;
    o.latency_us = 0.25 * static_cast<double>(val.next() % 10'000);
    o.detect_kind = static_cast<fs::DetectKind>(k);
    o.target_kind = static_cast<fs::StreamItem::Kind>(k % 3);
    o.kind = static_cast<fault::OutcomeKind>(k % 4);
    stats.record(o);
  }
  stats.total_instructions = val.next();
  return stats;
}

/// Records of every component and outcome kind, with and without a root cause.
fault::VulnReport pinned_report() {
  FieldValues val;
  fault::VulnReport report;
  for (u8 c = 0; c < fault::kComponentCount; ++c) {
    fault::InjectionRecord r;
    r.site = {static_cast<fault::Component>(c), val.next(), val.next(), val.next()};
    r.outcome = static_cast<fault::OutcomeKind>(c % 4);
    r.detect_kind = static_cast<fs::DetectKind>(c);
    r.latency_us = 0.5 * static_cast<double>(val.next() % 10'000);
    r.rc_valid = c % 2 == 0;
    r.rc_instret = val.next();
    r.rc_victim_pc = val.next();
    r.rc_golden_pc = val.next();
    report.add(r);
  }
  report.total_instructions = val.next();
  return report;
}

/// `value` alone in section 1 of a test archive.
template <typename T>
std::vector<u8> payload_archive(const T& value) {
  ArchiveWriter w(kTestTag, 1);
  w.begin_section(1);
  value.serialize(w);
  w.end_section();
  return w.buffer();
}

u64 fnv(const std::vector<u8>& bytes) {
  Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

// The wire format is pinned to its version: each pin is the FNV-1a digest of
// one hand-built struct's encoding. A change that moves a pin changes the
// layout, so it bumps the format version in the same change and re-records
// the pin (soc::kSnapshotFormatVersion for the snapshot; the shard file's
// version in fault/distributed.cpp for CampaignStats and VulnReport).
static_assert(soc::kSnapshotFormatVersion == 4,
              "re-record the wire pins along with the version bump");
constexpr u64 kSnapshotPin = 0x44ede4d4ffb085ca;
constexpr u64 kCampaignStatsPin = 0x7dcb96e47074bfb7;
constexpr u64 kVulnReportPin = 0x136848285d2e66b7;

TEST(SnapshotWire, EncodingIsPinnedToTheFormatVersion) {
  const std::vector<u8> snap = snapshot_bytes(pinned_snapshot());
  const std::vector<u8> stats = payload_archive(pinned_stats());
  const std::vector<u8> report = payload_archive(pinned_report());
  EXPECT_EQ(fnv(snap), kSnapshotPin) << std::hex << fnv(snap);
  EXPECT_EQ(fnv(stats), kCampaignStatsPin) << std::hex << fnv(stats);
  EXPECT_EQ(fnv(report), kVulnReportPin) << std::hex << fnv(report);

  // Each pinned encoding also decodes, and re-encodes to itself.
  ArchiveReader r(snap.data(), snap.size(), soc::kSnapshotAppTag,
                  soc::kSnapshotFormatVersion);
  soc::Snapshot decoded;
  decoded.deserialize(r);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(snapshot_bytes(decoded), snap);

  ArchiveReader sr(stats.data(), stats.size(), kTestTag, 1);
  ASSERT_TRUE(sr.begin_section(1));
  fault::CampaignStats stats2;
  stats2.deserialize(sr);
  sr.end_section();
  ASSERT_TRUE(sr.ok()) << sr.error().message();
  EXPECT_EQ(payload_archive(stats2), stats);

  ArchiveReader vr(report.data(), report.size(), kTestTag, 1);
  ASSERT_TRUE(vr.begin_section(1));
  fault::VulnReport report2;
  report2.deserialize(vr);
  vr.end_section();
  ASSERT_TRUE(vr.ok()) << vr.error().message();
  EXPECT_EQ(payload_archive(report2), report);
}

// ---------------------------------------------------------------------------
// Resealed mutations: CRC-clean garbage reaches every field decoder
// ---------------------------------------------------------------------------

/// One section of an archive buffer: where its CRC sits, and its payload.
struct SectionSpan {
  std::size_t crc_at = 0;
  std::size_t payload_at = 0;
  std::size_t len = 0;
};

std::vector<SectionSpan> section_spans(const std::vector<u8>& buf) {
  std::vector<SectionSpan> spans;
  std::size_t at = 16;  // container header
  while (at + 24 <= buf.size()) {
    u64 len = 0;
    std::memcpy(&len, buf.data() + at + 8, sizeof(len));
    spans.push_back({at + 16, at + 24, static_cast<std::size_t>(len)});
    at += 24 + ((static_cast<std::size_t>(len) + 7) & ~std::size_t{7});
  }
  return spans;
}

/// Recompute a section's CRC after its payload was edited in place.
void reseal(std::vector<u8>& buf, const SectionSpan& span) {
  const u64 crc = io::crc64(buf.data() + span.payload_at, span.len);
  std::memcpy(buf.data() + span.crc_at, &crc, sizeof(crc));
}

/// Overwrite one to four payload bytes of `span`: a bit flip, a random byte,
/// or a varint edge value (0x00, 0x7F, 0x80, 0xFF).
void mutate(std::vector<u8>& buf, const SectionSpan& span, Rng& rng) {
  const std::size_t n = 1 + rng.next_below(4);
  const std::size_t at = span.payload_at + rng.next_below(span.len);
  static constexpr u8 kEdges[] = {0x00, 0x7F, 0x80, 0xFF};
  for (std::size_t i = at; i < std::min(at + n, span.payload_at + span.len); ++i) {
    switch (rng.next_below(3)) {
      case 0: buf[i] ^= static_cast<u8>(1u << rng.next_below(8)); break;
      case 1: buf[i] = static_cast<u8>(rng.next_u64()); break;
      default: buf[i] = kEdges[rng.next_below(4)]; break;
    }
  }
}

TEST(SnapshotWire, ResealedMutationsDecodeCanonicallyOrFailStructured) {
  // Every mutated buffer either fails with a structured error or decodes;
  // a decoded one re-encodes to exactly itself (one encoding per value) and
  // is fed to restore_checked on one reused session, which may reject it but
  // must never abort.
  constexpr int kPerSection = 120;
  sim::Session session = warmed_session();
  const std::vector<u8> clean = snapshot_bytes(session.snapshot());
  const std::vector<SectionSpan> spans = section_spans(clean);
  ASSERT_EQ(spans.size(), 5u);
  Rng rng(0xF022);
  for (std::size_t s = 0; s < spans.size(); ++s) {
    for (int i = 0; i < kPerSection; ++i) {
      std::vector<u8> buf = clean;
      mutate(buf, spans[s], rng);
      reseal(buf, spans[s]);
      ArchiveReader r(buf.data(), buf.size(), soc::kSnapshotAppTag,
                      soc::kSnapshotFormatVersion);
      soc::Snapshot decoded;
      decoded.deserialize(r);
      if (!r.ok()) continue;
      ASSERT_EQ(snapshot_bytes(decoded), buf) << "section " << s + 1 << ", mutation " << i;
      (void)session.restore_checked(decoded);
    }
  }

  // The shard payloads, decoded on their own.
  const auto fuzz_payload = [&](const auto& value) {
    using T = std::decay_t<decltype(value)>;
    const std::vector<u8> payload = payload_archive(value);
    const SectionSpan span = section_spans(payload).at(0);
    for (int i = 0; i < kPerSection; ++i) {
      std::vector<u8> buf = payload;
      mutate(buf, span, rng);
      reseal(buf, span);
      ArchiveReader r(buf.data(), buf.size(), kTestTag, 1);
      T decoded;
      if (r.begin_section(1)) {
        decoded.deserialize(r);
        r.end_section();
      }
      if (r.ok()) {
        ASSERT_EQ(payload_archive(decoded), buf) << "mutation " << i;
      }
    }
  };
  fuzz_payload(pinned_stats());
  fuzz_payload(pinned_report());
}

TEST(SnapshotWire, VarintThatDoesNotFitItsFieldIsRejected) {
  // Channel 0's main_id is a core id (32 bits). Written as the five-byte
  // varint for 2^32 under a valid CRC, it must not decode as core 0.
  const std::vector<u8> clean = snapshot_bytes(warmed_session().snapshot());
  const std::vector<SectionSpan> spans = section_spans(clean);
  ArchiveWriter w(soc::kSnapshotAppTag, soc::kSnapshotFormatVersion);
  for (u32 id = 1; id <= spans.size(); ++id) {
    std::vector<u8> payload(clean.data() + spans[id - 1].payload_at,
                            clean.data() + spans[id - 1].payload_at + spans[id - 1].len);
    if (id == soc::kSectionFabric) {
      // main_mask, checker_mask, then no detection events and no
      // attributions, the channel count, and channel 0's main_id (core 0).
      ASSERT_EQ(payload[16], 0);
      ASSERT_EQ(payload[17], 0);
      ASSERT_GE(payload[18], 1);
      ASSERT_EQ(payload[19], 0);
      const u8 two_pow_32[] = {0x80, 0x80, 0x80, 0x80, 0x10};
      payload.erase(payload.begin() + 19);
      payload.insert(payload.begin() + 19, std::begin(two_pow_32), std::end(two_pow_32));
    }
    w.begin_section(id);
    w.put_bytes(payload.data(), payload.size());
    w.end_section();
  }

  ArchiveReader r(w.buffer().data(), w.buffer().size(), soc::kSnapshotAppTag,
                  soc::kSnapshotFormatVersion);
  soc::Snapshot decoded;
  decoded.deserialize(r);
  EXPECT_EQ(r.error().status, ArchiveStatus::kMalformed) << r.error().message();
}

TEST(SnapshotWire, SnapshotOfAnUnpreparedDriverIsRejected) {
  // Every Session is prepared, so a snapshot whose driver section says
  // otherwise is corrupt: restoring it would abort the next advance().
  sim::Session session = warmed_session();
  std::vector<u8> buf = snapshot_bytes(session.snapshot());
  const SectionSpan driver = section_spans(buf).at(soc::kSectionDriver - 1);
  ASSERT_EQ(buf[driver.payload_at], 1);  // exec_prepared
  buf[driver.payload_at] = 0;
  reseal(buf, driver);
  ArchiveReader r(buf.data(), buf.size(), soc::kSnapshotAppTag,
                  soc::kSnapshotFormatVersion);
  soc::Snapshot decoded;
  decoded.deserialize(r);
  ASSERT_TRUE(r.ok()) << r.error().message();

  const u64 before = soc::snapshot_digest(session.snapshot());
  EXPECT_EQ(session.restore_checked(decoded).status, ArchiveStatus::kMalformed);
  EXPECT_EQ(soc::snapshot_digest(session.snapshot()), before);
  EXPECT_TRUE(session.advance(1'000));
}

// ---------------------------------------------------------------------------
// Multi-process resumable driver (small scale)
// ---------------------------------------------------------------------------

/// One run of either campaign kind: the merged result's digest and injection
/// count, and what the distributed driver did.
struct CampaignRun {
  u64 digest = 0;
  u32 injected = 0;
  fault::DistributedOutcome run;
};

TEST(Distributed, TwoWorkerCampaignMatchesSingleProcessAndResumes) {
  // Both campaign kinds under the default engine and the bounded one. The
  // warm rerun restores baselines decoded from files (no trace tables) while
  // the single-process run forks live baselines that share trace-table
  // chunks.
  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = soc::SocConfig::paper_default(2);
  for (const soc::Engine engine : {soc::Engine::kQuantum, soc::Engine::kQuantumBounded}) {
    for (const bool vuln : {false, true}) {
      SCOPED_TRACE(std::string(soc::engine_name(engine)) + (vuln ? " vuln" : " dbc"));
      fault::CampaignConfig campaign;
      campaign.target_faults = 8;
      campaign.warmup_rounds = 2'000;
      campaign.gap_rounds = 500;
      campaign.workload_iterations = 4'000;
      campaign.shards = 4;
      campaign.threads = 1;
      campaign.engine = engine;
      fault::VulnConfig whole_soc;
      whole_soc.target_faults = 14;
      whole_soc.warmup_rounds = campaign.warmup_rounds;
      whole_soc.gap_rounds = campaign.gap_rounds;
      whole_soc.horizon = 3'000;
      whole_soc.workload_iterations = campaign.workload_iterations;
      whole_soc.shards = campaign.shards;
      whole_soc.threads = 1;
      whole_soc.engine = engine;
      whole_soc.root_cause = true;

      CampaignRun single;
      if (vuln) {
        const auto r = fault::run_vuln_campaign(profile, soc_config, whole_soc);
        single = {r.digest(), r.injected, {}};
      } else {
        const auto r = fault::run_fault_campaign(profile, soc_config, campaign);
        single = {r.digest(), r.injected, {}};
      }
      ASSERT_EQ(single.injected, vuln ? whole_soc.target_faults : campaign.target_faults);

      const std::string dir = "test_snapshot_io_campaign";
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      fault::DistributedConfig dist;
      dist.workers = 2;
      dist.dir = dir;
      const auto run = [&]() -> CampaignRun {
        if (vuln) {
          const auto r =
              fault::run_distributed_vuln_campaign(profile, soc_config, whole_soc, dist);
          return {r.report.digest(), r.report.injected, r.run};
        }
        const auto r = fault::run_distributed_campaign(profile, soc_config, campaign, dist);
        return {r.stats.digest(), r.stats.injected, r.run};
      };

      // Cold two-worker run: merged result digest-identical to single-process.
      dist.run_label = "cold";
      const CampaignRun cold = run();
      EXPECT_TRUE(cold.run.complete());
      EXPECT_EQ(cold.digest, single.digest);
      EXPECT_EQ(cold.injected, single.injected);

      // Kill the worker that runs shard 1 after it finishes but before it
      // writes its result; the run is incomplete, then a resumed invocation
      // redoes the missing shards and still merges digest-identical.
      dist.run_label = "resume";
      setenv("FLEX_CAMPAIGN_DIE_SHARD", "1", 1);
      const CampaignRun killed = run();
      unsetenv("FLEX_CAMPAIGN_DIE_SHARD");
      EXPECT_FALSE(killed.run.complete());
      EXPECT_LT(killed.run.shards_completed, killed.run.shards_total);

      const CampaignRun resumed = run();
      EXPECT_TRUE(resumed.run.complete());
      EXPECT_GT(resumed.run.shards_resumed, 0u);
      EXPECT_EQ(resumed.digest, single.digest);

      // Warm rerun against the baselines the cold run persisted: every
      // warmup is elided, outcomes unchanged.
      dist.run_label = "warm";
      const CampaignRun warm = run();
      EXPECT_TRUE(warm.run.complete());
      EXPECT_GT(warm.run.warmup_instructions_elided, 0u);
      EXPECT_EQ(warm.digest, single.digest);

      // The resume journal names every shard.
      EXPECT_TRUE(std::filesystem::exists(dir + "/warm_journal.txt"));
      std::filesystem::remove_all(dir, ec);
    }
  }
}

/// The stale-baseline cases below: swaptions, 8 faults over 2 shards under
/// the bounded engine.
fault::CampaignConfig small_bounded_campaign() {
  fault::CampaignConfig campaign;
  campaign.target_faults = 8;
  campaign.warmup_rounds = 2'000;
  campaign.gap_rounds = 500;
  campaign.workload_iterations = 4'000;
  campaign.shards = 2;
  campaign.threads = 1;
  campaign.seed = 0x5EED;
  campaign.engine = soc::Engine::kQuantumBounded;
  return campaign;
}

/// Warm a campaign directory on the paper-default platform, then rerun the
/// same campaign there on `other`. The rerun must restore none of the
/// persisted baselines and merge to `other`'s own single-process result.
void expect_rerun_rewarms_on(const soc::SocConfig& other, const std::string& dir) {
  const auto& profile = workloads::find_profile("swaptions");
  const fault::CampaignConfig campaign = small_bounded_campaign();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  fault::DistributedConfig dist;
  dist.dir = dir;
  dist.run_label = "paper";
  const auto warmed = fault::run_distributed_campaign(
      profile, soc::SocConfig::paper_default(2), campaign, dist);
  ASSERT_TRUE(warmed.run.complete());

  dist.run_label = "other";
  const auto rerun = fault::run_distributed_campaign(profile, other, campaign, dist);
  ASSERT_TRUE(rerun.run.complete());
  EXPECT_EQ(rerun.run.warmup_instructions_elided, 0u);
  EXPECT_EQ(rerun.stats.digest(),
            fault::run_fault_campaign(profile, other, campaign).digest());
  std::filesystem::remove_all(dir, ec);
}

TEST(Distributed, RerunWithAnotherSegmentLimitRewarmsItsBaselines) {
  soc::SocConfig halved = soc::SocConfig::paper_default(2);
  halved.flexstep.segment_limit /= 2;
  expect_rerun_rewarms_on(halved, "test_snapshot_io_segment_limit");
}

TEST(Distributed, RerunWithAnotherL2GeometryRewarmsItsBaselines) {
  // Restoring a baseline of the other geometry would abort the worker.
  soc::SocConfig doubled = soc::SocConfig::paper_default(2);
  doubled.l2.size_bytes *= 2;
  expect_rerun_rewarms_on(doubled, "test_snapshot_io_l2");
}

TEST(Distributed, WorkerWhoseWarmupExhaustsExitsTwoAndWritesNoShardFile) {
  // A shard that cannot run is a diagnostic, not an abort: its worker prints
  // it, exits 2 and leaves the shard missing for a later run.
  fault::CampaignConfig campaign = small_bounded_campaign();
  campaign.workload_iterations = 10;
  campaign.warmup_rounds = 1'000'000'000;
  fault::DistributedConfig dist;
  dist.dir = "test_snapshot_io_exhausted";
  std::error_code ec;
  std::filesystem::remove_all(dist.dir, ec);
  testing::internal::CaptureStderr();
  const auto result = fault::run_distributed_campaign(
      workloads::find_profile("swaptions"), soc::SocConfig::paper_default(2), campaign, dist);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(result.run.complete());
  EXPECT_EQ(result.run.shards_completed, 0u);
  EXPECT_FALSE(std::filesystem::exists(dist.dir + "/run_shard_0.fxar"));
  EXPECT_NE(log.find("workload exhausts before warmup_rounds"), std::string::npos) << log;
  EXPECT_NE(log.find("exited with code 2"), std::string::npos) << log;
  std::filesystem::remove_all(dist.dir, ec);
}

TEST(Distributed, DamagedBaselinesRewarm) {
  // A persisted baseline is a snapshot file, and so untrusted input: a
  // truncated or bit-flipped one fails its checks and its shard re-warms,
  // with outcomes unchanged. The intact baselines still load.
  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = soc::SocConfig::paper_default(2);
  fault::CampaignConfig campaign = small_bounded_campaign();
  campaign.shards = 4;
  const u64 single = fault::run_fault_campaign(profile, soc_config, campaign).digest();
  fault::DistributedConfig dist;
  dist.dir = "test_snapshot_io_damaged";
  std::error_code ec;
  std::filesystem::remove_all(dist.dir, ec);
  const auto run = [&](const char* label) {
    dist.run_label = label;
    return fault::run_distributed_campaign(profile, soc_config, campaign, dist);
  };
  ASSERT_TRUE(run("cold").run.complete());
  const auto intact = run("intact");
  ASSERT_TRUE(intact.run.complete());
  EXPECT_EQ(intact.stats.digest(), single);

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dist.dir + "/baselines")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);  // Two to damage, and one that still loads.
  std::filesystem::resize_file(files[0], std::filesystem::file_size(files[0]) / 2);
  std::vector<u8> bytes;
  ASSERT_TRUE(io::read_file(files[1].string(), bytes).ok());
  bytes[bytes.size() / 2] ^= 0x10;
  ASSERT_TRUE(io::write_file_atomic(files[1].string(), bytes.data(), bytes.size()).ok());

  const auto damaged = run("damaged");
  ASSERT_TRUE(damaged.run.complete());
  EXPECT_EQ(damaged.stats.digest(), single);
  EXPECT_GT(damaged.run.warmup_instructions_elided, 0u);
  EXPECT_LT(damaged.run.warmup_instructions_elided, intact.run.warmup_instructions_elided);
  std::filesystem::remove_all(dist.dir, ec);
}

}  // namespace
}  // namespace flexstep
