#include "soc/snapshot.h"

namespace flexstep::soc {

void Snapshot::serialize(io::ArchiveWriter& ar) const {
  ar.begin_section(kSectionMemory);
  memory.serialize(ar);
  ar.end_section();

  ar.begin_section(kSectionL2);
  l2.serialize(ar);
  ar.end_section();

  ar.begin_section(kSectionCores);
  ar.put_varint(cores.size());
  for (const arch::Core::Snapshot& core : cores) core.serialize(ar);
  ar.end_section();

  ar.begin_section(kSectionFabric);
  fabric.serialize(ar);
  ar.end_section();

  ar.begin_section(kSectionDriver);
  ar.put_bool(exec_prepared);
  ar.put_u64(exec_halted_mask);
  ar.end_section();
}

void Snapshot::deserialize(io::ArchiveReader& ar) {
  if (ar.begin_section(kSectionMemory)) {
    memory.deserialize(ar);
    ar.end_section();
  }
  if (ar.begin_section(kSectionL2)) {
    l2.deserialize(ar);
    ar.end_section();
  }
  if (ar.begin_section(kSectionCores)) {
    cores.clear();
    const u64 count = ar.take_count(8);
    for (u64 i = 0; ar.ok() && i < count; ++i) {
      cores.emplace_back();
      cores.back().deserialize(ar);
    }
    ar.end_section();
  }
  if (ar.begin_section(kSectionFabric)) {
    fabric.deserialize(ar);
    ar.end_section();
  }
  if (ar.begin_section(kSectionDriver)) {
    exec_prepared = ar.take_bool();
    exec_halted_mask = ar.take_u64();
    ar.end_section();
  }
}

io::ArchiveError save_snapshot(const Snapshot& snapshot, const std::string& path) {
  io::ArchiveWriter ar(kSnapshotAppTag, kSnapshotFormatVersion);
  snapshot.serialize(ar);
  return ar.write_file(path);
}

io::ArchiveError load_snapshot(const std::string& path, Snapshot& out) {
  std::vector<u8> data;
  if (io::ArchiveError err = io::read_file(path, data); !err.ok()) return err;
  io::ArchiveReader ar(data.data(), data.size(), kSnapshotAppTag,
                       kSnapshotFormatVersion);
  out.deserialize(ar);
  return ar.error();
}

// ---------------------------------------------------------------------------
// snapshot_digest
// ---------------------------------------------------------------------------

namespace {

/// FNV-1a, fed field-by-field. Snapshot records contain padding (BtbEntry,
/// StreamItem, Way, ...), so hashing structs as raw bytes would fold
/// indeterminate host memory into the digest. Host-only state (the cores'
/// trace tables) is left out.
struct Fnv {
  u64 h = 14695981039346656037ULL;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const u8*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void word(u64 v) { bytes(&v, sizeof(v)); }
  void flag(bool b) { word(b ? 1 : 0); }

  void state(const arch::ArchState& s) {
    word(s.pc);
    for (u64 r : s.regs) word(r);
  }

  void cache(const arch::Cache::Snapshot& s) {
    for (const auto& way : s.ways) {
      word(way.tag);
      word(way.lru);
    }
    word(s.tick);
    word(s.hits);
    word(s.misses);
  }

  void bpred(const arch::BranchPredictor::Snapshot& s) {
    bytes(s.bht.data(), s.bht.size());
    for (const auto& entry : s.btb) {
      word(entry.pc);
      word(entry.target);
      flag(entry.valid);
      word(entry.lru);
    }
    for (Addr ra : s.ras) word(ra);
    word(s.ras_top);
    word(s.btb_tick);
  }

  void core(const arch::Core::Snapshot& s) {
    for (u64 r : s.regs) word(r);
    word(s.pc);
    flag(s.user_mode);
    word(s.csr_mepc);
    word(s.csr_mcause);
    word(s.csr_mscratch);
    cache(s.caches.l1i);
    cache(s.caches.l1d);
    bpred(s.bpred);
    word(s.last_fetch_line);
    word(s.reservation_addr);
    flag(s.reservation_valid);
    word(s.cycle);
    word(s.instret);
    word(s.user_instret);
    word(s.stall_cycles);
    word(s.mispredicts);
    word(s.timer_at);
    flag(s.timer_armed);
    flag(s.swi_pending);
    flag(s.suppress_traps);
    word(static_cast<u64>(s.status));
  }

  /// One queued item: the record header plus only the payload its kind
  /// carries (as on the wire), so unused bytes can never reach the digest.
  void item(const fs::StreamItem& s, const fs::Checkpoint* payload) {
    word(static_cast<u64>(s.kind));
    word(s.seq);
    word(s.visible_at);
    if (s.kind == fs::StreamItem::Kind::kMem) {
      word(static_cast<u64>(s.mem.kind));
      word(s.mem.bytes);
      word(s.mem.addr);
      word(s.mem.data);
      return;
    }
    state(payload->state);
    if (s.kind == fs::StreamItem::Kind::kSegmentEnd) word(payload->inst_count);
  }

  void channel(const fs::Channel::Snapshot& s) {
    word(s.main_id);
    word(s.checker_id);
    word(s.items.size());
    s.for_each_item([&](const fs::StreamItem& it, const fs::Checkpoint* payload) {
      item(it, payload);
    });
    word(s.segments.size());
    for (const auto& seg : s.segments) {
      word(seg.inst_count);
      word(seg.ready_at);
      word(seg.end_seq);
    }
    word(s.next_seq);
    word(s.last_popped_seq);
    word(s.last_pop_cycle);
    flag(s.closed);
    word(s.max_occupancy);
    word(s.backpressure_events);
    flag(s.fault.has_value());
    if (s.fault.has_value()) {
      word(s.fault->seq);
      word(s.fault->segment_end_seq);
      word(s.fault->injected_at);
      word(static_cast<u64>(s.fault->item_kind));
      word(s.fault->bit);
    }
  }

  void unit(const fs::CoreUnit::Snapshot& s) {
    flag(s.checking_enabled);
    flag(s.segment_active);
    word(s.segment_ic);
    word(s.checking_budget);
    word(s.segment_start_pc);
    flag(s.checker_busy);
    flag(s.replay_active);
    flag(s.replay_suspended);
    flag(s.have_thread_ctx);
    state(s.ass_thread_ctx);
    state(s.pending_scp);
    word(s.expected_ic);
    word(s.replayed);
    flag(s.segment_result_ok);
    flag(s.segment_verify_failed);
    flag(s.segment_abort);
    word(s.segments_produced);
    word(s.segments_verified);
    word(s.segments_failed);
    word(s.checkpoints_captured);
    word(s.mem_entries_logged);
    word(s.replayed_total);
  }
};

}  // namespace

u64 snapshot_digest(const Snapshot& snapshot) {
  Fnv fnv;

  fnv.word(snapshot.memory.pages.size());
  for (const auto& [id, page] : snapshot.memory.pages) {
    fnv.word(id);
    fnv.bytes(page.data(), page.size());
  }
  fnv.cache(snapshot.l2);
  fnv.word(snapshot.cores.size());
  for (const auto& core : snapshot.cores) fnv.core(core);

  const fs::Fabric::Snapshot& fabric = snapshot.fabric;
  fnv.word(fabric.main_mask);
  fnv.word(fabric.checker_mask);
  fnv.word(fabric.reporter.events.size());
  for (const auto& event : fabric.reporter.events) {
    fnv.word(event.checker);
    fnv.word(event.at);
    fnv.word(static_cast<u64>(event.kind));
    fnv.flag(event.attributed);
    fnv.word(event.latency);
  }
  fnv.word(fabric.reporter.attributed);
  fnv.word(fabric.channels.size());
  for (const auto& ch : fabric.channels) fnv.channel(ch);
  fnv.word(fabric.units.size());
  for (const auto& u : fabric.units) fnv.unit(u);
  for (const auto& outs : fabric.out_channels) {
    fnv.word(outs.size());
    for (std::size_t idx : outs) fnv.word(idx);
  }
  for (std::size_t idx : fabric.in_channel) fnv.word(idx);
  for (const auto& waitlist : fabric.waitlists) {
    fnv.word(waitlist.size());
    for (std::size_t idx : waitlist) fnv.word(idx);
  }

  fnv.flag(snapshot.exec_prepared);
  fnv.word(snapshot.exec_halted_mask);
  return fnv.h;
}

}  // namespace flexstep::soc
