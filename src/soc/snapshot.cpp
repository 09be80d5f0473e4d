#include "soc/snapshot.h"

#include "common/fnv.h"

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

u64 snapshot_digest(const Snapshot& snapshot) {
  io::ArchiveWriter ar(kSnapshotAppTag, kSnapshotFormatVersion);
  snapshot.serialize(ar);
  Fnv1a h;
  h.bytes(ar.buffer().data(), ar.buffer().size());
  return h.value();
}

}  // namespace flexstep::soc
