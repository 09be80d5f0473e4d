#include "soc/snapshot.h"

#include "common/fnv.h"

namespace flexstep::soc {

template <class Ar>
void Snapshot::transfer(Ar& ar) {
  ar.section(kSectionMemory, [&] { memory.transfer(ar); });
  ar.section(kSectionL2, [&] { l2.transfer(ar); });
  ar.section(kSectionCores, [&] { ar.vector(cores, 8); });
  ar.section(kSectionFabric, [&] { fabric.transfer(ar); });
  ar.section(kSectionDriver, [&] {
    ar.boolean(exec_prepared);
    ar.fixed(exec_halted_mask);
  });
}

void Snapshot::serialize(io::ArchiveWriter& ar) const {
  const_cast<Snapshot*>(this)->transfer(ar);
}

void Snapshot::deserialize(io::ArchiveReader& ar) { transfer(ar); }

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
