#include "arch/branch_pred.h"

#include <bit>

#include "common/archive.h"
#include "common/check.h"

namespace flexstep::arch {

template <class Ar>
void BranchPredictor::Snapshot::transfer(Ar& ar) {
  ar.vector(bht, 1);
  ar.vector(btb, 18, [&](BtbEntry& entry) {  // pc + target + valid + lru >= 18 B
    ar.fixed(entry.pc);
    ar.fixed(entry.target);
    ar.boolean(entry.valid);
    ar.varint(entry.lru);
  });
  ar.vector(ras, 8);
  ar.fixed(ras_top);
  ar.varint(btb_tick);
}
template void BranchPredictor::Snapshot::transfer(io::ArchiveWriter&);
template void BranchPredictor::Snapshot::transfer(io::ArchiveReader&);

namespace {
constexpr u8 kWeaklyNotTaken = 1;  // counter states: 0,1 predict not-taken; 2,3 taken
}

BranchPredictor::BranchPredictor(const BranchPredictorConfig& config) : config_(config) {
  FLEX_CHECK(std::has_single_bit(config.bht_entries));
  s_.bht.assign(config.bht_entries, kWeaklyNotTaken);
  s_.btb.assign(config.btb_entries, {});
  s_.ras.assign(config.ras_entries, 0);
}

void BranchPredictor::save(Snapshot& out) const { out = s_; }

void BranchPredictor::restore(const Snapshot& snapshot) {
  FLEX_CHECK_MSG(snapshot.bht.size() == s_.bht.size() && snapshot.btb.size() == s_.btb.size() &&
                     snapshot.ras.size() == s_.ras.size(),
                 "branch-predictor snapshot geometry mismatch");
  s_ = snapshot;
}

void BranchPredictor::btb_insert(Addr pc, Addr target) {
  ++s_.btb_tick;
  BtbEntry* victim = &s_.btb.front();
  for (auto& entry : s_.btb) {
    if (entry.valid && entry.pc == pc) {
      entry.target = target;
      entry.lru = s_.btb_tick;
      return;
    }
    if (!entry.valid) {
      victim = &entry;
      break;
    }
    if (entry.lru < victim->lru) victim = &entry;
  }
  *victim = {pc, target, true, s_.btb_tick};
}

}  // namespace flexstep::arch
