// Rocket-like branch prediction state (paper Tab. II: 512-entry BHT,
// 28-entry BTB, 6-entry RAS). Used purely for timing: mispredictions add a
// front-end refill penalty in the 5-stage pipeline.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"

namespace flexstep::arch {

struct BranchPredictorConfig {
  u32 bht_entries = 512;  ///< 2-bit saturating counters.
  u32 btb_entries = 28;
  u32 ras_entries = 6;
  Cycle mispredict_penalty = 3;  ///< Redirect cost in a 5-stage in-order pipe.
};

class BranchPredictor {
 public:
  struct BtbEntry {
    Addr pc = 0;
    Addr target = 0;
    bool valid = false;
    u64 lru = 0;
  };

  /// Complete predictor state (BHT counters, BTB, RAS).
  struct Snapshot {
    std::vector<u8> bht;
    std::vector<BtbEntry> btb;
    std::vector<Addr> ras;
    u32 ras_top = 0;
    u64 btb_tick = 0;
    std::size_t bytes() const {
      return bht.size() + btb.size() * sizeof(BtbEntry) + ras.size() * sizeof(Addr);
    }

    template <class Ar>
    void transfer(Ar& ar);
  };

  explicit BranchPredictor(const BranchPredictorConfig& config);

  void save(Snapshot& out) const;
  /// Restore; table sizes must match this predictor's config.
  void restore(const Snapshot& snapshot);

  // The predict/update/lookup probes sit on the batched engine's hot path and
  // are inlined here; the BTB insert (miss path) stays out of line.

  /// Conditional branch direction prediction.
  bool predict_taken(Addr pc) const {
    const u32 idx = static_cast<u32>(pc >> 2) & (config_.bht_entries - 1);
    return s_.bht[idx] >= 2;
  }
  void update(Addr pc, bool taken) {
    const u32 idx = static_cast<u32>(pc >> 2) & (config_.bht_entries - 1);
    u8& counter = s_.bht[idx];
    if (taken) {
      if (counter < 3) ++counter;
    } else {
      if (counter > 0) --counter;
    }
  }

  /// BTB target lookup/insert (for jal/jalr timing).
  std::optional<Addr> btb_lookup(Addr pc) const {
    for (const auto& entry : s_.btb) {
      if (entry.valid && entry.pc == pc) return entry.target;
    }
    return std::nullopt;
  }
  void btb_insert(Addr pc, Addr target);

  /// Return-address stack.
  void ras_push(Addr return_addr) {
    s_.ras[s_.ras_top % config_.ras_entries] = return_addr;
    ++s_.ras_top;
  }
  std::optional<Addr> ras_pop() {
    if (s_.ras_top == 0) return std::nullopt;
    --s_.ras_top;
    return s_.ras[s_.ras_top % config_.ras_entries];
  }

  // ---- fault-site adapter (fault/sites.h) ----

  /// Indexable predictor fault sites: every BHT counter, BTB entry and RAS
  /// slot, in that order.
  std::size_t fault_site_count() const {
    return s_.bht.size() + s_.btb.size() + s_.ras.size();
  }
  /// Flippable bits of site `index`: 2 (BHT saturating counter), 129 (BTB
  /// target + pc + valid) or 64 (RAS return address).
  u32 fault_site_bits(std::size_t index) const {
    if (index < s_.bht.size()) return 2;
    if (index < s_.bht.size() + s_.btb.size()) return 129;
    return 64;
  }
  /// XOR the addressed bit; a 2-bit BHT flip keeps the counter in 0..3, so a
  /// second flip restores bit-identical state for every site kind.
  void fault_flip(std::size_t index, u64 bit) {
    if (index < s_.bht.size()) {
      s_.bht[index] ^= static_cast<u8>(1u << bit);
      return;
    }
    index -= s_.bht.size();
    if (index < s_.btb.size()) {
      BtbEntry& entry = s_.btb[index];
      if (bit < 64) {
        entry.target ^= u64{1} << bit;
      } else if (bit < 128) {
        entry.pc ^= u64{1} << (bit - 64);
      } else {
        entry.valid = !entry.valid;
      }
      return;
    }
    s_.ras[index - s_.btb.size()] ^= u64{1} << bit;
  }

  const BranchPredictorConfig& config() const { return config_; }

 private:
  BranchPredictorConfig config_;
  /// The whole state. bht: 2-bit counters, weakly-not-taken initially;
  /// ras_top: number of valid entries (wraps by overwrite).
  Snapshot s_;
};

}  // namespace flexstep::arch
