// SoC-level configuration; defaults reproduce the paper's Tab. II.
#pragma once

#include <string>

#include "arch/config.h"
#include "common/types.h"
#include "flexstep/config.h"

namespace flexstep::soc {

struct SocConfig {
  u32 num_cores = 4;
  arch::CoreConfig core{};
  arch::CacheConfig l2{.size_bytes = 512 * 1024, .ways = 8, .line_bytes = 64, .latency = 40};
  fs::FlexStepConfig flexstep{};

  /// Paper configuration (Tab. II) with `cores` homogeneous Rockets.
  static SocConfig paper_default(u32 cores = 4);

  /// Field-wise FNV-1a digest of every setting above. Persisted campaign
  /// baselines are keyed by it, so none restores into another platform.
  u64 fingerprint() const;

  /// Render Tab. II ("Hardware configurations evaluated").
  std::string describe() const;
};

}  // namespace flexstep::soc
