// Core-level configuration, defaults matching the paper's Tab. II.
#pragma once

#include "arch/branch_pred.h"
#include "arch/cache.h"
#include "common/types.h"

namespace flexstep::arch {

/// Superinstruction trace cache (arch/trace.h). Traces are a host
/// optimisation: recorded/flushed traces never change architectural outcomes,
/// so this switch tunes speed, not semantics — though it does move where a
/// budgeted VerifiedExecution::advance() stops.
struct TraceConfig {
  bool enabled = true;
};

struct CoreConfig {
  CacheConfig l1i{.size_bytes = 16 * 1024, .ways = 4, .line_bytes = 64, .latency = 2};
  CacheConfig l1d{.size_bytes = 16 * 1024, .ways = 4, .line_bytes = 64, .latency = 2};
  BranchPredictorConfig bpred{};

  /// DRAM latency beyond the L2 (the paper does not publish one; 100 cycles
  /// at 1.6 GHz ≈ 62 ns is a typical LPDDR4 round trip).
  Cycle memory_latency = 100;

  /// Load-to-use bubble in the 5-stage in-order pipe.
  Cycle load_use_penalty = 1;

  /// Superinstruction trace cache for the batched engine's ALU fast path.
  TraceConfig trace{};
};

}  // namespace flexstep::arch
