// Synthetic workload program generation.
//
// A generated program is a long unrolled loop whose body realises a
// WorkloadProfile's instruction mix: pseudo-random (LCG-driven) loads/stores
// over the working set, predictable and data-dependent branches, multiplies
// and divides, AMOs, and gated ECALLs. Programs are fully deterministic for a
// given (profile, seed) pair, self-contained (no preset registers needed),
// and use only x3..x15 so the nZDC transform can shadow them into x16..x30.
//
// Register allocation:
//   x3,x4,x14,x15  accumulators (feed stores; checked by nZDC)
//   x5             loop counter
//   x6             LCG state (address/branch entropy)
//   x7,x8          temporaries
//   x9             working-set address mask ((ws-1) & ~7)
//   x10            data base pointer
//   x11            roaming pointer
//   x12            LCG multiplier constant
//   x13            secondary pointer
#pragma once

#include "common/types.h"
#include "isa/assembler.h"
#include "workloads/profile.h"

namespace flexstep::workloads {

struct BuildOptions {
  Addr code_base = isa::kDefaultCodeBase;
  Addr data_base = isa::kDefaultDataBase;
  u64 seed = 1;
  /// Override profile.iterations when non-zero (quick tests).
  u32 iterations_override = 0;
};

/// Generate the simulator program realising `profile`.
isa::Program build_workload(const WorkloadProfile& profile, const BuildOptions& options = {});

}  // namespace flexstep::workloads
