// Workload characteristic profiles.
//
// SPECint 2006 and Parsec 3.0 binaries cannot run on this substrate (no
// Linux userland), so every benchmark is modelled as a synthetic program with
// that benchmark's published character: instruction mix, working-set size
// relative to the cache hierarchy, branch predictability, and kernel-call
// rate. The FlexStep / Nzdc overheads then *emerge* from the mechanisms
// (checkpoint extraction, backpressure, duplicated instructions) rather than
// being hard-coded. See DESIGN.md §2.6.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace flexstep::workloads {

struct WorkloadProfile {
  std::string name;
  std::string suite;  ///< "parsec" or "specint"

  // Dynamic instruction-mix fractions; the remainder is simple ALU.
  double f_load = 0.20;
  double f_store = 0.08;
  double f_branch = 0.12;
  double f_mul = 0.03;
  double f_div = 0.005;
  double f_amo = 0.0;

  /// Fraction of conditional branches with data-dependent (unpredictable)
  /// direction; the rest are loop-style, highly predictable.
  double branch_entropy = 0.3;

  /// Data working set; > 16 KB spills L1, > 512 KB spills L2 (Tab. II).
  u32 working_set_kb = 64;

  /// Kernel calls (ECALL) per 1000 user instructions. Frequent kernel entry
  /// shortens checking segments (Fig. 3 premature extermination).
  double ecalls_per_kinst = 0.05;

  /// nZDC fails to build some workloads (paper: bodytrack, ferret, gcc).
  bool nzdc_compiles = true;

  /// Loop iterations; total dynamic instructions ≈ iterations × body size.
  u32 iterations = 200;

  /// Unrolled loop-body size in generated instructions (pre-transform).
  u32 body_instructions = 2500;
};

/// The 8 Parsec 3.0 applications of Fig. 4(a)/6/7 (simmedium character).
const std::vector<WorkloadProfile>& parsec_profiles();

/// The 11 SPECint 2006 benchmarks of Fig. 4(b).
const std::vector<WorkloadProfile>& specint_profiles();

/// Look up by name across both suites; aborts if unknown.
const WorkloadProfile& find_profile(const std::string& name);

}  // namespace flexstep::workloads
