// Fig. 4(a): Performance slowdown of Parsec 3.0 under LockStep, FlexStep and
// Nzdc (dual-core verification).
//
// Paper result: FlexStep geomean +1.07%; Nzdc ~ +57.7% (and fails to build
// bodytrack / ferret); LockStep 1.0 by construction (at 2x area).
#include "bench_util.h"

int main() {
  return flexstep::bench::run_fig4(
      "== Fig. 4(a): Parsec 3.0 slowdown (LockStep / FlexStep / Nzdc) ==",
      flexstep::workloads::parsec_profiles(),
      "FlexStep geomean 1.0107 (+1.07%); Nzdc ~1.577; LockStep 1.0 "
      "(with a full duplicate core).");
}
