// Fig. 4(b): Performance slowdown of full SPECint CPU2006 under LockStep,
// FlexStep and Nzdc (dual-core verification).
//
// Paper result: FlexStep geomean +1.24%; Nzdc ~ +91.5% (fails to build gcc).
#include "bench_util.h"

int main() {
  return flexstep::bench::run_fig4(
      "== Fig. 4(b): SPECint 2006 slowdown (LockStep / FlexStep / Nzdc) ==",
      flexstep::workloads::specint_profiles(),
      "FlexStep geomean 1.0124 (+1.24%); Nzdc ~1.915; LockStep 1.0.");
}
