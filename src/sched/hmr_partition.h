// HMR (Hybrid Modular Redundancy) baseline partitioning (paper Sec. VI-B).
//
// Split-lock at runtime: a verification task's original computation runs on a
// main core while mirrored cop(ies) occupy checker core(s) *synchronously* —
// same C, T, D. Cores are not statically bound, so checker-side capacity is
// reusable by other tasks when no verification is running. The binding
// constraints remain: (i) mirrors add full utilisation to their cores, and
// (ii) verification execution cannot be preempted by non-verification tasks,
// which shows up as a blocking term in the per-core EDF test:
//     ∀ τi on core k:  Σ_{Dj ≤ Di} δj + max{Cb : blocking source, Db > Di}/Di ≤ 1
// (Baker-style non-preemption blocking under EDF. The paper does not
// formalise its HMR test; this one is our reading of the two constraints.)
#pragma once

#include "sched/partition.h"

namespace flexstep::sched {

/// The per-core EDF density test with non-preemption blocking (exposed for
/// tests and the ablation benches).
bool edf_blocking_schedulable(const CorePlan& core);

PartitionResult hmr_partition(const TaskSet& tasks, u32 m);

}  // namespace flexstep::sched
