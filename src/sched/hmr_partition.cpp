#include "sched/hmr_partition.h"

#include <algorithm>

#include "common/check.h"

namespace flexstep::sched {

bool edf_blocking_schedulable(const CorePlan& core) {
  for (const auto& item : core.items) {
    double demand = 0.0;
    for (const auto& other : core.items) {
      if (other.deadline <= item.deadline) demand += other.density;
    }
    // Verification executions cannot be preempted by *non-verification*
    // tasks (paper Sec. I/II); verification-vs-verification preemption is
    // allowed, so only non-verification items suffer the blocking term.
    double blocking = 0.0;
    if (!item.blocking_source) {
      for (const auto& other : core.items) {
        if (other.blocking_source && other.deadline > item.deadline) {
          blocking = std::max(blocking, other.wcet);
        }
      }
    }
    if (demand + blocking / item.deadline > 1.0 + 1e-12) return false;
  }
  return true;
}

namespace {

void place(CorePlan& core, const Task& task, bool is_check, bool blocking) {
  core.items.push_back(
      {task.id, is_check, task.wcet, task.deadline(), task.utilization(), blocking});
  core.density += task.utilization();
}

}  // namespace

PartitionResult hmr_partition(const TaskSet& tasks, u32 m) {
  PartitionResult result;
  result.cores.assign(m, {});
  std::vector<bool> has_verification(m, false);

  auto v3 = sorted_by_utilization(tasks, TaskType::kV3);
  auto v2 = sorted_by_utilization(tasks, TaskType::kV2);
  if (!v3.empty() && m < 3) {
    result.failure_reason = "triple-check task with fewer than 3 cores";
    return result;
  }
  if ((!v3.empty() || !v2.empty()) && m < 2) {
    result.failure_reason = "verification task with fewer than 2 cores";
    return result;
  }

  std::vector<const Task*> verification;
  verification.insert(verification.end(), v3.begin(), v3.end());
  verification.insert(verification.end(), v2.begin(), v2.end());

  // Verification tasks are concentrated: split-lock reuses the same physical
  // main/checker pairing whenever it fits, so non-verification tasks keep
  // blocking-free cores. Choose the fullest verification core with room
  // (best-fit decreasing); open a fresh minimum-density core otherwise.
  auto pick_verification_core = [&](i32 excl_a, i32 excl_b) -> u32 {
    i32 best = -1;
    for (u32 k = 0; k < m; ++k) {
      if (static_cast<i32>(k) == excl_a || static_cast<i32>(k) == excl_b) continue;
      if (!has_verification[k]) continue;
      if (best >= 0 && result.cores[k].density <= result.cores[best].density) continue;
      best = static_cast<i32>(k);
    }
    return best >= 0 ? static_cast<u32>(best) : argmin_density(result.cores, excl_a, excl_b);
  };

  for (const Task* task : verification) {
    const u32 copies = num_copies(task->type);
    const double u = task->utilization();

    auto fits = [&](u32 k) { return result.cores[k].density + u <= 1.0 + 1e-12; };
    u32 k = pick_verification_core(-1, -1);
    if (!fits(k)) k = argmin_density(result.cores);
    place(result.cores[k], *task, false, /*blocking=*/true);
    has_verification[k] = true;

    i32 used_a = static_cast<i32>(k);
    i32 used_b = -1;
    for (u32 c = 0; c < copies; ++c) {
      u32 kc = pick_verification_core(used_a, used_b);
      if (!fits(kc)) kc = argmin_density(result.cores, used_a, used_b);
      place(result.cores[kc], *task, true, /*blocking=*/true);
      has_verification[kc] = true;
      if (used_b < 0) {
        used_b = static_cast<i32>(kc);
      } else {
        used_a = static_cast<i32>(kc);  // (never needed beyond 2 copies)
      }
    }
  }

  // Non-verification tasks: prefer cores free of verification load, then
  // worst-fit anywhere.
  for (const Task* task : sorted_by_utilization(tasks, TaskType::kNormal)) {
    i32 best = -1;
    for (u32 k = 0; k < m; ++k) {
      if (has_verification[k]) continue;
      if (best < 0 || result.cores[k].density < result.cores[best].density) {
        best = static_cast<i32>(k);
      }
    }
    if (best < 0) best = static_cast<i32>(argmin_density(result.cores));
    place(result.cores[best], *task, false, /*blocking=*/false);
  }

  accept_unless_overloaded(result, "core utilisation exceeds 1",
                           &edf_blocking_schedulable, "EDF blocking test failed");
  return result;
}

}  // namespace flexstep::sched
