#include "sched/flexstep_partition.h"

#include <algorithm>

#include "common/check.h"

namespace flexstep::sched {

u32 argmin_density(const std::vector<CorePlan>& cores, i32 exclude_a, i32 exclude_b) {
  i32 best = -1;
  for (u32 k = 0; k < cores.size(); ++k) {
    if (static_cast<i32>(k) == exclude_a || static_cast<i32>(k) == exclude_b) continue;
    if (best < 0 || cores[k].density < cores[best].density) best = static_cast<i32>(k);
  }
  FLEX_CHECK_MSG(best >= 0, "no eligible core");
  return static_cast<u32>(best);
}

std::vector<const Task*> sorted_by_utilization(const TaskSet& tasks, TaskType type) {
  std::vector<const Task*> out;
  for (const auto& t : tasks) {
    if (t.type == type) out.push_back(&t);
  }
  std::sort(out.begin(), out.end(), [](const Task* a, const Task* b) {
    if (a->utilization() != b->utilization()) return a->utilization() > b->utilization();
    return a->id < b->id;
  });
  return out;
}

void accept_unless_overloaded(PartitionResult& result, const char* overload,
                              bool (*extra)(const CorePlan&), const char* extra_reason) {
  for (const CorePlan& core : result.cores) {
    if (core.density > 1.0 + 1e-12) {
      result.failure_reason = overload;
      return;
    }
    if (extra != nullptr && !extra(core)) {
      result.failure_reason = extra_reason;
      return;
    }
  }
  result.schedulable = true;
}

namespace {

void place(CorePlan& core, const Task& task, bool is_check, double deadline,
           double density) {
  core.items.push_back({task.id, is_check, task.wcet, deadline, density, false});
  core.density += density;
}

/// Alg. 3's placement loop. With `virtual_deadlines` a verification task's
/// original computation takes its virtual deadline D' and density δo, and
/// each duplicated computation the window density δv; without (the
/// fallback), every computation takes the task's deadline and utilisation.
PartitionResult place_flexstep(const TaskSet& tasks, u32 m, bool virtual_deadlines) {
  PartitionResult result;
  result.cores.assign(m, {});

  // T^V3 needs three distinct cores; T^V2 two.
  if (m < 2) {
    result.failure_reason = "fewer than 2 cores";
    return result;
  }

  // Verification tasks in descending utilisation (V3 first, matching Alg. 3's
  // iteration over {T^V3, T^V2}).
  std::vector<const Task*> verification = sorted_by_utilization(tasks, TaskType::kV3);
  if (!verification.empty() && m < 3) {
    result.failure_reason = "triple-check task with fewer than 3 cores";
    return result;
  }
  const auto v2 = sorted_by_utilization(tasks, TaskType::kV2);
  verification.insert(verification.end(), v2.begin(), v2.end());

  for (const Task* task : verification) {
    const double u = task->utilization();
    const double d_original =
        virtual_deadlines ? task->virtual_deadline() : task->deadline();
    const double delta_o = virtual_deadlines ? task->density_original() : u;
    const double delta_v = virtual_deadlines ? task->density_check() : u;

    const u32 k = argmin_density(result.cores);
    place(result.cores[k], *task, false, d_original, delta_o);

    const u32 k1 = argmin_density(result.cores, static_cast<i32>(k));
    place(result.cores[k1], *task, true, task->deadline(), delta_v);

    if (task->type == TaskType::kV3) {
      const u32 k2 =
          argmin_density(result.cores, static_cast<i32>(k), static_cast<i32>(k1));
      place(result.cores[k2], *task, true, task->deadline(), delta_v);
    }
  }

  for (const Task* task : sorted_by_utilization(tasks, TaskType::kNormal)) {
    const u32 k = argmin_density(result.cores);
    place(result.cores[k], *task, false, task->deadline(), task->utilization());
  }

  accept_unless_overloaded(result, virtual_deadlines ? "core density exceeds 1"
                                                     : "core utilisation exceeds 1");
  return result;
}

}  // namespace

PartitionResult flexstep_partition(const TaskSet& tasks, u32 m) {
  return place_flexstep(tasks, m, /*virtual_deadlines=*/true);
}

PartitionResult flexstep_partition_fallback(const TaskSet& tasks, u32 m) {
  return place_flexstep(tasks, m, /*virtual_deadlines=*/false);
}

bool flexstep_schedulable(const TaskSet& tasks, u32 m) {
  if (flexstep_partition(tasks, m).schedulable) return true;
  return flexstep_partition_fallback(tasks, m).schedulable;
}

}  // namespace flexstep::sched
