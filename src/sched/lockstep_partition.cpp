#include "sched/lockstep_partition.h"

#include <algorithm>

#include "common/check.h"

namespace flexstep::sched {

namespace {

struct Group {
  u32 main_core;          ///< Index into result.cores.
  u32 checkers;           ///< 1 = pair (DCLS), 2 = triple (TCLS).
};

void place_task(CorePlan& core, const Task& task) {
  core.items.push_back(
      {task.id, false, task.wcet, task.deadline(), task.utilization(), false});
  core.density += task.utilization();
}

}  // namespace

PartitionResult lockstep_partition(const TaskSet& tasks, u32 m) {
  PartitionResult result;
  result.cores.assign(m, {});

  u32 free_cores = m;                 // not yet grouped / used
  u32 next_core = 0;                  // cores are claimed in index order
  std::vector<Group> pair_groups;
  std::vector<Group> triple_groups;
  std::vector<bool> is_checker(m, false);

  auto try_allocate = [&](const Task& task, std::vector<Group>& groups,
                          u32 checkers) -> bool {
    // Fill the most recent group first (groups open only when needed).
    for (auto& group : groups) {
      CorePlan& core = result.cores[group.main_core];
      if (core.density + task.utilization() <= 1.0 + 1e-12) {
        place_task(core, task);
        return true;
      }
    }
    // Open a new group: 1 main + `checkers` checker cores.
    if (free_cores < checkers + 1) return false;
    Group group{next_core, checkers};
    next_core += 1;
    for (u32 c = 0; c < checkers; ++c) is_checker[next_core + c] = true;
    next_core += checkers;
    free_cores -= checkers + 1;
    groups.push_back(group);
    CorePlan& core = result.cores[group.main_core];
    if (core.density + task.utilization() > 1.0 + 1e-12) return false;
    place_task(core, task);
    return true;
  };

  // Verification tasks first (descending utilisation), V3 before V2 since
  // triple groups are the scarcer resource.
  for (const Task* task : sorted_by_utilization(tasks, TaskType::kV3)) {
    if (!try_allocate(*task, triple_groups, 2)) {
      result.failure_reason = "cannot form/fit a triple lockstep group";
      return result;
    }
  }
  for (const Task* task : sorted_by_utilization(tasks, TaskType::kV2)) {
    if (!try_allocate(*task, pair_groups, 1)) {
      result.failure_reason = "cannot form/fit a pair lockstep group";
      return result;
    }
  }

  // Non-verification tasks: worst-fit over usable cores (group mains +
  // ungrouped cores). Checker cores are unusable — the LockStep waste.
  for (const Task* task : sorted_by_utilization(tasks, TaskType::kNormal)) {
    i32 best = -1;
    for (u32 k = 0; k < m; ++k) {
      if (is_checker[k]) continue;
      if (best < 0 || result.cores[k].density < result.cores[best].density) {
        best = static_cast<i32>(k);
      }
    }
    FLEX_CHECK(best >= 0);
    place_task(result.cores[best], *task);
  }

  accept_unless_overloaded(result, "core utilisation exceeds 1");
  return result;
}

}  // namespace flexstep::sched
