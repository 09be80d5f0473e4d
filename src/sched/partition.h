// Common partitioning types shared by the three schemes' partitioners.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "sched/task_model.h"

namespace flexstep::sched {

/// One scheduled computation placed on a core: the original job of a task or
/// one of its duplicated (checking) computations.
struct PlacedItem {
  u32 task_id = 0;
  bool is_check_copy = false;
  double wcet = 0.0;
  double deadline = 0.0;  ///< Deadline used for EDF on this core (may be virtual).
  double density = 0.0;
  /// HMR: item executes non-preemptively w.r.t. non-verification work.
  bool blocking_source = false;
};

struct CorePlan {
  std::vector<PlacedItem> items;
  double density = 0.0;  ///< Σ densities (the Δ[k] of Alg. 3).
};

struct PartitionResult {
  bool schedulable = false;
  std::string failure_reason;
  std::vector<CorePlan> cores;
};

/// Index of the minimum-density core, optionally excluding up to two cores.
u32 argmin_density(const std::vector<CorePlan>& cores, i32 exclude_a = -1,
                   i32 exclude_b = -1);

/// Tasks sorted by descending utilisation (stable on id for determinism).
std::vector<const Task*> sorted_by_utilization(const TaskSet& tasks, TaskType type);

/// The per-core test every partitioner ends with: marks `result` schedulable
/// unless a core's density exceeds 1 (failing it with `overload`) or, where
/// given, `extra` rejects the core (failing it with `extra_reason`). Cores are
/// tested in order, both tests per core, and the first failure names it.
void accept_unless_overloaded(PartitionResult& result, const char* overload,
                              bool (*extra)(const CorePlan&) = nullptr,
                              const char* extra_reason = nullptr);

}  // namespace flexstep::sched
