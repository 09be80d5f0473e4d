// Sporadic task model of paper Sec. V.
//
// A task τi has WCET Ci, period Ti, implicit deadline Di = Ti, and one of
// three reliability classes: T^N (no verification), T^V2 (double-check: one
// duplicated computation) or T^V3 (triple-check: two duplicated computations).
// Under the asynchronous model, a verification task's original computation is
// scheduled against a *virtual deadline* D'i reserving time for the
// duplicated computation(s) to finish by Di:
//     T^V2: D'i = Di/2          T^V3: D'i = (√2 − 1)·Di
// chosen to minimise total density δo + (copies)·δv (paper Sec. V).
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/types.h"

namespace flexstep::sched {

enum class TaskType : u8 { kNormal, kV2, kV3 };

/// Number of duplicated computations (checker copies) for a class.
constexpr u32 num_copies(TaskType t) {
  switch (t) {
    case TaskType::kNormal: return 0;
    case TaskType::kV2: return 1;
    case TaskType::kV3: return 2;
  }
  return 0;
}

struct Task {
  u32 id = 0;
  double wcet = 0.0;    ///< Ci.
  double period = 0.0;  ///< Ti = Di (implicit deadline).
  TaskType type = TaskType::kNormal;

  double deadline() const { return period; }
  double utilization() const { return wcet / period; }

  /// Virtual deadline D'i for the original computation (= Di for T^N).
  double virtual_deadline() const {
    switch (type) {
      case TaskType::kNormal: return period;
      case TaskType::kV2: return period / 2.0;
      case TaskType::kV3: return (std::sqrt(2.0) - 1.0) * period;
    }
    return period;
  }

  /// Density of the original computation under the virtual deadline.
  double density_original() const { return wcet / virtual_deadline(); }
  /// Density of each duplicated computation (window Di − D'i).
  double density_check() const { return wcet / (period - virtual_deadline()); }
};

using TaskSet = std::vector<Task>;

double total_utilization(const TaskSet& tasks);

/// Fractions of the set in each class (by count).
struct TypeCounts {
  u32 normal = 0;
  u32 v2 = 0;
  u32 v3 = 0;
};
TypeCounts count_types(const TaskSet& tasks);

}  // namespace flexstep::sched
