// RTOS kernel model: partitioned EDF with full FlexStep integration.
//
// This is the paper's Sec. IV in executable form. The kernel is host-level
// software (see arch/trap.h) driving the simulated cores through their
// privileged API and the FlexStep custom ISA:
//   * Alg. 1 — every context switch disables checking / idles the checker,
//     (re-)writes the global configuration registers on new releases, then
//     associates checkers and re-enables checking for verification tasks;
//   * Alg. 2 — checker cores run a dedicated checker thread: record context
//     to the ASS, wait for SCPs, apply + jal, report results.
// Preemption is EDF-driven at job releases via per-core timers; checker jobs
// are first-class schedulable entities and are preemptible mid-replay (the
// capability LockStep/HMR lack, Fig. 1).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "arch/trap.h"
#include "common/types.h"
#include "flexstep/core_unit.h"
#include "kernel/rt_task.h"
#include "soc/soc.h"

namespace flexstep::kernel {

struct KernelConfig {
  Cycle horizon = us_to_cycles(200'000);  ///< Stop releasing jobs after this.
};

class Kernel final : public arch::TrapHandler {
 public:
  Kernel(soc::Soc& soc, KernelConfig config);
  ~Kernel() override;

  /// Register a task (before run()). Returns the task id.
  u32 add_task(RtTaskSpec spec);

  /// Release jobs, schedule, and run the SoC until every released job
  /// completed (or nothing can make progress).
  void run();

  const KernelStats& stats() const { return stats_; }
  soc::Soc& soc() { return soc_; }

  // arch::TrapHandler
  arch::TrapAction on_trap(arch::Core& core, arch::TrapCause cause) override;

 private:
  struct Job {
    u32 id = 0;
    u32 task_id = 0;
    u32 job_index = 0;
    bool is_checker = false;
    CoreId core = 0;
    Cycle release = 0;
    Cycle abs_deadline = 0;

    enum class State : u8 { kPending, kReady, kRunning, kPreempted, kDone };
    State state = State::kPending;

    // Saved execution context (original jobs and mid-replay checker jobs).
    arch::ArchState saved_ctx{};
    bool has_ctx = false;
    bool started = false;

    // Original verification jobs: channels created by M.associate.
    std::vector<fs::Channel*> channels;
    /// Selective checking: instructions of verification still owed this job.
    u64 budget_left = 0;

    // Checker jobs: the stream to verify + per-job replay state.
    fs::Channel* in_channel = nullptr;
    i32 main_job = -1;
    bool main_finished = false;
    fs::CoreUnit::ReplayContext replay_ctx{};

    bool completed = false;
    Cycle completed_at = 0;
  };

  struct CoreState {
    i32 current = -1;                ///< Running job id (-1 = none).
    std::vector<u32> ready;          ///< Ready job ids (EDF picks min deadline).
    std::deque<u32> pending;         ///< Future releases, sorted by release.
  };

  // ---- scheduling ----
  void release_due_jobs(CoreId core, Cycle now);
  i32 pick_edf(CoreId core) const;
  void arm_timer(CoreId core);
  /// Alg. 1: full context switch on `core` to the EDF-best ready job.
  void context_switch(arch::Core& core, bool requeue_current);
  void dispatch(arch::Core& core, Job& job);
  void park_or_idle(arch::Core& core);
  void complete_job(arch::Core& core, Job& job);
  void save_current(arch::Core& core, bool requeue);

  // ---- custom-ISA helpers (the kernel's Alg. 1/2 instruction sequences) ----
  void isa_configure_global(arch::Core& core);
  void isa_check_disable(arch::Core& core);
  void isa_check_enable_and_associate(arch::Core& core, Job& job);
  void isa_checker_set_state(arch::Core& core, bool busy);

  // ---- co-simulation loop ----
  void pump(Cycle frontier);
  arch::Core* pick_next_core();
  bool all_done() const;
  void check_checker_progress(CoreId core_id);
  u64 checker_mask_of(const RtTaskSpec& task) const;

  soc::Soc& soc_;
  KernelConfig config_;
  std::vector<RtTaskSpec> tasks_;
  std::vector<Job> jobs_;
  std::vector<CoreState> cores_;
  u64 current_main_mask_ = 0;
  u64 current_checker_mask_ = 0;
  KernelStats stats_;
  bool ran_ = false;
};

}  // namespace flexstep::kernel
