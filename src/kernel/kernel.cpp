#include "kernel/kernel.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "isa/instruction.h"

namespace flexstep::kernel {

using arch::Core;
using arch::TrapAction;
using arch::TrapCause;
using fs::CoreUnit;

namespace {
constexpr Cycle kContextSwitchCost = 2000;  ///< ~1.25 µs at 1.6 GHz.
constexpr Cycle kEcallCost = 1200;
constexpr Cycle kTickCost = 200;  ///< Non-switching timer tick excursion.
}

Kernel::Kernel(soc::Soc& soc, KernelConfig config) : soc_(soc), config_(config) {
  cores_.resize(soc_.num_cores());
}

Kernel::~Kernel() = default;

u32 Kernel::add_task(RtTaskSpec spec) {
  FLEX_CHECK_MSG(!ran_, "add_task after run()");
  FLEX_CHECK(spec.period > 0);
  FLEX_CHECK(spec.core < soc_.num_cores());
  FLEX_CHECK(sched::num_copies(spec.type) == spec.checker_cores.size());
  for (CoreId c : spec.checker_cores) {
    FLEX_CHECK(c < soc_.num_cores());
    FLEX_CHECK(c != spec.core);
  }
  soc_.load_program(spec.program);
  tasks_.push_back(std::move(spec));
  return static_cast<u32>(tasks_.size() - 1);
}

u64 Kernel::checker_mask_of(const RtTaskSpec& task) const {
  u64 mask = 0;
  for (CoreId c : task.checker_cores) mask |= u64{1} << c;
  return mask;
}

// ---------------------------------------------------------------------------
// Custom-ISA sequences (Alg. 1 / Alg. 2 building blocks)
// ---------------------------------------------------------------------------

void Kernel::isa_configure_global(Core& core) {
  core.set_reg(5, current_main_mask_);
  core.set_reg(6, current_checker_mask_);
  core.exec_kernel_instruction(isa::make_r(isa::Opcode::kGConfigure, 0, 5, 6));
}

void Kernel::isa_check_disable(Core& core) {
  core.exec_kernel_instruction(isa::make_i(isa::Opcode::kMCheck, 0, 0, 0));
}

void Kernel::isa_check_enable_and_associate(Core& core, Job& job) {
  const RtTaskSpec& task = tasks_[job.task_id];
  core.set_reg(6, checker_mask_of(task));
  core.exec_kernel_instruction(isa::make_r(isa::Opcode::kMAssociate, 0, 6, 0));
  // Selective checking passes the remaining per-job budget through rs1.
  u8 budget_reg = 0;
  if (task.verify_budget != 0) {
    core.set_reg(7, job.budget_left);
    budget_reg = 7;
  }
  core.exec_kernel_instruction(isa::make_i(isa::Opcode::kMCheck, 0, budget_reg, 1));
  job.channels = soc_.unit(core.id()).out_channels();
}

void Kernel::isa_checker_set_state(Core& core, bool busy) {
  core.exec_kernel_instruction(
      isa::make_i(isa::Opcode::kCCheckState, 0, 0, busy ? 1 : 0));
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void Kernel::release_due_jobs(CoreId core, Cycle now) {
  auto& state = cores_[core];
  while (!state.pending.empty() && jobs_[state.pending.front()].release <= now) {
    const u32 id = state.pending.front();
    state.pending.pop_front();
    jobs_[id].state = Job::State::kReady;
    state.ready.push_back(id);
    ++stats_.released;
  }
}

i32 Kernel::pick_edf(CoreId core) const {
  const auto& ready = cores_[core].ready;
  i32 best = -1;
  for (u32 id : ready) {
    if (best < 0 || jobs_[id].abs_deadline < jobs_[best].abs_deadline ||
        (jobs_[id].abs_deadline == jobs_[best].abs_deadline &&
         id < static_cast<u32>(best))) {
      best = static_cast<i32>(id);
    }
  }
  return best;
}

void Kernel::arm_timer(CoreId core) {
  auto& state = cores_[core];
  if (state.pending.empty()) {
    soc_.core(core).clear_timer();
  } else {
    soc_.core(core).set_timer(jobs_[state.pending.front()].release);
  }
}

void Kernel::save_current(Core& core, bool requeue) {
  auto& state = cores_[core.id()];
  if (state.current < 0) return;
  Job& job = jobs_[static_cast<u32>(state.current)];
  job.saved_ctx = core.capture_state();
  job.has_ctx = true;
  if (job.is_checker) {
    job.replay_ctx = soc_.unit(core.id()).extract_replay_context();
    soc_.unit(core.id()).set_in_channel(nullptr);
  }
  if (requeue) {
    job.state = Job::State::kPreempted;
    state.ready.push_back(job.id);
    ++stats_.preemptions;
  }
  state.current = -1;
}

void Kernel::park_or_idle(Core& core) {
  core.set_idle();
  arm_timer(core.id());
}

void Kernel::dispatch(Core& core, Job& job) {
  auto& state = cores_[core.id()];
  // Remove from the ready list.
  state.ready.erase(std::find(state.ready.begin(), state.ready.end(), job.id));
  state.current = static_cast<i32>(job.id);
  job.state = Job::State::kRunning;
  ++stats_.context_switches;

  CoreUnit& unit = soc_.unit(core.id());
  const RtTaskSpec& task = tasks_[job.task_id];

  // Alg. 1 lines 13-16: (re)configure the global registers for this core's
  // new attribute before launching the job.
  const u64 bit = u64{1} << core.id();
  current_main_mask_ &= ~bit;
  current_checker_mask_ &= ~bit;
  if (job.is_checker) {
    current_checker_mask_ |= bit;
  } else if (task.type != sched::TaskType::kNormal) {
    current_main_mask_ |= bit;
  }
  isa_configure_global(core);

  if (job.is_checker) {
    // Alg. 1 lines 26-28 + the Alg. 2 checker thread.
    isa_checker_set_state(core, true);
    unit.set_in_channel(job.in_channel);
    unit.adopt_replay_context(job.replay_ctx);
    job.replay_ctx = {};
    if (unit.replay_suspended()) {
      // Resume a preempted mid-segment replay.
      core.restore_state(job.saved_ctx);
      unit.resume_replay();
      core.activate();
    } else {
      // Waiting for an SCP (Alg. 2 line 8): parked until the stream is ready;
      // pump() performs record/apply/jal as soon as a segment arrives.
      core.set_user_mode(false);
      core.set_idle();
    }
    job.started = true;
    arm_timer(core.id());
    return;
  }

  // Original (or non-verification) job.
  if (job.has_ctx) {
    core.restore_state(job.saved_ctx);
  } else {
    arch::ArchState fresh{};
    fresh.pc = task.program.entry();
    core.restore_state(fresh);
  }
  core.set_user_mode(false);
  const bool wants_checking =
      task.type != sched::TaskType::kNormal &&
      (task.verify_budget == 0 || job.budget_left > 0);
  if (wants_checking) {
    // Alg. 1 lines 22-25.
    isa_check_enable_and_associate(core, job);
    // Late-bind the checker jobs' input channels (first dispatch only).
    for (u32 jid = 0; jid < jobs_.size(); ++jid) {
      Job& checker = jobs_[jid];
      if (checker.is_checker && checker.main_job == static_cast<i32>(job.id) &&
          checker.in_channel == nullptr) {
        for (fs::Channel* ch : job.channels) {
          if (ch->checker_id() == checker.core) checker.in_channel = ch;
        }
        // If the checker job is currently dispatched and parked, hand the
        // channel to its unit immediately.
        if (cores_[checker.core].current == static_cast<i32>(jid)) {
          soc_.unit(checker.core).set_in_channel(checker.in_channel);
        }
      }
    }
  }
  core.set_user_mode(true);  // Kernel.Context.jalr (Alg. 1 line 29)
  core.activate();
  job.started = true;
  arm_timer(core.id());
}

void Kernel::context_switch(Core& core, bool requeue_current) {
  CoreUnit& unit = soc_.unit(core.id());
  // Alg. 1 lines 3-7: switch off the checking function by core attribute.
  const fs::CoreAttr attr = unit.attr();
  if (attr == fs::CoreAttr::kMain) {
    // Preserve the outgoing job's selective-checking budget before the
    // disable clears the CPC state.
    auto& state = cores_[core.id()];
    if (state.current >= 0) {
      Job& current = jobs_[static_cast<u32>(state.current)];
      if (!current.is_checker && tasks_[current.task_id].verify_budget != 0) {
        current.budget_left = unit.checking_budget();
      }
    }
    isa_check_disable(core);
  } else if (attr == fs::CoreAttr::kChecker) {
    isa_checker_set_state(core, false);
  }
  save_current(core, requeue_current);

  release_due_jobs(core.id(), core.cycle());
  const i32 next = pick_edf(core.id());
  if (next < 0) {
    park_or_idle(core);
    return;
  }
  dispatch(core, jobs_[static_cast<u32>(next)]);
}

void Kernel::complete_job(Core& core, Job& job) {
  job.completed = true;
  job.completed_at = core.cycle();
  job.state = Job::State::kDone;
  ++stats_.completed;
  const bool missed = job.completed_at > job.abs_deadline;
  if (missed) ++stats_.missed;
  stats_.jobs.push_back({job.task_id, job.job_index, job.is_checker, job.release,
                         job.abs_deadline, job.completed_at, true, missed});

  if (job.is_checker) {
    soc_.unit(core.id()).set_in_channel(nullptr);
    return;
  }
  if (tasks_[job.task_id].type != sched::TaskType::kNormal) {
    // Verification job done: close the stream so checkers can finish draining.
    soc_.fabric().dissociate(core.id());
    for (auto& other : jobs_) {
      if (other.is_checker && other.main_job == static_cast<i32>(job.id)) {
        other.main_finished = true;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trap handling
// ---------------------------------------------------------------------------

TrapAction Kernel::on_trap(Core& core, TrapCause cause) {
  auto& state = cores_[core.id()];
  switch (cause) {
    case TrapCause::kEcall:
      return {TrapAction::Kind::kResumeUser, kEcallCost};

    case TrapCause::kTimer: {
      release_due_jobs(core.id(), core.cycle());
      const i32 best = pick_edf(core.id());
      const i32 cur = state.current;
      const bool preempt =
          best >= 0 && (cur < 0 || jobs_[static_cast<u32>(best)].abs_deadline <
                                       jobs_[static_cast<u32>(cur)].abs_deadline);
      if (preempt) {
        context_switch(core, /*requeue_current=*/true);
        return {TrapAction::Kind::kContextSwitched, kContextSwitchCost};
      }
      arm_timer(core.id());
      return {TrapAction::Kind::kResumeUser, kTickCost};
    }

    case TrapCause::kTaskExit: {
      FLEX_CHECK(state.current >= 0);
      Job& job = jobs_[static_cast<u32>(state.current)];
      complete_job(core, job);
      state.current = -1;
      context_switch(core, /*requeue_current=*/false);
      return {TrapAction::Kind::kContextSwitched, kContextSwitchCost};
    }

    case TrapCause::kFetchFault: {
      CoreUnit& unit = soc_.unit(core.id());
      if (unit.replay_active() || unit.replay_suspended()) {
        unit.on_replay_fetch_fault();  // detection, not a crash
        return {TrapAction::Kind::kContextSwitched, 0};
      }
      FLEX_CHECK_MSG(false, "fetch fault outside replay");
      return {TrapAction::Kind::kHalt, 0};
    }

    case TrapCause::kIllegal:
      return {TrapAction::Kind::kHalt, 0};
  }
  return {TrapAction::Kind::kHalt, 0};
}

// ---------------------------------------------------------------------------
// Co-simulation loop
// ---------------------------------------------------------------------------

void Kernel::check_checker_progress(CoreId core_id) {
  auto& state = cores_[core_id];
  if (state.current < 0) return;
  Job& job = jobs_[static_cast<u32>(state.current)];
  if (!job.is_checker) return;
  Core& core = soc_.core(core_id);
  CoreUnit& unit = soc_.unit(core_id);

  if (unit.replay_active() || unit.replay_suspended()) return;

  if (job.in_channel == nullptr && job.main_job >= 0) {
    // Late channel binding (main job may have dispatched after us).
    const Job& main_job = jobs_[static_cast<u32>(job.main_job)];
    for (fs::Channel* ch : main_job.channels) {
      if (ch->checker_id() == core_id) {
        job.in_channel = ch;
        unit.set_in_channel(ch);
      }
    }
  }
  if (job.in_channel == nullptr) return;

  if (job.main_finished && job.in_channel->drained()) {
    complete_job(core, job);
    state.current = -1;
    context_switch(core, /*requeue_current=*/false);
    return;
  }
  if (job.in_channel->segment_ready(core.cycle())) {
    core.activate();
    unit.begin_replay();
    return;
  }
  const Cycle ready_at = job.in_channel->next_segment_ready_at();
  if (ready_at != fs::kNever) {
    core.advance_to(ready_at);
    core.activate();
    unit.begin_replay();
    return;
  }
  // Nothing to do yet: stay parked.
  if (core.status() == Core::Status::kRunning) core.set_idle();
}

void Kernel::pump(Cycle min_running_cycle) {
  (void)min_running_cycle;
  // ---- Phase A: dispatch, checker progress, unblocking ----
  for (CoreId id = 0; id < soc_.num_cores(); ++id) {
    Core& core = soc_.core(id);
    auto& state = cores_[id];

    // Dispatch idle cores (no current job) as soon as work exists: either a
    // ready job now, or a pending future release (the core's local clock
    // jumps to the release — releases are pre-known, so this is safe).
    if (state.current < 0 && core.status() == Core::Status::kIdle) {
      release_due_jobs(id, core.cycle());
      i32 pick = pick_edf(id);
      if (pick < 0 && !state.pending.empty()) {
        const Cycle at = jobs_[state.pending.front()].release;
        core.advance_to(at);
        release_due_jobs(id, at);
        pick = pick_edf(id);
      }
      if (pick >= 0) dispatch(core, jobs_[static_cast<u32>(pick)]);
    }

    // Parked checker cores: scheduler decisions happen directly (the core is
    // not executing, so no trap is needed). A release with an earlier
    // deadline preempts the waiting checker job.
    if (state.current >= 0 && core.status() == Core::Status::kIdle &&
        jobs_[static_cast<u32>(state.current)].is_checker) {
      release_due_jobs(id, core.cycle());
      if (!state.pending.empty()) {
        // Future releases are evaluated immediately while parked; a losing
        // job simply stays queued (EDF picks by deadline).
        const Cycle r = jobs_[state.pending.front()].release;
        const i32 cur = state.current;
        if (jobs_[state.pending.front()].abs_deadline <
            jobs_[static_cast<u32>(cur)].abs_deadline) {
          core.advance_to(r);
          release_due_jobs(id, r);
        }
      }
      const i32 best = pick_edf(id);
      if (best >= 0 && jobs_[static_cast<u32>(best)].abs_deadline <
                           jobs_[static_cast<u32>(state.current)].abs_deadline) {
        context_switch(core, /*requeue_current=*/true);
      } else {
        check_checker_progress(id);
      }
      continue;
    }

    // Backpressure resolution for blocked main cores.
    if (core.status() == Core::Status::kBlocked) {
      CoreUnit& unit = soc_.unit(id);
      if (unit.out_channels_have_space()) {
        core.unblock_at(std::max(core.cycle(), unit.out_channel_space_available_at()));
      }
    }
  }

  // ---- Phase B: timer delivery to still-blocked cores ----
  // Causality gate: nothing already schedulable may still happen before the
  // timer time — consider running cores and parked checkers' pending work.
  Cycle live_min = std::numeric_limits<Cycle>::max();
  for (CoreId id = 0; id < soc_.num_cores(); ++id) {
    Core& core = soc_.core(id);
    if (core.status() == Core::Status::kRunning) {
      live_min = std::min(live_min, core.cycle());
    } else if (core.status() == Core::Status::kIdle && cores_[id].current >= 0) {
      const Cycle ready_at = soc_.unit(id).next_segment_ready_at();
      if (ready_at != fs::kNever) live_min = std::min(live_min, ready_at);
    }
  }
  for (CoreId id = 0; id < soc_.num_cores(); ++id) {
    Core& core = soc_.core(id);
    if (core.status() == Core::Status::kBlocked && core.timer_armed() &&
        core.timer_at() <= live_min && cores_[id].current >= 0) {
      const Cycle at = std::max(core.cycle(), core.timer_at());
      core.clear_timer();
      core.deliver_interrupt(TrapCause::kTimer, at);
    }
  }
}

Core* Kernel::pick_next_core() {
  Core* best = nullptr;
  for (CoreId id = 0; id < soc_.num_cores(); ++id) {
    Core& core = soc_.core(id);
    if (core.status() != Core::Status::kRunning) continue;
    if (best == nullptr || core.cycle() < best->cycle()) best = &core;
  }
  return best;
}

bool Kernel::all_done() const {
  for (const auto& job : jobs_) {
    if (!job.completed) return false;
  }
  return true;
}

void Kernel::run() {
  FLEX_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;

  // ---- generate the job sets ----
  for (u32 tid = 0; tid < tasks_.size(); ++tid) {
    const RtTaskSpec& task = tasks_[tid];
    u32 index = 0;
    for (Cycle release = task.first_release;
         release + task.period <= config_.horizon; release += task.period) {
      if (task.max_jobs != 0 && index >= task.max_jobs) break;
      Job original;
      original.id = static_cast<u32>(jobs_.size());
      original.task_id = tid;
      original.job_index = index;
      original.core = task.core;
      original.release = release;
      original.abs_deadline = release + task.period;
      original.budget_left = task.verify_budget;
      jobs_.push_back(original);
      const u32 original_id = original.id;

      for (CoreId checker_core : task.checker_cores) {
        Job checker;
        checker.id = static_cast<u32>(jobs_.size());
        checker.task_id = tid;
        checker.job_index = index;
        checker.is_checker = true;
        checker.core = checker_core;
        checker.release = release;
        checker.abs_deadline = release + task.period;
        checker.main_job = static_cast<i32>(original_id);
        jobs_.push_back(checker);
      }
      ++index;
    }
  }

  // Per-core pending queues ordered by release.
  for (const auto& job : jobs_) cores_[job.core].pending.push_back(job.id);
  for (auto& state : cores_) {
    std::sort(state.pending.begin(), state.pending.end(), [&](u32 a, u32 b) {
      if (jobs_[a].release != jobs_[b].release) return jobs_[a].release < jobs_[b].release;
      return a < b;
    });
  }

  // ---- wire the SoC ----
  for (CoreId id = 0; id < soc_.num_cores(); ++id) {
    Core& core = soc_.core(id);
    core.set_trap_handler(this);
    core.set_user_mode(false);
    core.set_idle();
    soc_.unit(id).set_on_segment_done(
        [this, id](CoreUnit&, bool) { check_checker_progress(id); });
  }

  // ---- main loop ----
  u64 safety = 0;
  u32 stall_iterations = 0;
  const u64 safety_cap = 4'000'000'000ULL;
  while (!all_done()) {
    FLEX_CHECK_MSG(++safety < safety_cap, "kernel co-simulation runaway");

    Core* next = pick_next_core();
    const Cycle min_running =
        next != nullptr ? next->cycle() : std::numeric_limits<Cycle>::max();
    pump(min_running);
    next = pick_next_core();
    if (next != nullptr) {
      stall_iterations = 0;
      next->step();
      continue;
    }
    // Nothing runnable: pump() either made progress through dispatch /
    // checker wake-ups / unblocking, or the configuration is wedged.
    FLEX_CHECK_MSG(++stall_iterations < 4, "kernel co-simulation deadlock");
  }

  // Record any never-completed jobs (defensive; all_done implies none).
  for (const auto& job : jobs_) {
    if (!job.completed) {
      stats_.jobs.push_back({job.task_id, job.job_index, job.is_checker, job.release,
                             job.abs_deadline, 0, false, true});
      ++stats_.missed;
    }
  }
}

}  // namespace flexstep::kernel
