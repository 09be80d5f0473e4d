#include "soc/verified_run.h"

#include <algorithm>

#include "common/check.h"
#include "isa/instruction.h"
#include "soc/snapshot.h"

namespace flexstep::soc {

using arch::Core;
using arch::TrapAction;
using arch::TrapCause;
using fs::CoreUnit;

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kStepwise: return "stepwise";
    case Engine::kQuantum: return "quantum";
    case Engine::kQuantumBounded: return "bounded";
  }
  return "?";
}

VerifiedExecution::VerifiedExecution(Soc& soc, VerifiedRunConfig config)
    : soc_(soc), config_(std::move(config)) {
  const std::vector<RoleBinding>& roles = config_.roles;
  FLEX_CHECK_MSG(!roles.empty(), "a run needs at least one producer role");
  core_role_.assign(soc_.num_cores(), -1);
  producer_halted_.assign(roles.size(), false);
  u64 producer_mask = 0;
  u64 checker_mask = 0;
  for (std::size_t r = 0; r < roles.size(); ++r) {
    const RoleBinding& role = roles[r];
    FLEX_CHECK_MSG(role.producer < soc_.num_cores(),
                   "role producer out of range");
    FLEX_CHECK_MSG(role.producer < 64, "G.Configure masks hold core ids 0..63");
    FLEX_CHECK_MSG((producer_mask & (u64{1} << role.producer)) == 0,
                   "duplicate producer across roles");
    producer_mask |= u64{1} << role.producer;
    core_role_[role.producer] = static_cast<i32>(r);
    for (CoreId checker : role.checkers) {
      FLEX_CHECK_MSG(checker < soc_.num_cores(), "role checker out of range");
      FLEX_CHECK_MSG(checker < 64, "G.Configure masks hold core ids 0..63");
      if ((checker_mask & (u64{1} << checker)) == 0) {
        checker_mask |= u64{1} << checker;
        checker_ids_.push_back(checker);
      }
    }
  }
  // G.Configure's mask registers are disjoint: no core both produces and
  // checks within one run.
  FLEX_CHECK_MSG((producer_mask & checker_mask) == 0,
                 "a core cannot be both producer and checker in one run");
  for (const RoleBinding& role : roles) sched_order_.push_back(role.producer);
  sched_order_.insert(sched_order_.end(), checker_ids_.begin(),
                      checker_ids_.end());

  const fs::FlexStepConfig& fs_config = soc_.config().flexstep;
  skew_insts_ = std::max<u64>(fs_config.segment_limit, fs_config.channel_capacity / 2);
  FLEX_CHECK(skew_insts_ > 0);
}

VerifiedExecution::~VerifiedExecution() = default;

void VerifiedExecution::install_driver_wiring() {
  for (const RoleBinding& role : config_.roles) {
    soc_.core(role.producer).set_trap_handler(this);
  }
  for (CoreId id : checker_ids_) {
    soc_.core(id).set_trap_handler(this);
    soc_.unit(id).set_on_segment_done([](CoreUnit& unit, bool) {
      // Start the next pending segment immediately, otherwise park.
      if (unit.segment_ready(unit.core().cycle())) {
        unit.begin_replay();
      } else {
        unit.core().set_idle();
      }
    });
  }
}

void VerifiedExecution::prepare(const std::vector<isa::Program>& programs) {
  FLEX_CHECK_MSG(!prepared_, "prepare called twice");
  FLEX_CHECK_MSG(programs.size() == config_.roles.size(),
                 "need exactly one program per producer role");
  prepared_ = true;

  for (const isa::Program& program : programs) {
    if (soc_.images().find(program.entry()) == nullptr) {
      soc_.load_program(program);
    }
  }

  install_driver_wiring();
  for (std::size_t r = 0; r < config_.roles.size(); ++r) {
    Core& producer = soc_.core(config_.roles[r].producer);
    producer.set_user_mode(false);  // kernel performs the setup
    producer.set_pc(programs[r].entry());
    // Conventional initial registers: x2 = stack-ish scratch, x10 = data base.
    producer.set_reg(10, programs[r].data_base);
  }
  if (config_.os_ticks) {
    // Staggered phases: cores enter kernel mode at different times, the
    // "execution inconsistency" the paper identifies (Sec. VI-A). One global
    // phase counter runs over (producers..., checkers...).
    u32 phase = 0;
    for (CoreId id : sched_order_) {
      soc_.core(id).set_timer(config_.tick_period +
                              phase++ * config_.tick_period / 4);
    }
  }

  if (!checker_ids_.empty()) {
    // G.Configure: write the producer/checker ID sets into the global
    // registers (union across every role; the masks are disjoint).
    u64 producer_mask = 0;
    u64 checker_mask = 0;
    for (const RoleBinding& role : config_.roles) {
      producer_mask |= u64{1} << role.producer;
      for (CoreId c : role.checkers) checker_mask |= u64{1} << c;
    }
    Core& first = soc_.core(config_.roles.front().producer);
    first.set_reg(5, producer_mask);
    first.set_reg(6, checker_mask);
    first.exec_kernel_instruction(isa::make_r(isa::Opcode::kGConfigure, 0, 5, 6));

    // Checker side: C.check_state(busy) + C.record, then wait for SCPs.
    for (CoreId id : checker_ids_) {
      Core& checker = soc_.core(id);
      checker.set_user_mode(false);
      checker.exec_kernel_instruction(
          isa::make_i(isa::Opcode::kCCheckState, 0, 0, 1));
      checker.set_idle();  // parked until a segment is ready
    }

    // M.associate + M.check.enable per producer, in role order — a shared
    // checker therefore attaches the first role's channel and waitlists the
    // rest in role order (deterministic arbitration FIFO). The enable
    // snapshots the already-installed user context as the first SCP.
    for (const RoleBinding& role : config_.roles) {
      if (role.checkers.empty()) continue;
      u64 role_mask = 0;
      for (CoreId c : role.checkers) role_mask |= u64{1} << c;
      Core& producer = soc_.core(role.producer);
      producer.set_reg(6, role_mask);
      producer.exec_kernel_instruction(
          isa::make_r(isa::Opcode::kMAssociate, 0, 6, 0));
      producer.exec_kernel_instruction(
          isa::make_i(isa::Opcode::kMCheck, 0, 0, 1));
    }
  }

  for (const RoleBinding& role : config_.roles) {
    Core& producer = soc_.core(role.producer);
    producer.set_user_mode(true);
    producer.activate();
  }
}

void VerifiedExecution::save(Snapshot& out) const {
  soc_.save(out);
  out.exec_prepared = prepared_;
  out.exec_halted_mask = 0;
  for (std::size_t r = 0; r < config_.roles.size(); ++r) {
    if (producer_halted_[r]) {
      out.exec_halted_mask |= u64{1} << config_.roles[r].producer;
    }
  }
}

Snapshot VerifiedExecution::save() const {
  Snapshot out;
  save(out);
  return out;
}

void VerifiedExecution::restore(const Snapshot& snapshot) {
  soc_.restore(snapshot);
  prepared_ = snapshot.exec_prepared;
  for (std::size_t r = 0; r < config_.roles.size(); ++r) {
    producer_halted_[r] =
        (snapshot.exec_halted_mask & (u64{1} << config_.roles[r].producer)) != 0;
  }
  stalled_ = false;  // stall state is not snapshotted: a rewound run re-derives it
  // A freshly constructed driver (fork path) has never wired itself into the
  // cores; an in-place restore re-asserts the same pointers harmlessly.
  install_driver_wiring();
}

TrapAction VerifiedExecution::on_trap(Core& core, TrapCause cause) {
  switch (cause) {
    case TrapCause::kEcall:
      // Workload kernel excursion (modelled cost), then back to user mode.
      return {TrapAction::Kind::kResumeUser, kEcallCost};

    case TrapCause::kTaskExit: {
      const i32 role = role_of(core.id());
      if (role >= 0) {
        if (!config_.roles[static_cast<std::size_t>(role)].checkers.empty()) {
          // Flush the final (partial) segment and close the stream so the
          // checkers can finish draining (possibly via a waitlist handoff).
          core.exec_kernel_instruction(isa::make_i(isa::Opcode::kMCheck, 0, 0, 0));
          soc_.fabric().dissociate(core.id());
        }
        producer_halted_[static_cast<std::size_t>(role)] = true;
      }
      return {TrapAction::Kind::kHalt, 0};
    }

    case TrapCause::kFetchFault: {
      CoreUnit& unit = soc_.unit(core.id());
      // NB: the trap entry already suspended an active replay (the CPC
      // privilege monitor fires before the handler), so check both states.
      if (unit.replay_active() || unit.replay_suspended()) {
        // Corrupted SCP PC steered the replay off the program image: that is
        // a detection, not a crash.
        unit.on_replay_fetch_fault();
        return {TrapAction::Kind::kContextSwitched, 0};
      }
      return {TrapAction::Kind::kHalt, 0};
    }

    case TrapCause::kTimer:
      // Periodic OS tick: pay the excursion and re-arm.
      if (config_.os_ticks) {
        core.set_timer(core.cycle() + config_.tick_period);
        return {TrapAction::Kind::kResumeUser, kTickCost};
      }
      return {TrapAction::Kind::kResumeUser, 0};

    case TrapCause::kIllegal:
      return {TrapAction::Kind::kHalt, 0};
  }
  return {TrapAction::Kind::kHalt, 0};
}

void VerifiedExecution::pump_checkers() {
  soc_.fabric().pump_assignments();
  for (CoreId id : checker_ids_) {
    Core& checker = soc_.core(id);
    CoreUnit& unit = soc_.unit(id);
    if (checker.status() != Core::Status::kIdle) continue;
    if (unit.replay_active() || unit.replay_suspended()) continue;
    const Cycle ready_at = unit.next_segment_ready_at();
    if (ready_at == fs::kNever) continue;
    checker.advance_to(ready_at);
    checker.activate();
    unit.begin_replay();
  }
  // Resolve backpressure: a blocked producer may resume once all its channels
  // have space again (the consumer pop freed it).
  for (const RoleBinding& role : config_.roles) {
    Core& producer = soc_.core(role.producer);
    if (producer.status() != Core::Status::kBlocked) continue;
    CoreUnit& unit = soc_.unit(role.producer);
    if (unit.out_channels_have_space()) {
      producer.unblock_at(
          std::max(producer.cycle(), unit.out_channel_space_available_at()));
    }
  }
}

Core* VerifiedExecution::pick_next_core() {
  Core* best = nullptr;
  for (CoreId id : sched_order_) {
    Core& core = soc_.core(id);
    if (core.status() != Core::Status::kRunning) continue;
    if (best == nullptr || core.cycle() < best->cycle()) best = &core;
  }
  return best;
}

i32 VerifiedExecution::role_of(CoreId id) const {
  return id < core_role_.size() ? core_role_[id] : -1;
}

bool VerifiedExecution::all_producers_halted() const {
  for (bool halted : producer_halted_) {
    if (!halted) return false;
  }
  return true;
}

bool VerifiedExecution::finished() const {
  if (!all_producers_halted()) return false;
  for (CoreId id : checker_ids_) {
    const CoreUnit& unit = soc_.fabric().unit(id);
    if (unit.replay_active() || unit.replay_suspended()) return false;
    const fs::Channel* in = unit.in_channel();
    if (in != nullptr && !in->drained()) return false;
    // A parked channel can still hold undrained segments: the checker picks
    // it up at the next arbitration handoff, so the run is not done yet.
    if (soc_.fabric().waitlist_depth(id) != 0) return false;
  }
  return true;
}

Core* VerifiedExecution::start_round() {
  FLEX_CHECK_MSG(prepared_, "call prepare() first");
  if (finished()) return nullptr;

  pump_checkers();
  Core* core = pick_next_core();
  if (core == nullptr) {
    // Nobody runnable: either we are done, or checkers are idle waiting on
    // segments that became ready between pumps.
    if (finished()) return nullptr;
    pump_checkers();
    core = pick_next_core();
    if (core == nullptr && config_.tolerate_stall) {
      stalled_ = true;  // DUE outcome: the campaign classifies it
      return nullptr;
    }
    FLEX_CHECK_MSG(core != nullptr,
                   soc_.fabric().next_replay_ready_at() == fs::kNever
                       ? "co-simulation deadlock: no core runnable and no "
                         "segment pending"
                       : "co-simulation deadlock: segments pending but no "
                         "core runnable");
  }
  return core;
}

void VerifiedExecution::check_producer_cap(const Core& core) const {
  if (role_of(core.id()) >= 0) {
    FLEX_CHECK_MSG(core.instret() <= kMaxProducerInstructions,
                   "producer core exceeded the instruction safety cap");
  }
}

bool VerifiedExecution::step_round() {
  Core* core = start_round();
  if (core == nullptr) return false;
  core->step();
  check_producer_cap(*core);
  return true;
}

Cycle VerifiedExecution::quantum_bound(const arch::Core& chosen) const {
  // The stepwise scheduler picks the smallest-cycle runnable core, ties going
  // to the earlier core in (producers..., checkers...) order. `chosen`
  // therefore stays picked while its clock is below every higher-priority
  // runnable core's clock and at-or-below every lower-priority one's. Only
  // `chosen` executes during the quantum, so the other clocks are fixed;
  // cross-core state changes (wakes, unblocks) are handled by hooks ending
  // the quantum.
  Cycle bound = arch::kNoCycleBound;
  bool past_chosen = false;
  for (CoreId id : sched_order_) {
    const Core& core = soc_.core(id);
    if (&core == &chosen) {
      past_chosen = true;
      continue;
    }
    if (core.status() != Core::Status::kRunning) continue;
    // Higher-priority core (considered earlier): chosen runs while strictly
    // below its clock. Lower-priority: chosen also wins ties.
    const Cycle b = past_chosen ? core.cycle() + 1 : core.cycle();
    bound = std::min(bound, b);
  }
  return bound;
}

Cycle VerifiedExecution::bounded_quantum(const arch::Core& chosen, u64& budget) {
  if (role_of(chosen.id()) >= 0) {
    CoreUnit& unit = soc_.unit(chosen.id());
    // A producer may ignore the consumers' clocks entirely while its DBC
    // channels guarantee headroom for the whole burst: no backpressure
    // decision inside it can depend on pops the relaxed schedule defers, so
    // the burst commits exactly what the strict interleaving would. Burst-end
    // hooks (segment publish) still fire; the skew window caps the lead.
    const u64 headroom = unit.producer_burst_headroom();
    if (headroom > 0) {
      ++cosim_.relaxed_bursts;
      budget = std::min(budget, std::min(headroom, skew_insts_));
      return arch::kNoCycleBound;
    }
    // Out of headroom: a block decision could land inside the burst, and its
    // outcome depends on which pops have happened. Pops on *this* producer's
    // channels can only come from consumers currently attached to them — a
    // channel parked on a fabric waitlist cannot be popped at all until an
    // arbitration handoff (which only happens between rounds). Bound the
    // burst against exactly those attached consumers; everyone else's clock
    // is irrelevant to this producer's lattice.
    Cycle bound = arch::kNoCycleBound;
    bool any_attached = false;
    for (const fs::Channel* ch : unit.out_channels()) {
      const CoreUnit& consumer = soc_.unit(ch->checker_id());
      if (consumer.in_channel() != ch) continue;  // parked on the waitlist
      any_attached = true;
      const Core& checker = soc_.core(ch->checker_id());
      if (checker.status() == Core::Status::kRunning) {
        // Producers precede checkers in the tie-break, so the producer also
        // wins ties against its consumers.
        bound = std::min(bound, checker.cycle() + 1);
      }
    }
    if (!any_attached) {
      // Parked producer: every out-channel is waitlisted. The upcoming block
      // is deterministic (no pop can change it), so run free up to the skew
      // window instead of dragging the SoC to the strict leapfrog — this is
      // the first-class contended regime.
      ++cosim_.relaxed_bursts;
      ++cosim_.parked_producer_bursts;
      budget = std::min(budget, skew_insts_);
      return arch::kNoCycleBound;
    }
    if (bound == arch::kNoCycleBound) {
      // Attached consumers exist but none is runnable right now: their next
      // pops happen only after a pump wake, which this producer's own
      // segment-publish hook triggers (ending the burst). Keep the skew cap
      // as the only brake.
      ++cosim_.relaxed_bursts;
      budget = std::min(budget, skew_insts_);
      return arch::kNoCycleBound;
    }
    // Strict against the attached consumers only: the laggard consumer
    // catches up first (it is picked while behind), restoring the exact
    // stepwise interleaving before the producer commits anything near the
    // threshold. For a single-role topology this is the global strict
    // bound against the producer's checkers.
    ++cosim_.strict_fallbacks;
    return bound;
  }
  // Checkers: free of each other (their pops land in disjoint channels), but
  // never past their attached producer's clock — every pop must stay in that
  // producer's past so future backpressure decisions see exactly the
  // stepwise-visible pop set. The same bound covers a backpressure-BLOCKED
  // producer while the checker's clock still trails it: all pops then land
  // strictly before the producer's resume, which is its own (larger) clock
  // no matter which pop crossed the space threshold — so the quantum need
  // not end at the exact wake pop, and the unit may retire log entries in
  // bulk straight through the threshold (see
  // CoreUnit::set_bulk_consume_horizon). Only once the checker has caught up
  // to the blocked producer's clock does the wake cycle become load-bearing:
  // stay on the strict, wake-exact bound there. A halted producer makes no
  // further push decisions at all, so the drain phase keeps the strict bound
  // (vs. the other cores) but pops freely. The attached producer is read off
  // the checker's *current* in-channel: while serving a waitlist the checker
  // keeps relaxed bulk-consume progress on that channel regardless of what
  // the parked producers are doing.
  CoreUnit& unit = soc_.unit(chosen.id());
  const fs::Channel* in = unit.in_channel();
  if (in != nullptr) {
    const Core& producer = soc_.core(in->main_id());
    if (producer.status() == Core::Status::kRunning ||
        (producer.status() == Core::Status::kBlocked &&
         chosen.cycle() < producer.cycle())) {
      ++cosim_.relaxed_bursts;
      unit.set_bulk_consume_horizon(producer.cycle());
      return producer.cycle();
    }
    const i32 role = role_of(in->main_id());
    const bool producer_done =
        role >= 0 ? producer_halted_[static_cast<std::size_t>(role)]
                  : producer.status() == Core::Status::kHalted;
    if (producer_done) {
      ++cosim_.relaxed_bursts;
      unit.set_bulk_consume_horizon(arch::kNoCycleBound);
      return quantum_bound(chosen);
    }
  }
  ++cosim_.strict_fallbacks;
  unit.set_bulk_consume_horizon(0);
  return quantum_bound(chosen);
}

void VerifiedExecution::note_burst_skew(const arch::Core& chosen) {
  // Clock lead over the slowest still-runnable core: how far past the strict
  // leapfrog the burst ran. Parked cores are excluded — their clocks lag in
  // every engine (they only advance again at their wake time).
  Cycle trailing = chosen.cycle();
  for (CoreId id : sched_order_) {
    const Core& core = soc_.core(id);
    if (&core != &chosen && core.status() == Core::Status::kRunning) {
      trailing = std::min(trailing, core.cycle());
    }
  }
  cosim_.max_skew_cycles =
      std::max<u64>(cosim_.max_skew_cycles, chosen.cycle() - trailing);
}

bool VerifiedExecution::quantum_round(u64 max_instructions, u64 main_target) {
  Core* core = start_round();
  if (core == nullptr) return false;
  ++cosim_.rounds;

  const bool bounded = config_.engine == Engine::kQuantumBounded;
  u64 budget = max_instructions;
  const Cycle bound = bounded ? bounded_quantum(*core, budget) : quantum_bound(*core);
  if (role_of(core->id()) >= 0) {
    // Leave one instruction of headroom so the safety check below can fire
    // exactly like the stepwise driver's.
    const u64 cap_left = kMaxProducerInstructions + 1 - core->instret();
    budget = std::min(budget, cap_left);
  }
  if (core->id() == config_.roles.front().producer) {
    // Every retired user instruction is a retired instruction, so this cap
    // never carries the first producer past `main_target`.
    budget = std::min(budget, main_target - core->user_instret());
  }

  // Zero-progress guard: a round that neither retires, advances the clock nor
  // changes the core's status would hand the next round the identical pick
  // and bound — the driver would spin forever (e.g. a burst-end hook firing
  // at the chosen core's current cycle). Crash instead of hanging.
  const Cycle cycle_before = core->cycle();
  const u64 instret_before = core->instret();
  const Core::Status status_before = core->status();
  core->run_until(bound, budget);
  if (config_.tolerate_stall && core->cycle() == cycle_before &&
      core->instret() == instret_before && core->status() == status_before) {
    stalled_ = true;  // DUE outcome: the campaign classifies it
    return false;
  }
  FLEX_CHECK_MSG(core->cycle() != cycle_before || core->instret() != instret_before ||
                     core->status() != status_before,
                 "co-simulation deadlock: quantum round made no progress");
  if (bounded) {
    if (core->last_run_exit() == arch::RunExit::kQuantumBreak) ++cosim_.hook_breaks;
    note_burst_skew(*core);
  }
  check_producer_cap(*core);
  return true;
}

u64 VerifiedExecution::total_instret() const {
  u64 total = 0;
  for (CoreId id : sched_order_) total += soc_.core(id).instret();
  return total;
}

template <class Left>
bool VerifiedExecution::run_rounds(Left left, u64 main_target,
                                   const std::function<bool()>& stop) {
  for (u64 budget = left(); budget != 0; budget = left()) {
    // A stepwise round retires at most one instruction, so it needs no cap.
    const bool ran = config_.engine == Engine::kStepwise
                         ? step_round()
                         : quantum_round(budget, main_target);
    if (!ran) return false;
    if (stop && stop()) return true;
  }
  return true;
}

bool VerifiedExecution::advance(u64 instruction_budget, const std::function<bool()>& stop) {
  if (config_.engine == Engine::kStepwise) {
    // One round per unit of budget.
    return run_rounds([&] { return instruction_budget == 0 ? 0 : instruction_budget--; },
                      ~u64{0}, stop);
  }
  const u64 start = total_instret();
  const u64 target =
      instruction_budget > ~u64{0} - start ? ~u64{0} : start + instruction_budget;
  return run_rounds([&] { return target - total_instret(); }, ~u64{0}, stop);
}

bool VerifiedExecution::advance_main_to(u64 target, const std::function<bool()>& stop) {
  const Core& main = soc_.core(config_.roles.front().producer);
  return run_rounds([&] { return main.user_instret() < target ? ~u64{0} : 0; }, target,
                    stop);
}

RunStats VerifiedExecution::run() {
  if (config_.engine == Engine::kStepwise) {
    while (step_round()) {
    }
  } else {
    while (quantum_round()) {
    }
  }
  return stats();
}

RunStats VerifiedExecution::stats() const {
  RunStats s;
  const Core& first = soc_.core(config_.roles.front().producer);
  s.main_cycles = first.cycle();
  s.main_instructions = first.instret();
  s.completion_cycles = soc_.max_cycle();

  for (const RoleBinding& role : config_.roles) {
    const CoreUnit& unit = soc_.unit(role.producer);
    s.segments_produced += unit.segments_produced();
    s.mem_entries += unit.mem_entries_logged();
  }
  for (CoreId id : checker_ids_) {
    const CoreUnit& unit = soc_.unit(id);
    s.segments_verified += unit.segments_verified();
    s.segments_failed += unit.segments_failed();
  }
  for (const fs::Channel* ch : soc_.fabric().channels()) {
    s.backpressure_events += ch->backpressure_events();
    s.max_channel_occupancy = std::max(s.max_channel_occupancy, ch->max_occupancy());
  }
  return s;
}

}  // namespace flexstep::soc
