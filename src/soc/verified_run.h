// Co-simulation driver for verified workloads on a role-based topology:
// N producer cores stream checking segments to M checker cores (dual-core =
// DCLS-like, one-to-two = TCLS-like, paper Sec. II; several producers may
// share one checker through the fabric waitlist, paper Sec. III-C). This is
// the substrate of the Fig. 4 / Fig. 6 slowdown experiments, the Fig. 7
// fault campaigns and the Fig. 8 many-core scaling sweeps.
//
// The driver plays the OS role of Alg. 1/2: it configures the fabric through
// the custom ISA, pumps checker replays and waitlist arbitration, resolves
// backpressure wake-ups per producer, and models ECALL kernel excursions
// with a fixed cycle cost.
#pragma once

#include <functional>
#include <vector>

#include "arch/trap.h"
#include "common/types.h"
#include "soc/soc.h"

namespace flexstep::soc {

/// Which execution engine drives the co-simulation.
enum class Engine : u8 {
  kStepwise,  ///< Reference: one instruction per scheduling round (Core::step).
  kQuantum,   ///< Batched: each round runs the picked core for as long as the
              ///< stepwise scheduler would have kept picking it
              ///< (Core::run_until). Bit-identical state evolution. The
              ///< default.
  kQuantumBounded,  ///< Relaxed-skew batched: bursts may overrun the strict
                    ///< cycle-leapfrog bound by up to a skew window wherever
                    ///< the overrun is provably invisible — a producer while
                    ///< its DBC channels guarantee headroom (no backpressure
                    ///< decision can depend on deferred consumer pops) or
                    ///< while every out-channel is parked on a fabric
                    ///< waitlist (no pop can touch them at all), checkers up
                    ///< to their attached producer's local clock (their pops
                    ///< stay in that producer's past). Bursts still end at
                    ///< every cross-core interaction point (segment publish,
                    ///< space-freeing pop, backpressure block), and a
                    ///< producer out of headroom with an attached consumer
                    ///< falls back to a strict bound against just the
                    ///< consumers on its own channels. Full-run RunStats
                    ///< (max_channel_occupancy aside) match kStepwise only
                    ///< while the shared L2 does not evict, on single-role
                    ///< topologies as on multi-role ones. Once it evicts,
                    ///< relaxed bursts reorder L2 accesses (a producer's
                    ///< against its own checkers', and across roles) and
                    ///< cycle counts can differ (ROADMAP item 1).
                    ///< tests/test_exec_engine.cpp enforces the
                    ///< configurations that hold.
};

/// Short lowercase name for tables/JSON ("stepwise", "quantum", "bounded").
const char* engine_name(Engine engine);

/// One producer/checker binding of the role-based topology: `producer`
/// streams checking segments to every core in `checkers` (empty = plain,
/// unverified producer). Several bindings may name the same checker — those
/// producers then contend for it through the fabric waitlist (paper
/// Sec. III-C), which the driver arbitrates as a first-class regime.
struct RoleBinding {
  CoreId producer = 0;
  std::vector<CoreId> checkers;

  friend bool operator==(const RoleBinding&, const RoleBinding&) = default;
};

/// Fixed costs of the modelled OS (cycles), and the driver's safety cap.
inline constexpr Cycle kEcallCost = 1200;  ///< Kernel excursion per workload ECALL.
inline constexpr Cycle kTickCost = us_to_cycles(18.0);  ///< Per periodic OS tick.
inline constexpr u64 kMaxProducerInstructions = 500'000'000;  ///< Commits per producer.

struct VerifiedRunConfig {
  /// Role-based topology: N producers x M checkers. The default is one plain
  /// (unverified) producer on core 0. Producers must be pairwise distinct and
  /// no core may appear as both a producer and a checker — the paper's
  /// G.Configure mask registers are disjoint by construction; "any core may
  /// produce or check" is a per-run wiring choice, not a concurrent dual
  /// role on one core.
  std::vector<RoleBinding> roles = {RoleBinding{0, {}}};

  /// Engine selection. kQuantum is the default hot path; kStepwise remains
  /// available as the reference baseline (equivalence tests, bench baseline).
  Engine engine = Engine::kQuantum;

  /// Background OS interference: every core takes a periodic kernel tick
  /// (scheduler/housekeeping, kTickCost cycles), staggered across cores.
  /// This reproduces the paper's "cores undergoing different kernel mode
  /// switches": checkers stall at different times than the main core, the
  /// DBC fills, and backpressure transfers part of the stall to the main
  /// core — the dominant source of FlexStep's ~1% slowdown (Sec. VI-A).
  bool os_ticks = true;
  Cycle tick_period = us_to_cycles(1000.0);

  /// Fault campaigns: a deadlocked / zero-progress co-simulation (e.g. the
  /// main core halting on a corrupted fetch without ever signalling task
  /// exit) is a legitimate experiment outcome (DUE), not a driver bug. With
  /// this set, the driver latches stalled() and reports "finished" instead
  /// of tripping its deadlock FLEX_CHECKs.
  bool tolerate_stall = false;
};

/// Quantum-engine burst accounting (diagnostics; deliberately not part of
/// RunStats, whose field-wise equality the bit-identity proofs compare).
/// `rounds` counts every quantum_round() under kQuantum AND kQuantumBounded
/// (stepwise drives no quanta); the remaining fields are kQuantumBounded-only
/// and stay zero under the other engines.
struct CosimStats {
  u64 rounds = 0;           ///< Quantum scheduling rounds driven.
  u64 relaxed_bursts = 0;   ///< Bursts freed from the strict leapfrog bound.
  u64 strict_fallbacks = 0; ///< Contended rounds driven at the strict bound.
  u64 hook_breaks = 0;      ///< Bursts ended by a cross-core interaction hook
                            ///< (Core::RunExit::kQuantumBreak): segment
                            ///< publish, space-freeing pop, drain transition.
  u64 max_skew_cycles = 0;  ///< Largest clock lead a burst built over the
                            ///< slowest still-runnable core.
  u64 parked_producer_bursts = 0;  ///< Relaxed bursts of a producer whose
                                   ///< out-channels were all parked on a
                                   ///< fabric waitlist (no consumer attached,
                                   ///< so no pop can touch them — the burst
                                   ///< runs free instead of falling back to
                                   ///< the strict bound). Also counted in
                                   ///< relaxed_bursts.
};

struct RunStats {
  Cycle main_cycles = 0;       ///< First producer's cycles from start to HALT.
  u64 main_instructions = 0;   ///< First producer's retired instructions.
  Cycle completion_cycles = 0; ///< Until all checkers drained (detection done).
  u64 segments_produced = 0;   ///< Summed across every producer.
  u64 segments_verified = 0;
  u64 segments_failed = 0;
  u64 mem_entries = 0;
  u64 backpressure_events = 0;
  u64 max_channel_occupancy = 0;

  double ipc() const {
    return main_cycles == 0 ? 0.0
                            : static_cast<double>(main_instructions) /
                                  static_cast<double>(main_cycles);
  }

  /// Field-wise equality: the snapshot bit-identity tests compare a run-on
  /// session against a restore-and-run sibling through this.
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

class VerifiedExecution final : public arch::TrapHandler {
 public:
  VerifiedExecution(Soc& soc, VerifiedRunConfig config);
  ~VerifiedExecution() override;

  /// Install programs[i] on roles[i].producer and, when checkers are
  /// configured, execute the FlexStep setup sequence (G.Configure,
  /// M.associate, M.check.enable) through the custom ISA. Programs must
  /// occupy disjoint code/data regions — producers share the flat memory and
  /// the L2.
  void prepare(const std::vector<isa::Program>& programs);

  /// Advance the co-simulation by one step (one instruction on the runnable
  /// core with the smallest local clock). Returns false once finished.
  bool step_round();

  /// Advance the co-simulation by one quantum: pick the runnable core with
  /// the smallest local clock and run it for exactly as long as the stepwise
  /// scheduler would have kept picking it (bounded by the other runnable
  /// cores' clocks; hooks end the quantum early on cross-core events such as
  /// SegmentEnd pushes and backpressure-relieving pops). Runs at most
  /// `max_instructions` commits, and stops the first producer once it has
  /// retired `main_target` user-mode instructions. Returns false once
  /// finished.
  bool quantum_round(u64 max_instructions = ~u64{0}, u64 main_target = ~u64{0});

  /// Advance by ~`instruction_budget` retired instructions (summed across the
  /// participating cores) using the configured engine, or until `stop()`
  /// holds where a round ends: after each step_round() under kStepwise, after
  /// each quantum_round() otherwise — never inside a burst. The budget
  /// saturates, so ~u64{0} runs until `stop` holds or the run ends. Returns
  /// false once the co-simulation finished or a tolerated stall latched; true
  /// when the budget is spent or `stop()` held.
  ///
  /// Fault campaigns stop victims on events this way: a reporter event past
  /// an index, or a pending fault resolving. Such a condition is sticky —
  /// reporter events accumulate and pop sequence numbers only grow — so
  /// checking it between rounds misses none, and what it records does not
  /// depend on where the run stops: the reporter stamps detection latency in
  /// simulated cycles.
  bool advance(u64 instruction_budget, const std::function<bool()>& stop = {});

  /// advance()'s round loop, run until the first producer has retired
  /// `target` user-mode instructions: each round caps that core's burst at
  /// the user instructions it has left, so it stops exactly at `target` under
  /// every engine. Returns false once the co-simulation finished or a
  /// tolerated stall latched before the target; true once the target is
  /// reached (at once when it already is) or `stop()` held.
  bool advance_main_to(u64 target, const std::function<bool()>& stop = {});

  /// Total instructions retired across all producers and checkers.
  u64 total_instret() const;

  /// The topology (config().roles).
  const std::vector<RoleBinding>& roles() const { return config_.roles; }

  /// Run to completion (with the configured engine) and return the statistics.
  RunStats run();

  bool finished() const;
  RunStats stats() const;

  /// True once a tolerate_stall run hit a state no engine round can advance
  /// (co-simulation deadlock — the DUE signature). Latched until restore().
  bool stalled() const { return stalled_; }

  /// Burst accounting of the relaxed engine (all-zero under other engines).
  const CosimStats& cosim_stats() const { return cosim_; }
  /// The kQuantumBounded burst cap in instructions: max(segment_limit,
  /// channel_capacity / 2) of the SoC's FlexStep geometry — one DBC segment
  /// or half a channel's worth of work. It bounds the clock lead a burst can
  /// build over the other cores, and with it the interleaving granularity
  /// advance() rendezvous points see.
  u64 skew_instructions() const { return skew_insts_; }

  Soc& soc() { return soc_; }
  const VerifiedRunConfig& config() const { return config_; }

  // ---- state capture (soc/snapshot.h) ----

  /// Capture the SoC plus this driver's state. The snapshot can seed either
  /// an in-place restore() on this driver or a fresh (Soc, VerifiedExecution)
  /// pair with the same configs and programs — sim::Session::fork.
  void save(Snapshot& out) const;
  Snapshot save() const;

  /// Restore SoC + driver state and re-establish the wiring prepare() set up
  /// (trap handlers, checker segment-done callbacks). The same programs must
  /// already be loaded in the SoC's image registry.
  void restore(const Snapshot& snapshot);

  // arch::TrapHandler
  arch::TrapAction on_trap(arch::Core& core, arch::TrapCause cause) override;

 private:
  /// Start a step or quantum round: pump the checkers and pick the core to
  /// run, pumping once more if nobody is runnable. nullptr ends the round —
  /// finished, or a tolerated stall latched; a deadlock otherwise aborts.
  arch::Core* start_round();
  /// Rounds while `left()` (what the next round may retire) is nonzero, the
  /// first producer capped at `main_target` user instructions.
  template <class Left>
  bool run_rounds(Left left, u64 main_target, const std::function<bool()>& stop);
  /// End of a round: abort once a producer passes kMaxProducerInstructions.
  void check_producer_cap(const arch::Core& core) const;
  void pump_checkers();
  /// Trap handlers + checker segment-done callbacks; shared by prepare() and
  /// restore() (a forked driver must point the restored cores at itself).
  void install_driver_wiring();
  arch::Core* pick_next_core();
  /// Local-clock bound up to which `chosen` would keep being picked by the
  /// stepwise scheduler (smallest-cycle-first, producers-then-checkers-order
  /// tie-break), assuming no other core's state changes meanwhile.
  Cycle quantum_bound(const arch::Core& chosen) const;
  /// kQuantumBounded bound: relax the strict bound where provably invisible
  /// (see Engine::kQuantumBounded), shrinking `budget` to the producer's
  /// guaranteed-headroom / skew window when a producer is chosen. The
  /// per-role lattice replaces the legacy global-main-clock rule: a producer
  /// out of headroom is bounded only by the consumers attached to *its*
  /// channels (or runs free while every out-channel is parked on a
  /// waitlist); a checker is bounded by the producer feeding its *current*
  /// in-channel.
  Cycle bounded_quantum(const arch::Core& chosen, u64& budget);
  void note_burst_skew(const arch::Core& chosen);
  /// Role index of a producer core, -1 for non-producers / foreign cores.
  i32 role_of(CoreId id) const;
  bool all_producers_halted() const;

  Soc& soc_;
  VerifiedRunConfig config_;
  u64 skew_insts_ = 0;  ///< kQuantumBounded burst cap.
  CosimStats cosim_;
  std::vector<CoreId> checker_ids_;  ///< Unique checkers, first-appearance order.
  std::vector<CoreId> sched_order_;  ///< Scheduler priority: producers, checkers.
  std::vector<i32> core_role_;       ///< Core id -> producer role index or -1.
  std::vector<bool> producer_halted_;  ///< Per role: task-exit seen.
  bool prepared_ = false;
  bool stalled_ = false;  ///< tolerate_stall: deadlock latched (DUE outcome).
};

}  // namespace flexstep::soc
