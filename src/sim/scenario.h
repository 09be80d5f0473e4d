// One experiment facade for the whole repository.
//
// Every driver used to hand-assemble the same stack — Soc + VerifiedRunConfig
// + workloads::build_workload + VerifiedExecution::prepare. sim::Scenario is
// the single construction path and the one configuration surface: a fluent
// description of the experiment (workload + build seed, producer/checker
// roles, engine, OS-tick model, host-speed settings) that produces a
// sim::Session owning the Soc / programs / VerifiedExecution triple,
// prepared and ready to run. Nothing else configures a simulation — the
// process environment in particular does not.
//
// Sessions are also the unit of state capture: Session::snapshot() captures
// the full SoC + driver state (soc::Snapshot), Session::restore() rewinds
// this session to it bit-exactly, and Session::fork() clones an independent
// warmed session from it — the primitive the snapshot-fork fault campaigns
// are built on (fault/campaign.cpp).
//
//   auto session = sim::Scenario()
//                      .workload("swaptions").iterations(400)
//                      .dual()
//                      .build();
//   session.advance(100'000);
//   const soc::Snapshot warm = session.snapshot();
//   sim::Session probe = session.fork(warm);   // independent clone
//
// Determinism contract: a Scenario describes a closed system. Two sessions
// built from equal Scenarios evolve bit-identically; a forked (or restored)
// session evolves bit-identically to the session that took the snapshot,
// down to where each budgeted advance() stops on each core.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "common/types.h"
#include "soc/snapshot.h"
#include "soc/soc.h"
#include "soc/verified_run.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep::sim {

class Session;

class Scenario {
 public:
  Scenario() = default;

  // ---- workload (what the producers run) ----

  /// Workload by profile name (looked up across the Parsec/SPECint suites).
  Scenario& workload(const std::string& profile_name);
  Scenario& workload(const workloads::WorkloadProfile& profile);
  /// Use this exact program instead of generating one (nZDC transforms,
  /// hand-assembled tests): shorthand for programs({program}).
  Scenario& program(isa::Program program);
  /// Explicit per-producer programs (programs[i] runs on roles[i].producer).
  /// They override the workload/seed/iterations knobs and must occupy
  /// disjoint code/data regions.
  Scenario& programs(std::vector<isa::Program> programs);
  /// Workload generator seed (default 1).
  Scenario& seed(u64 seed);
  /// Override the profile's loop iterations (0 = profile default).
  Scenario& iterations(u32 iterations);
  /// Size iterations for ~`us` of simulated single-core time instead.
  Scenario& duration_us(double us);
  Scenario& code_base(Addr base);
  Scenario& data_base(Addr base);

  // ---- platform ----

  /// Core count (default: auto — highest core named by the roles + 1).
  Scenario& cores(u32 count);
  /// Full SocConfig override (later cores() calls edit it). FlexStep
  /// geometry (segment limit, channel capacity) is set through it.
  Scenario& soc(const soc::SocConfig& config);
  /// Superinstruction trace cache on/off (default: the SocConfig's, which is
  /// on). Host speed only: full-run RunStats are identical either way, but
  /// traces change where a budgeted advance() stops, and with it campaign
  /// records at a fixed seed.
  Scenario& trace(bool enabled);
  /// Static guest-program analysis on/off (default: on). When on, the built
  /// session pre-seeds every core's trace cache from statically hot region
  /// heads and installs the per-pc DBC production bound that tightens
  /// bounded-engine bursts. Like trace(): full-run RunStats are identical
  /// either way, advance() stopping points are not.
  Scenario& analysis(bool enabled);

  // ---- verification topology: one list of soc::RoleBinding ----

  /// Shorthand for a single-role topology (the default, {{0, {}}}): set its
  /// producer or its checkers. Aborts on a multi-role topology.
  Scenario& main_core(CoreId id);
  Scenario& checkers(std::vector<CoreId> ids);
  /// No checker, one, two — checkers numbered right after main_core.
  Scenario& plain();
  Scenario& dual();
  Scenario& triple();

  /// Role-based many-core topology: N producers x M checkers (see
  /// soc::RoleBinding). Multi-producer topologies get one program per
  /// producer: either via programs(), or auto-generated from the workload
  /// profile at per-role disjoint code/data bases.
  Scenario& topology(std::vector<soc::RoleBinding> roles);
  /// `count` producer/checker pairs: role i = {core 2i, checker 2i+1}.
  Scenario& pairs(u32 count);
  /// `producers` cores 0..producers-1 all streaming to one shared checker
  /// (core `producers`) — the contended waitlist-arbitration regime.
  Scenario& shared_checker(u32 producers);

  // ---- co-simulation driver ----

  /// Engine selection (default kQuantum).
  Scenario& engine(soc::Engine engine);
  Scenario& os_ticks(bool on);
  /// Treat a co-simulation deadlock as a latched stalled() outcome instead of
  /// a fatal FLEX_CHECK (fault campaigns: DUE classification). Default off.
  Scenario& tolerate_stall(bool on);

  // ---- products ----

  /// The resolved SoC configuration (after cores()/topology auto-sizing).
  soc::SocConfig soc_config() const;
  /// The co-simulation driver configuration (roles, engine, OS ticks).
  soc::VerifiedRunConfig run_config() const;
  /// Just the workload program (kernel-driver experiments compose it with
  /// their own scheduler instead of a VerifiedExecution). Single-role
  /// scenarios only.
  isa::Program build_program() const;
  /// One program per producer role: the explicit programs(), or the workload
  /// generated once per role. A single role keeps the scenario's code/data
  /// base; several roles get disjoint per-role code/data bases.
  std::vector<isa::Program> build_role_programs() const;
  /// Just the SoC.
  std::unique_ptr<soc::Soc> build_soc() const;
  /// The full prepared session.
  Session build() const;

 private:
  friend class Session;

  /// The single role main_core()/checkers() edit.
  soc::RoleBinding& single_role();

  std::optional<workloads::WorkloadProfile> profile_;
  std::optional<std::vector<isa::Program>> programs_;  ///< One per role.
  workloads::BuildOptions build_;
  std::optional<double> duration_us_;

  std::optional<soc::SocConfig> soc_;
  std::optional<u32> cores_;
  std::optional<bool> trace_;
  bool analysis_ = true;
  soc::VerifiedRunConfig run_;
};

/// A prepared co-simulation owning its Soc / program / VerifiedExecution.
class Session {
 public:
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  soc::Soc& soc() { return *soc_; }
  /// First producer's program (the only one in single-role scenarios).
  const isa::Program& program() const { return programs_->front(); }
  /// One program per producer role.
  const std::vector<isa::Program>& programs() const { return *programs_; }
  soc::VerifiedExecution& exec() { return *exec_; }
  const Scenario& scenario() const { return *scenario_; }

  // ---- execution (forwarders) ----

  /// Run until the budget is spent or `stop()` holds where a round ends. See
  /// VerifiedExecution::advance.
  bool advance(u64 instruction_budget, const std::function<bool()>& stop = {}) {
    return exec_->advance(instruction_budget, stop);
  }
  /// Run until the first producer has retired `target` user instructions, or
  /// `stop()` holds where a round ends. See VerifiedExecution::advance_main_to.
  bool advance_main_to(u64 target, const std::function<bool()>& stop = {}) {
    return exec_->advance_main_to(target, stop);
  }
  soc::RunStats run() { return exec_->run(); }
  soc::RunStats stats() const { return exec_->stats(); }
  bool finished() const { return exec_->finished(); }
  u64 total_instret() const { return exec_->total_instret(); }
  /// Deadlocked under tolerate_stall (DUE signature). See
  /// VerifiedExecution::stalled().
  bool stalled() const { return exec_->stalled(); }
  /// Relaxed-engine burst accounting (relaxed_bursts / strict_fallbacks /
  /// max_skew_cycles ...; all-zero under other engines). Contention
  /// regressions show up here before they show up in MIPS.
  const soc::CosimStats& cosim_stats() const { return exec_->cosim_stats(); }
  /// Waitlist arbitration decisions taken by the fabric so far.
  u64 arbitration_handoffs() const {
    return soc_->fabric().handoff_events().size();
  }

  // ---- campaign conveniences ----

  /// First DBC channel (nullptr while no verification job is associated).
  fs::Channel* channel();
  fs::ErrorReporter& reporter() { return soc_->fabric().reporter(); }

  // ---- state capture ----

  /// Capture the full state. The cores' trace tables go in by reference and
  /// this session copies each chunk of them before its next write to it, so
  /// — like every other call on a session — snapshot() must not race with
  /// other uses of it.
  soc::Snapshot snapshot() const { return exec_->save(); }
  /// Rewind this session to a snapshot of the same scenario — one it, its
  /// fork origin, a sibling fork or another build of an equal Scenario took
  /// (fault campaigns rewind one victim to every injection point this way).
  /// Every core adopts the trace tables the snapshot holds by reference, so
  /// the restored run evolves exactly as the saver did — including where each
  /// budgeted advance() stops — and exactly as a fresh fork() of the snapshot
  /// would. A snapshot without tables (one loaded from a
  /// file) flushes the caches and re-applies the analysis seeds instead. The
  /// static burst bound is re-armed either way.
  void restore(const soc::Snapshot& snapshot);

  /// Persist the current state as a versioned, CRC-guarded snapshot archive
  /// (soc::save_snapshot: temp file + atomic rename, never a torn file).
  io::ArchiveError save_file(const std::string& path) const;
  /// Load a snapshot archive and restore_checked() this session to it.
  io::ArchiveError load_file(const std::string& path);
  /// restore() a snapshot decoded from untrusted bytes. Its geometry — core
  /// count, cache way counts, predictor table sizes, fabric unit count — is
  /// validated against this session's platform first, so a snapshot from a
  /// different SocConfig yields a structured error instead of a FLEX_CHECK
  /// abort; so is a driver state that was never prepared. On any error the
  /// session is left untouched.
  io::ArchiveError restore_checked(const soc::Snapshot& snapshot);

  /// The static analysis backing this session (nullptr when analysis is off).
  const analysis::ProgramReport* analysis() const { return analysis_.get(); }
  /// Clone an independent session at the snapshot's state: fresh Soc, same
  /// driver config, and the snapshot's trace tables adopted as restore()
  /// does. The scenario, the programs and their decoded images are immutable
  /// and shared with this session, not re-generated or reloaded: the restored
  /// memory already holds the code. The clone and this session share no
  /// mutable state and evolve independently.
  Session fork(const soc::Snapshot& snapshot) const;
  /// snapshot() + fork() in one step.
  Session fork() const { return fork(snapshot()); }

 private:
  friend class Scenario;
  /// A fresh platform for `scenario`, not yet prepared: Scenario::build()
  /// prepares it, fork() restores a snapshot on top.
  Session(std::shared_ptr<const Scenario> scenario,
          std::shared_ptr<const std::vector<isa::Program>> programs);
  /// Load the programs, run the static analysis and seed the trace caches.
  void prepare();
  /// Seed the trace caches and (re-)install the static DBC bound. Called
  /// after prepare (`restored` null: every core is seeded) and after every
  /// restore, where only cores restored without trace tables are seeded.
  void apply_analysis(const soc::Snapshot* restored);

  // Immutable once built, and shared with forks.
  std::shared_ptr<const Scenario> scenario_;
  std::shared_ptr<const std::vector<isa::Program>> programs_;  ///< One per producer role.
  std::unique_ptr<soc::Soc> soc_;
  std::unique_ptr<soc::VerifiedExecution> exec_;
  /// Shared with forks — immutable once built.
  std::shared_ptr<const analysis::ProgramReport> analysis_;
  std::shared_ptr<const fs::StaticDbcBound> bound_;
};

}  // namespace flexstep::sim
