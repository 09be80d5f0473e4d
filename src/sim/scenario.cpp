#include "sim/scenario.h"

#include <algorithm>

#include "common/check.h"

namespace flexstep::sim {

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

Scenario& Scenario::workload(const std::string& profile_name) {
  profile_ = workloads::find_profile(profile_name);
  return *this;
}

Scenario& Scenario::workload(const workloads::WorkloadProfile& profile) {
  profile_ = profile;
  return *this;
}

Scenario& Scenario::program(isa::Program program) {
  return programs({std::move(program)});
}

Scenario& Scenario::programs(std::vector<isa::Program> programs) {
  programs_ = std::move(programs);
  return *this;
}

Scenario& Scenario::seed(u64 seed) {
  build_.seed = seed;
  return *this;
}

Scenario& Scenario::iterations(u32 iterations) {
  build_.iterations_override = iterations;
  duration_us_.reset();
  return *this;
}

Scenario& Scenario::duration_us(double us) {
  duration_us_ = us;
  return *this;
}

Scenario& Scenario::code_base(Addr base) {
  build_.code_base = base;
  return *this;
}

Scenario& Scenario::data_base(Addr base) {
  build_.data_base = base;
  return *this;
}

Scenario& Scenario::cores(u32 count) {
  cores_ = count;
  if (soc_.has_value()) soc_->num_cores = count;
  return *this;
}

Scenario& Scenario::soc(const soc::SocConfig& config) {
  soc_ = config;
  return *this;
}

Scenario& Scenario::trace(bool enabled) {
  trace_ = enabled;
  return *this;
}

Scenario& Scenario::analysis(bool enabled) {
  analysis_ = enabled;
  return *this;
}

soc::RoleBinding& Scenario::single_role() {
  FLEX_CHECK_MSG(run_.roles.size() == 1,
                 "main_core()/checkers()/plain()/dual()/triple() edit a "
                 "single-role topology; use topology() for several roles");
  return run_.roles.front();
}

Scenario& Scenario::main_core(CoreId id) {
  single_role().producer = id;
  return *this;
}

Scenario& Scenario::checkers(std::vector<CoreId> ids) {
  single_role().checkers = std::move(ids);
  return *this;
}

Scenario& Scenario::plain() { return checkers({}); }

Scenario& Scenario::dual() {
  const CoreId main = single_role().producer;
  return checkers({static_cast<CoreId>(main + 1)});
}

Scenario& Scenario::triple() {
  const CoreId main = single_role().producer;
  return checkers({static_cast<CoreId>(main + 1), static_cast<CoreId>(main + 2)});
}

Scenario& Scenario::topology(std::vector<soc::RoleBinding> roles) {
  run_.roles = std::move(roles);
  return *this;
}

Scenario& Scenario::pairs(u32 count) {
  std::vector<soc::RoleBinding> roles;
  roles.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    roles.push_back({static_cast<CoreId>(2 * i),
                     {static_cast<CoreId>(2 * i + 1)}});
  }
  return topology(std::move(roles));
}

Scenario& Scenario::shared_checker(u32 producers) {
  std::vector<soc::RoleBinding> roles;
  roles.reserve(producers);
  const CoreId checker = static_cast<CoreId>(producers);
  for (u32 i = 0; i < producers; ++i) {
    roles.push_back({static_cast<CoreId>(i), {checker}});
  }
  return topology(std::move(roles));
}

Scenario& Scenario::engine(soc::Engine engine) {
  run_.engine = engine;
  return *this;
}

Scenario& Scenario::os_ticks(bool on) {
  run_.os_ticks = on;
  return *this;
}

Scenario& Scenario::tolerate_stall(bool on) {
  run_.tolerate_stall = on;
  return *this;
}

soc::SocConfig Scenario::soc_config() const {
  soc::SocConfig config;
  if (soc_.has_value()) {
    config = *soc_;
  } else {
    u32 cores = cores_.value_or(0);
    if (cores == 0) {
      // Auto-size: the highest core the topology names, plus one.
      CoreId highest = 0;
      for (const soc::RoleBinding& role : run_.roles) {
        highest = std::max(highest, role.producer);
        for (CoreId id : role.checkers) highest = std::max(highest, id);
      }
      cores = static_cast<u32>(highest) + 1;
    }
    config = soc::SocConfig::paper_default(cores);
  }
  if (trace_.has_value()) config.core.trace.enabled = *trace_;
  return config;
}

soc::VerifiedRunConfig Scenario::run_config() const { return run_; }

isa::Program Scenario::build_program() const {
  FLEX_CHECK_MSG(run_.roles.size() == 1,
                 "build_program() serves single-role scenarios; use "
                 "build_role_programs()");
  return std::move(build_role_programs().front());
}

std::vector<isa::Program> Scenario::build_role_programs() const {
  const std::size_t role_count = run_.roles.size();
  if (programs_.has_value()) {
    FLEX_CHECK_MSG(programs_->size() == role_count,
                   "programs() must provide exactly one program per role");
    return *programs_;
  }
  FLEX_CHECK_MSG(profile_.has_value(),
                 "Scenario needs a workload() profile or explicit programs()");
  workloads::BuildOptions build = build_;
  if (duration_us_.has_value()) {
    // ~2.3 cycles/instruction on the paper core; size the loop count so one
    // plain execution spans roughly the requested simulated time.
    build.iterations_override = std::max<u32>(
        1, static_cast<u32>(*duration_us_ * kCyclesPerUs / 2.3 /
                            profile_->body_instructions));
  }
  if (role_count == 1) return {workloads::build_workload(*profile_, build)};
  // Each producer gets its own workload instance at disjoint code/data
  // regions. The stride is 1 MiB + 64 KiB: larger than any generated image or
  // default working set, and deliberately not a multiple of the L2 set span,
  // so per-role lines spread across sets instead of piling onto one.
  constexpr Addr kRoleStride = 0x0011'0000;
  // Lift the data region clear of the strided code regions (64 producers of
  // code stride end well below 128 MiB).
  const Addr data_floor = std::max<Addr>(build_.data_base, 0x0800'0000);
  std::vector<isa::Program> programs;
  programs.reserve(role_count);
  for (std::size_t r = 0; r < role_count; ++r) {
    build.code_base = build_.code_base + static_cast<Addr>(r) * kRoleStride;
    build.data_base = data_floor + static_cast<Addr>(r) * kRoleStride;
    programs.push_back(workloads::build_workload(*profile_, build));
  }
  return programs;
}

std::unique_ptr<soc::Soc> Scenario::build_soc() const {
  return std::make_unique<soc::Soc>(soc_config());
}

Session Scenario::build() const {
  Session session(std::make_shared<const Scenario>(*this),
                  std::make_shared<const std::vector<isa::Program>>(build_role_programs()));
  session.prepare();
  return session;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(std::shared_ptr<const Scenario> scenario,
                 std::shared_ptr<const std::vector<isa::Program>> programs)
    : scenario_(std::move(scenario)), programs_(std::move(programs)) {
  const soc::SocConfig soc_config = scenario_->soc_config();
  const soc::VerifiedRunConfig run_config = scenario_->run_config();
  for (const soc::RoleBinding& role : run_config.roles) {
    FLEX_CHECK_MSG(role.producer < soc_config.num_cores,
                   "scenario role producer outside the SoC");
    for (CoreId id : role.checkers) {
      FLEX_CHECK_MSG(id < soc_config.num_cores,
                     "scenario role checker outside the SoC");
    }
  }
  soc_ = std::make_unique<soc::Soc>(soc_config);
  exec_ = std::make_unique<soc::VerifiedExecution>(*soc_, run_config);
}

void Session::prepare() {
  // Static analysis backs single-program sessions; a multi-producer session
  // skips it (conservative: dynamic trace recording and the global DBC
  // divisor still apply — per-role reports are a follow-on).
  const std::vector<isa::Program>& programs = *programs_;
  if (programs.size() == 1 && scenario_->analysis_) {
    auto report = std::make_shared<analysis::ProgramReport>(
        analysis::analyze(programs.front()));
    auto bound = std::make_shared<fs::StaticDbcBound>();
    bound->base = programs.front().code_base;
    bound->end = programs.front().code_end();
    bound->per_inst = report->fwd_entry_bound;
    bound->global = report->global_entry_bound;
    analysis_ = std::move(report);
    bound_ = std::move(bound);
  }
  exec_->prepare(programs);
  apply_analysis(nullptr);
}

void Session::apply_analysis(const soc::Snapshot* restored) {
  if (analysis_ == nullptr) return;
  for (u32 i = 0; i < soc_->num_cores(); ++i) {
    // Every core replays user code (checkers included), so all trace caches
    // get the statically hot entries; the burst bound only binds on whichever
    // unit is producing, and installing it everywhere is harmless. A core
    // that adopted its snapshot's tables already holds the seeds and all its
    // saver recorded since; seeding it again could diverge from the saver.
    if (restored == nullptr || restored->cores[i].traces == nullptr) {
      soc_->core(i).seed_traces(analysis_->trace_seeds);
    }
    soc_->unit(i).set_static_dbc_bound(soc_->memory(), bound_);
  }
}

void Session::restore(const soc::Snapshot& snapshot) {
  exec_->restore(snapshot);
  // Memory is rewound to the analysed image, so the bound is trusted again.
  apply_analysis(&snapshot);
}

io::ArchiveError Session::save_file(const std::string& path) const {
  return soc::save_snapshot(snapshot(), path);
}

io::ArchiveError Session::load_file(const std::string& path) {
  soc::Snapshot loaded;
  if (io::ArchiveError err = soc::load_snapshot(path, loaded); !err.ok()) {
    return err;
  }
  return restore_checked(loaded);
}

io::ArchiveError Session::restore_checked(const soc::Snapshot& loaded) {
  // Geometry gate: restore() FLEX_CHECK-aborts on platform mismatches, but
  // decoded bytes are untrusted input — turn shape skew into a structured
  // error first. The live platform is the reference; nothing is copied.
  const auto mismatch = [](const std::string& what) {
    return io::ArchiveError{io::ArchiveStatus::kMalformed,
                            "snapshot does not fit this session's platform: " + what};
  };
  if (loaded.cores.size() != soc_->num_cores()) return mismatch("core count");
  if (loaded.l2.ways.size() != soc_->l2().fault_way_count()) {
    return mismatch("L2 geometry");
  }
  for (u32 i = 0; i < soc_->num_cores(); ++i) {
    const auto& a = loaded.cores[i];
    arch::Core& core = soc_->core(i);
    if (a.caches.l1i.ways.size() != core.caches().l1i().fault_way_count() ||
        a.caches.l1d.ways.size() != core.caches().l1d().fault_way_count()) {
      return mismatch("L1 geometry of core " + std::to_string(i));
    }
    const arch::BranchPredictorConfig& bpred = core.bpred().config();
    if (a.bpred.bht.size() != bpred.bht_entries || a.bpred.btb.size() != bpred.btb_entries ||
        a.bpred.ras.size() != bpred.ras_entries) {
      return mismatch("predictor tables of core " + std::to_string(i));
    }
  }
  if (loaded.fabric.units.size() != soc_->fabric().num_units()) {
    return mismatch("fabric unit count");
  }
  // Every Session is prepared, so an unprepared driver state is corrupt: the
  // next advance() would abort on it.
  if (!loaded.exec_prepared) {
    return {io::ArchiveStatus::kMalformed, "snapshot of an unprepared driver"};
  }
  restore(loaded);
  return {};
}

fs::Channel* Session::channel() {
  auto channels = soc_->fabric().channels();
  return channels.empty() ? nullptr : channels.front();
}

Session Session::fork(const soc::Snapshot& snapshot) const {
  Session child(scenario_, programs_);
  // Immutable, shared across the fork tree. The restore below writes the
  // snapshot's memory, code pages included, so the images need no reload.
  child.soc_->images().share(soc_->images());
  child.analysis_ = analysis_;
  child.bound_ = bound_;
  child.exec_->restore(snapshot);
  child.apply_analysis(&snapshot);
  return child;
}

}  // namespace flexstep::sim
