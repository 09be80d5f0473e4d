// Shared measurement helpers for the reproduction benches, built on the
// sim::Scenario experiment facade (the single construction path for
// Soc + workload + VerifiedExecution stacks).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "runtime/parallel.h"
#include "sim/scenario.h"
#include "workloads/nzdc.h"
#include "workloads/profile.h"
#include "workloads/program_builder.h"

namespace flexstep::bench {

struct SlowdownModes {
  bool dual = true;
  bool triple = false;
  bool nzdc = false;
  /// Co-simulation engine for every run. kStepwise and kQuantum give the
  /// same RunStats; kQuantumBounded does too only while the L2 does not
  /// evict (ROADMAP item 1). fig6 checks all three agree on its sweep.
  soc::Engine engine = soc::Engine::kQuantum;
};

struct SlowdownResult {
  std::string name;
  double base_cpi = 0.0;
  double dual = 1.0;    ///< Slowdown (>= 1.0) under one-to-one verification.
  double triple = 1.0;  ///< Under one-to-two verification.
  double nzdc = 0.0;    ///< 0 when the workload does not build under nZDC.
  bool nzdc_ok = false;
  u64 backpressure_events = 0;
};

/// One full run of `program` on `soc_config` with the given checker set;
/// returns the main-core cycles (and optionally the backpressure count).
inline Cycle run_once(const isa::Program& program, const soc::SocConfig& soc_config,
                      std::vector<CoreId> checkers, u64* backpressure = nullptr) {
  sim::Session session = sim::Scenario()
                             .program(program)
                             .soc(soc_config)
                             .checkers(std::move(checkers))
                             .build();
  const auto stats = session.run();
  if (backpressure != nullptr) *backpressure = stats.backpressure_events;
  return stats.main_cycles;
}

/// Measure the Fig. 4 / Fig. 6 slowdowns for one workload. LockStep's
/// slowdown is 1.0 by construction (the checker mirrors cycle-by-cycle and
/// never perturbs the main core), so it is not separately simulated.
inline SlowdownResult measure_workload(const workloads::WorkloadProfile& profile,
                                       const SlowdownModes& modes, u32 iterations = 3500,
                                       u64 seed = 7) {
  // One scenario describes the whole experiment family; the program is built
  // once and pinned so every mode simulates the identical instruction stream.
  sim::Scenario scenario;
  scenario.workload(profile).seed(seed).iterations(iterations).soc(
      soc::SocConfig::paper_default(4)).engine(modes.engine);
  const isa::Program program = scenario.build_program();
  scenario.program(program);

  SlowdownResult result;
  result.name = profile.name;

  const auto base = sim::Scenario(scenario).plain().build().run();
  result.base_cpi =
      static_cast<double>(base.main_cycles) / static_cast<double>(base.main_instructions);

  if (modes.dual) {
    const auto stats = sim::Scenario(scenario).dual().build().run();
    result.backpressure_events = stats.backpressure_events;
    result.dual = static_cast<double>(stats.main_cycles) /
                  static_cast<double>(base.main_cycles);
  }
  if (modes.triple) {
    const auto stats = sim::Scenario(scenario).triple().build().run();
    result.triple = static_cast<double>(stats.main_cycles) /
                    static_cast<double>(base.main_cycles);
  }
  if (modes.nzdc) {
    result.nzdc_ok = profile.nzdc_compiles;
    if (result.nzdc_ok) {
      const isa::Program transformed = workloads::nzdc_transform(program);
      const Cycle c = run_once(transformed, scenario.soc_config(), {});
      result.nzdc = static_cast<double>(c) / static_cast<double>(base.main_cycles);
    }
  }
  return result;
}

/// Environment-variable override for experiment scale (e.g. FLEX_FAULTS=5000).
inline u64 env_u64(const char* name, u64 fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Worker threads the benches run with: the FLEX_THREADS environment override,
/// else hardware_concurrency. FLEX_THREADS=1 reproduces serial execution
/// (results are bit-identical at any setting; only wall-clock changes).
inline u32 thread_count() { return runtime::JobPool::default_thread_count(); }

}  // namespace flexstep::bench
