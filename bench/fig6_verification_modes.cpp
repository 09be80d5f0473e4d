// Fig. 6: Parsec slowdown in dual-core vs triple-core verification mode.
//
// Paper result: dual geomean +1.07%, triple +1.77% — the extra checker
// exacerbates execution inconsistency between cores, causing more frequent
// backpressure on the main core.
//
// The figure is produced under all three co-simulation engines (stepwise
// reference, kQuantum, kQuantumBounded). kQuantum matches stepwise by
// construction; kQuantumBounded matches only while the shared L2 does not
// evict, single-role runs included (ROADMAP item 1). This driver checks that
// all three agree on the whole Parsec sweep (exit code 1 on any divergence)
// and reports the host-time cost of each engine.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "soc/verified_run.h"

using namespace flexstep;

int main() {
  std::printf("== Fig. 6: slowdown in dual-core vs triple-core mode (Parsec) ==\n\n");
  const auto iterations = static_cast<u32>(bench::env_u64("FLEX_ITERS", 3500));

  const soc::Engine engines[] = {soc::Engine::kStepwise, soc::Engine::kQuantum,
                                 soc::Engine::kQuantumBounded};
  struct EngineSweep {
    std::vector<double> dual;
    std::vector<double> triple;
    double host_seconds = 0.0;
  };
  EngineSweep sweeps[std::size(engines)];

  Table table({"workload", "dual-core mode", "triple-core mode"});
  bool engines_agree = true;
  for (const auto& profile : workloads::parsec_profiles()) {
    for (std::size_t e = 0; e < std::size(engines); ++e) {
      bench::SlowdownModes modes;
      modes.dual = true;
      modes.triple = true;
      modes.engine = engines[e];
      const auto start = std::chrono::steady_clock::now();
      const auto r = bench::measure_workload(profile, modes, iterations);
      const auto stop = std::chrono::steady_clock::now();
      auto& sweep = sweeps[e];
      sweep.host_seconds += std::chrono::duration<double>(stop - start).count();
      sweep.dual.push_back(r.dual);
      sweep.triple.push_back(r.triple);
      if (engines[e] == soc::Engine::kStepwise) {
        table.add_row({r.name, Table::num(r.dual, 4), Table::num(r.triple, 4)});
      } else if (r.dual != sweeps[0].dual.back() ||
                 r.triple != sweeps[0].triple.back()) {
        engines_agree = false;
        std::fprintf(stderr, "ENGINE DIVERGENCE on %s under %s\n",
                     profile.name.c_str(), soc::engine_name(engines[e]));
      }
    }
  }
  table.add_row({"geomean", Table::num(geomean(sweeps[0].dual), 4),
                 Table::num(geomean(sweeps[0].triple), 4)});
  table.print();

  std::printf(
      "\npaper: dual 1.0107 (+1.07%%), triple 1.0177 (+1.77%%).\n"
      "measured: dual %.4f (%+.2f%%), triple %.4f (%+.2f%%).\n\n",
      geomean(sweeps[0].dual), (geomean(sweeps[0].dual) - 1.0) * 100.0,
      geomean(sweeps[0].triple), (geomean(sweeps[0].triple) - 1.0) * 100.0);

  Table engine_table({"engine", "dual geomean", "triple geomean", "host s"});
  for (std::size_t e = 0; e < std::size(engines); ++e) {
    engine_table.add_row({soc::engine_name(engines[e]),
                          Table::num(geomean(sweeps[e].dual), 4),
                          Table::num(geomean(sweeps[e].triple), 4),
                          Table::num(sweeps[e].host_seconds, 2)});
  }
  engine_table.print();
  std::printf("\nengines agree on every workload: %s\n",
              engines_agree ? "yes" : "NO (equivalence bug!)");
  return engines_agree ? 0 : 1;
}
