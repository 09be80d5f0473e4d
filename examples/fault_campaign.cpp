// Fault-injection campaign CLI: pick a workload and a fault count, get the
// detection-latency distribution (the Fig. 7 experiment, interactively).
//
//   ./build/examples/fault_campaign [workload] [faults] [shards] [threads]
//   ./build/examples/fault_campaign mcf 2000
//   FLEX_THREADS=4 ./build/examples/fault_campaign blackscholes 2000 16
//
// Results depend on (seed, shards) but never on threads: any thread count
// reproduces the same outcomes bit for bit.
#include <cstdio>
#include <cstdlib>

#include "common/histogram.h"
#include "common/stats.h"
#include "fault/campaign.h"
#include "runtime/job_pool.h"
#include "workloads/profile.h"

using namespace flexstep;

namespace {

/// Positive-integer CLI argument; anything unparsable or < 1 keeps `fallback`.
u32 arg_u32(int argc, char** argv, int index, u32 fallback) {
  if (index >= argc) return fallback;
  const long parsed = std::atol(argv[index]);
  return parsed >= 1 ? static_cast<u32>(parsed) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = argc > 1 ? argv[1] : "blackscholes";
  const u32 faults = arg_u32(argc, argv, 2, 800);

  fault::CampaignConfig config;
  config.target_faults = faults;
  config.shards = arg_u32(argc, argv, 3, config.shards);
  config.threads = arg_u32(argc, argv, 4, config.threads);
  const u32 threads =
      config.threads != 0 ? config.threads : runtime::JobPool::default_thread_count();

  std::printf("fault campaign: %u bit flips in the forwarded verification stream\n",
              faults);
  std::printf("workload: %s (dual-core verification, paper Tab. II SoC)\n", workload);
  std::printf("%u shards on %u worker thread%s (FLEX_THREADS overrides)\n\n",
              config.shards, threads, threads == 1 ? "" : "s");

  const auto stats = fault::run_fault_campaign(workloads::find_profile(workload),
                                               soc::SocConfig::paper_default(2), config);

  const auto latencies = stats.latencies_us();
  std::printf("injected %u | detected %u (%.2f%%) | masked %u\n\n", stats.injected,
              stats.detected, 100.0 * stats.coverage(), stats.undetected());
  if (!latencies.empty()) {
    std::printf("detection latency: p50 %.1f us | mean %.1f us | p99 %.1f us | max %.1f us\n\n",
                percentile(latencies, 50), mean(latencies), percentile(latencies, 99),
                percentile(latencies, 100));
    Histogram hist(0.0, std::max(10.0, percentile(latencies, 100)), 20);
    for (double v : latencies) hist.add(v);
    std::printf("density (us):\n%s", hist.render(50).c_str());
  }

  std::printf("\ndetection points:\n");
  u32 by_kind[16] = {};
  for (const auto& outcome : stats.outcomes) {
    if (outcome.detected) ++by_kind[static_cast<int>(outcome.detect_kind)];
  }
  for (int k = 0; k < 8; ++k) {
    if (by_kind[k] == 0) continue;
    std::printf("  %-12s %u\n", fs::detect_kind_name(static_cast<fs::DetectKind>(k)),
                by_kind[k]);
  }
  return 0;
}
