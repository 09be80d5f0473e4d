// Fig. 7: probability distribution of error-detection latency per Parsec
// workload, from fault-injection campaigns on the forwarded data (MAL
// entries + ASS checkpoints).
//
// Paper result: most mass concentrated around ~20 µs; blackscholes reaches
// 2-3x higher (up to ~50 µs); coverage > 99.9% of injected hardware faults.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/table.h"
#include "fault/campaign.h"
#include "runtime/parallel.h"

using namespace flexstep;

int main() {
  const auto faults = static_cast<u32>(bench::env_u64("FLEX_FAULTS", 1200));
  std::printf("== Fig. 7: error-detection latency distribution (Parsec) ==\n");
  std::printf("(%u injected faults per workload; FLEX_FAULTS=5000 reproduces the\n"
              " paper's campaign size; %u threads)\n\n",
              faults, bench::thread_count());

  Table table({"workload", "detected", "coverage", "p50 us", "mean us", "p99 us",
               "max us"});

  Histogram example_hist(0.0, 40.0, 20);
  std::string example_name;

  // One job per workload; each campaign is itself sharded on the runtime
  // (nested runs execute inline, so this composes without oversubscription).
  const auto& profiles = workloads::parsec_profiles();
  const auto campaigns = runtime::parallel_map<fault::CampaignStats>(
      profiles.size(), [&](std::size_t i) {
        fault::CampaignConfig campaign;
        campaign.target_faults = faults;
        campaign.seed = 0xF417 + static_cast<u64>(profiles[i].name[0]);
        return fault::run_fault_campaign(profiles[i], soc::SocConfig::paper_default(2),
                                         campaign);
      });

  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& profile = profiles[i];
    const auto& stats = campaigns[i];
    const auto lat = stats.latencies_us();
    table.add_row({profile.name, std::to_string(stats.detected),
                   Table::num(stats.coverage() * 100.0, 2) + "%",
                   Table::num(percentile(lat, 50), 1), Table::num(mean(lat), 1),
                   Table::num(percentile(lat, 99), 1), Table::num(percentile(lat, 100), 1)});
    if (profile.name == "blackscholes") {
      example_name = profile.name;
      for (double v : lat) example_hist.add(v);
    }
  }
  table.print();

  std::printf("\nDensity of detection latency for %s (paper's heaviest tail):\n",
              example_name.c_str());
  std::printf("%s", example_hist.render(48).c_str());

  std::printf(
      "\npaper: latency mass around ~20 us, max ~50 us (blackscholes), coverage\n"
      ">99.9%%. measured: same shape at this simulator's segment pacing. A fault\n"
      "is caught once its segment closes and the checker replays it, so the\n"
      "absolute latency follows the segment length and the modelled workloads'\n"
      "speed. Flips into values the program never reads again stay masked.\n");
  return 0;
}
