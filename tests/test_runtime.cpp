// Parallel experiment runtime tests: JobPool lifecycle, exception
// propagation, work stealing under skewed job sizes, the parallel helpers,
// and the determinism contract — campaign and sched-experiment results are
// bit-identical at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fault/campaign.h"
#include "runtime/job_pool.h"
#include "runtime/parallel.h"
#include "sched/experiment.h"
#include "workloads/profile.h"

namespace flexstep::runtime {
namespace {

TEST(JobPool, ExecutesEveryJobExactlyOnce) {
  JobPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<u32>> hits(1000);
  pool.run(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(JobPool, SingleThreadRunsInline) {
  JobPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<u32> order;
  pool.run(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<u32>(i));  // no lock needed: inline execution
  });
  ASSERT_EQ(order.size(), 16u);
  for (u32 i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);  // serial = in order
}

TEST(JobPool, RepeatedShutdownIsClean) {
  for (int round = 0; round < 25; ++round) {
    JobPool pool(3);
    std::atomic<u32> count{0};
    pool.run(17, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 17u);
  }  // each destructor must join all workers without hanging or leaking
}

TEST(JobPool, ShutdownWithoutEverRunning) {
  for (int round = 0; round < 25; ++round) {
    JobPool pool(8);  // workers park on the condvar and must join immediately
  }
}

TEST(JobPool, ExceptionPropagatesAndPoolSurvives) {
  JobPool pool(4);
  EXPECT_THROW(
      pool.run(64,
               [&](std::size_t i) {
                 if (i % 7 == 3) throw std::runtime_error("injected failure");
               }),
      std::runtime_error);
  // The pool is still usable after a failed batch.
  std::atomic<u32> count{0};
  pool.run(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

TEST(JobPool, ExceptionInSerialPathPropagates) {
  JobPool pool(1);
  EXPECT_THROW(pool.run(4, [&](std::size_t i) {
    if (i == 2) throw std::logic_error("serial failure");
  }),
               std::logic_error);
}

TEST(JobPool, WorkStealingBalancesSkewedJobSizes) {
  // Job 0 sits at the front of participant 0's initial range and blocks until
  // every other job has completed. Since its owner pops its range front-first,
  // jobs 1..15 of that range can only complete if other participants steal
  // them — run() returning at all proves stealing works; the executor count
  // proves multiple participants took part.
  JobPool pool(4);
  std::atomic<u32> done{0};
  std::mutex mu;
  std::set<std::thread::id> executors;
  pool.run(64, [&](std::size_t i) {
    if (i == 0) {
      while (done.load() < 63) std::this_thread::yield();
    } else {
      done.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mu);
    executors.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(done.load(), 63u);
  EXPECT_GE(executors.size(), 2u);
}

TEST(JobPool, NestedRunExecutesInline) {
  JobPool pool(4);
  std::atomic<u32> inner_total{0};
  pool.run(8, [&](std::size_t) {
    const auto worker = std::this_thread::get_id();
    pool.run(4, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), worker);  // no re-dispatch
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32u);
}

TEST(Parallel, MapPreservesIndexOrder) {
  JobPool pool(4);
  const auto out =
      parallel_map<u64>(pool, 100, [](std::size_t i) { return u64{i} * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], u64{i} * i);
}

TEST(Parallel, AccumulateMergesInJobOrder) {
  JobPool pool(4);
  // String concatenation is order-sensitive: the merged result must follow
  // job-index order regardless of which worker finished first.
  const auto merged = parallel_accumulate(
      pool, 26, std::string{},
      [](std::size_t i) { return std::string(1, static_cast<char>('a' + i)); },
      [](std::string& acc, std::string&& part) { acc += part; });
  EXPECT_EQ(merged, "abcdefghijklmnopqrstuvwxyz");
}

TEST(Parallel, StreamRngIsPerStreamDeterministic) {
  Rng a = stream_rng(42, 7);
  Rng b = stream_rng(42, 7);
  Rng c = stream_rng(42, 8);
  Rng d = stream_rng(43, 7);
  bool differs_cd = false;
  for (int i = 0; i < 16; ++i) {
    const u64 va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());  // same (seed, stream) -> same draws
    if (va != c.next_u64() || va != d.next_u64()) differs_cd = true;
  }
  EXPECT_TRUE(differs_cd);  // different stream or seed -> different draws
}

// ---- the determinism contract, end to end -------------------------------

fault::CampaignConfig determinism_campaign(u32 threads) {
  fault::CampaignConfig config;
  config.target_faults = 60;
  config.warmup_rounds = 15'000;
  config.gap_rounds = 1'000;
  config.workload_iterations = 20'000;
  config.shards = 4;
  config.threads = threads;
  return config;
}

TEST(Determinism, FaultCampaignBitIdenticalAcrossThreadCounts) {
  const auto& profile = workloads::find_profile("swaptions");
  const auto soc_config = soc::SocConfig::paper_default(2);
  const auto baseline =
      fault::run_fault_campaign(profile, soc_config, determinism_campaign(1));
  ASSERT_EQ(baseline.injected, 60u);
  for (u32 threads : {2u, 8u}) {
    const auto run =
        fault::run_fault_campaign(profile, soc_config, determinism_campaign(threads));
    EXPECT_EQ(run.injected, baseline.injected) << threads;
    EXPECT_EQ(run.detected, baseline.detected) << threads;
    EXPECT_EQ(run.undetected(), baseline.undetected()) << threads;
    ASSERT_EQ(run.outcomes.size(), baseline.outcomes.size()) << threads;
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
      EXPECT_EQ(run.outcomes[i].detected, baseline.outcomes[i].detected);
      EXPECT_EQ(run.outcomes[i].latency_us, baseline.outcomes[i].latency_us);
      EXPECT_EQ(run.outcomes[i].detect_kind, baseline.outcomes[i].detect_kind);
      EXPECT_EQ(run.outcomes[i].target_kind, baseline.outcomes[i].target_kind);
    }
  }
}

sched::SchedExperimentConfig determinism_sched(u32 threads) {
  sched::SchedExperimentConfig config;
  config.m = 8;
  config.n = 48;
  config.alpha = 0.125;
  config.beta = 0.125;
  config.u_min = 0.4;
  config.u_max = 0.7;
  config.u_step = 0.1;
  config.sets_per_point = 150;  // > one job block, so blocks span workers
  config.threads = threads;
  return config;
}

TEST(Determinism, SchedExperimentBitIdenticalAcrossThreadCounts) {
  const auto baseline = sched::run_sched_experiment(determinism_sched(1));
  ASSERT_FALSE(baseline.empty());
  for (u32 threads : {2u, 8u}) {
    const auto curve = sched::run_sched_experiment(determinism_sched(threads));
    ASSERT_EQ(curve.size(), baseline.size()) << threads;
    for (std::size_t p = 0; p < curve.size(); ++p) {
      EXPECT_EQ(curve[p].utilization, baseline[p].utilization);
      EXPECT_EQ(curve[p].lockstep, baseline[p].lockstep);
      EXPECT_EQ(curve[p].hmr, baseline[p].hmr);
      EXPECT_EQ(curve[p].flexstep, baseline[p].flexstep);
    }
  }
}

}  // namespace
}  // namespace flexstep::runtime
