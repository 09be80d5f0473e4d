// Simulator-speed benchmark: runs one named workload through the simulator's
// public API for a fixed host time, checks every op against an oracle, and
// prints the result as JSON.
//
//   flexbench --workload verify_mix|manycore_mix|fault_campaign --seed N
//             --seconds S --trace 0|1 [--oracle-cache DIR] [--trace-out FILE]
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
// line before it holds the per-topology breakdown, the oracle and self-test
// results and the derived seeds. perfbench/README.md explains the workloads,
// the metrics and the oracles.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "arch/trace.h"
#include "fault/campaign.h"
#include "fault/vuln.h"
#include "runtime/parallel.h"
#include "sim/scenario.h"
#include "spans.h"

extern char** environ;

namespace flexbench {
namespace {

using namespace flexstep;
using Clock = std::chrono::steady_clock;
using Values = std::vector<u64>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The fastest of a run's repetitions. The host's speed changes in spells of
/// a few seconds as other tenants load it; the fastest repetition is the one
/// least slowed, and it cannot be faster than the work allows.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Shortest text that reads back as exactly `v`: every measured digit kept.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string oracle_cache;  ///< Directory for cached oracle results ("" = none).
  std::string trace_out;     ///< Chrome trace file for the traced run ("" = none).
};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flexbench: %s needs a value\n", key.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--oracle-cache") {
      opt.oracle_cache = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "flexbench: unknown option %s\n", key.c_str());
      return false;
    }
  }
  return !opt.workload.empty();
}

/// The simulator reads FLEX_* variables as host-speed knobs. The benchmark
/// pins every knob through Scenario and config fields, and FLEX_FUSED has no
/// such override, so any FLEX_* variable makes the measurement ambiguous.
bool environment_is_clean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "FLEX_", 5) == 0) {
      const char* eq = std::strchr(*env, '=');
      const int len = eq == nullptr ? static_cast<int>(std::strlen(*env))
                                    : static_cast<int>(eq - *env);
      std::fprintf(stderr, "flexbench: refusing to run with %.*s set\n", len, *env);
      clean = false;
    }
  }
  return clean;
}

// ------------------------------------------------------------------ pinning

constexpr soc::Engine kTimedEngine = soc::Engine::kQuantumBounded;
constexpr soc::Engine kOracleEngine = soc::Engine::kStepwise;

/// A set-up round runs before every pass: at least one set-up, repeated for
/// this long. setup_s is the median over all rounds, so it samples the host
/// across the whole run.
constexpr double kSetupRoundSeconds = 0.02;
constexpr u32 kMinPasses = 3;
constexpr u32 kMinTracedPasses = 4;  ///< Two traced, two untraced.
constexpr u32 kProbeReps = 9;
constexpr u64 kProbeWarmup = 20'000;
constexpr u64 kProbeHorizon = 30'000;

/// Every generation and campaign seed is a stream of the benchmark seed.
u64 derive_seed(u64 seed, u64 stream) {
  return runtime::stream_rng(seed, stream).next_u64();
}

u32 host_threads() { return std::max(1u, std::thread::hardware_concurrency()); }
/// Campaign worker threads: at most nproc, and at most 2. On a shared 4-vCPU
/// host, four threads make every campaign wait for whichever vCPU another
/// tenant slows; two threads measured about a fifth steadier.
u32 campaign_threads() { return std::min(host_threads(), 2u); }
/// The re-execution oracle runs at a different thread count, so one
/// comparison also shows that records do not depend on the thread count.
u32 oracle_campaign_threads() { return std::max(1u, campaign_threads() / 2); }

sim::Scenario pinned(sim::Scenario scenario) {
  scenario.engine(kTimedEngine).trace(true).analysis(true);
  return scenario;
}

// ------------------------------------------------------------------ counters

/// One simulation run's simulated statistics, read from the counters the
/// modules expose. All of them must repeat exactly at a fixed seed.
struct SimCounters {
  soc::RunStats run;
  soc::CosimStats cosim;
  u64 handoffs = 0;
  u64 instret = 0;
  u64 instret_producer = 0;
  u64 instret_checker = 0;
  u64 trace_insts_producer = 0;
  u64 trace_insts_checker = 0;
  u64 dispatches = 0;
  u64 traces_recorded = 0;
  u64 heat_misses = 0;
  u64 trace_flushes = 0;
  u64 l1d_accesses = 0;
  u64 l1d_misses = 0;
  u64 l2_accesses = 0;
  u64 l2_misses = 0;

  /// What the stepwise oracle must reproduce: every RunStats field except
  /// the declared diagnostic max_channel_occupancy, plus the handoff count.
  Values oracle_values() const {
    return {run.main_cycles,       run.main_instructions, run.completion_cycles,
            run.segments_produced, run.segments_verified, run.segments_failed,
            run.mem_entries,       run.backpressure_events, handoffs};
  }

  Values fingerprint() const {
    Values v = oracle_values();
    v.insert(v.end(),
             {run.max_channel_occupancy, cosim.rounds, cosim.relaxed_bursts,
              cosim.strict_fallbacks, cosim.hook_breaks, cosim.max_skew_cycles,
              cosim.parked_producer_bursts, instret, instret_producer,
              instret_checker, trace_insts_producer, trace_insts_checker,
              dispatches, traces_recorded, heat_misses, trace_flushes,
              l1d_accesses, l1d_misses, l2_accesses, l2_misses});
    return v;
  }
};

SimCounters collect(sim::Session& session, const soc::RunStats& stats) {
  SimCounters c;
  c.run = stats;
  c.cosim = session.cosim_stats();
  c.handoffs = session.arbitration_handoffs();
  c.instret = session.total_instret();
  soc::Soc& soc = session.soc();
  std::vector<u8> role(soc.num_cores(), 0);  // 1 producer, 2 checker
  for (const soc::RoleBinding& binding : session.exec().roles()) {
    role[binding.producer] = 1;
    for (CoreId id : binding.checkers) role[id] = 2;
  }
  for (u32 id = 0; id < soc.num_cores(); ++id) {
    arch::Core& core = soc.core(id);
    const arch::TraceCache* tc = core.trace_cache();
    const u64 from_traces = tc != nullptr ? tc->stats().insts_from_traces : 0;
    if (role[id] == 1) {
      c.instret_producer += core.instret();
      c.trace_insts_producer += from_traces;
    } else if (role[id] == 2) {
      c.instret_checker += core.instret();
      c.trace_insts_checker += from_traces;
    }
    if (tc != nullptr) {
      c.dispatches += tc->stats().dispatches;
      c.traces_recorded += tc->stats().recorded;
      c.heat_misses += tc->stats().heat_misses;
      c.trace_flushes += tc->stats().full_flushes + tc->stats().code_write_flushes;
    }
    const arch::Cache& l1d = core.caches().l1d();
    c.l1d_accesses += l1d.hits() + l1d.misses();
    c.l1d_misses += l1d.misses();
  }
  c.l2_accesses = soc.l2().hits() + soc.l2().misses();
  c.l2_misses = soc.l2().misses();
  return c;
}

/// A campaign's classified injections, flattened to `stride` fields each.
struct CampaignResult {
  std::size_t stride = 1;
  Values records;
  u64 injected = 0;
  u64 masked = 0;
  u64 detected = 0;
  u64 sdc = 0;
  u64 due = 0;
  u64 total_instructions = 0;

  bool classified_all() const { return masked + detected + sdc + due == injected; }
};

/// Field offset of the outcome kind in both record layouts (self-test flips it).
constexpr std::size_t kOutcomeField = 4;

u64 bits(double v) {
  u64 b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

CampaignResult flatten(const fault::CampaignStats& stats) {
  CampaignResult r;
  r.stride = 5;
  for (const fault::FaultOutcome& o : stats.outcomes) {
    r.records.insert(r.records.end(),
                     {o.detected ? 1u : 0u, bits(o.latency_us),
                      static_cast<u64>(o.detect_kind), static_cast<u64>(o.target_kind),
                      static_cast<u64>(o.kind)});
  }
  r.injected = stats.injected;
  r.masked = stats.masked;
  r.detected = stats.detected;
  r.sdc = stats.sdc;
  r.due = stats.due;
  r.total_instructions = stats.total_instructions;
  return r;
}

CampaignResult flatten(const fault::VulnReport& report) {
  CampaignResult r;
  r.stride = 11;
  for (const fault::InjectionRecord& rec : report.records) {
    r.records.insert(r.records.end(),
                     {static_cast<u64>(rec.site.component), rec.site.index,
                      rec.site.bit, rec.site.cycle, static_cast<u64>(rec.outcome),
                      static_cast<u64>(rec.detect_kind), bits(rec.latency_us),
                      rec.rc_valid ? 1u : 0u, rec.rc_instret, rec.rc_victim_pc,
                      rec.rc_golden_pc});
  }
  r.injected = report.injected;
  r.masked = report.masked;
  r.detected = report.detected;
  r.sdc = report.sdc;
  r.due = report.due;
  r.total_instructions = report.total_instructions;
  return r;
}

/// Whether unit `u` (`stride` fields) differs between `a` and `b`; a unit
/// present in only one of them differs.
bool unit_differs(const Values& a, const Values& b, std::size_t u, std::size_t stride) {
  const std::size_t lo = u * stride;
  const std::size_t hi = lo + stride;
  return hi > a.size() || hi > b.size() ||
         !std::equal(a.begin() + lo, a.begin() + hi, b.begin() + lo);
}

u64 count_mismatches(const Values& got, const Values& want, std::size_t stride) {
  const std::size_t units = std::max(got.size(), want.size()) / stride;
  u64 bad = 0;
  for (std::size_t u = 0; u < units; ++u) bad += unit_differs(got, want, u, stride);
  return bad;
}

// ------------------------------------------------------------------ workloads

struct SimOp {
  std::string name;  ///< "<profile>/<topology>"
  std::string topology;
  std::size_t profile = 0;  ///< Index into the workload's profile list.
  u32 iterations = 0;
  sim::Scenario source;    ///< Generates the programs (workload + seed + shape).
  sim::Scenario scenario;  ///< source with the generated programs pinned.
};

enum class CampaignKind : u8 { kDbc, kVuln };

struct CampaignOp {
  std::string name;  ///< "<kind>/<profile>"
  CampaignKind kind = CampaignKind::kDbc;
  const workloads::WorkloadProfile* profile = nullptr;
  soc::SocConfig soc;
  fault::CampaignConfig dbc;
  fault::VulnConfig vuln;

  u32 target_faults() const {
    return kind == CampaignKind::kDbc ? dbc.target_faults : vuln.target_faults;
  }
  u32 shards() const { return kind == CampaignKind::kDbc ? dbc.shards : vuln.shards; }
};

struct Workload {
  std::vector<std::string> profiles;
  std::vector<SimOp> sims;
  std::vector<CampaignOp> campaigns;
  /// Sessions built during set-up: each op's scenario for the simulation
  /// workloads, the campaign-shaped baseline per profile for campaigns.
  std::vector<sim::Scenario> setup_sources;
  std::vector<sim::Scenario> setup_built;  ///< setup_sources with programs.
  std::size_t probe = 0;  ///< setup_built index the snapshot probes run on.
  /// Every seed derived from the benchmark seed, echoed in the output.
  std::vector<std::pair<std::string, u64>> seeds;
};

/// Fig. 4/6: plain, dual and triple runs on the paper-default SoC. Every
/// working set stays L2-resident: once the L2 evicts, the bounded engine can
/// diverge from stepwise (ROADMAP item 1; mcf and gcc do at a few seeds in a
/// hundred), and the benchmark times only configurations whose oracle holds.
Workload verify_mix(u64 seed) {
  Workload w;
  w.profiles = {"swaptions", "hmmer", "astar", "x264"};
  const soc::SocConfig soc = soc::SocConfig::paper_default(3);
  for (std::size_t p = 0; p < w.profiles.size(); ++p) {
    const workloads::WorkloadProfile& profile = workloads::find_profile(w.profiles[p]);
    const u32 iterations = profile.iterations * 4;
    // One program per profile, shared by its three topologies, so the
    // slowdown ratios compare the same program.
    const u64 program_seed = derive_seed(seed, 1 + p);
    w.seeds.emplace_back("program/" + w.profiles[p], program_seed);
    for (const char* topology : {"plain", "dual", "triple"}) {
      sim::Scenario s;
      s.workload(profile).seed(program_seed).iterations(iterations).soc(soc).main_core(0);
      if (std::strcmp(topology, "plain") == 0) s.plain();
      if (std::strcmp(topology, "dual") == 0) s.dual();
      if (std::strcmp(topology, "triple") == 0) s.triple();
      w.sims.push_back({w.profiles[p] + "/" + topology, topology, p, iterations,
                        pinned(s), {}});
    }
  }
  for (const SimOp& op : w.sims) w.setup_sources.push_back(op.source);
  w.probe = 1;  // swaptions/dual
  return w;
}

/// Fig. 8: 16 cores, L2 scaled to 128 KiB per core. hmmer in shared-checker
/// groups is left out: its twelve working sets make the L2 evict, and it
/// diverges from stepwise at about one seed in twenty (ROADMAP item 1).
Workload manycore_mix(u64 seed) {
  Workload w;
  w.profiles = {"swaptions", "hmmer"};
  constexpr u32 kCores = 16;
  constexpr u32 kIterations = 300;
  soc::SocConfig soc = soc::SocConfig::paper_default(kCores);
  soc.l2.size_bytes = kCores * 128 * 1024;
  std::vector<soc::RoleBinding> pairs;
  for (u32 p = 0; p < kCores / 2; ++p) {
    pairs.push_back({static_cast<CoreId>(2 * p), {static_cast<CoreId>(2 * p + 1)}});
  }
  std::vector<soc::RoleBinding> shared;
  for (u32 g = 0; g < kCores; g += 4) {
    for (u32 p = 0; p < 3; ++p) {
      shared.push_back({static_cast<CoreId>(g + p), {static_cast<CoreId>(g + 3)}});
    }
  }
  const std::vector<std::pair<std::size_t, const char*>> ops = {
      {0, "pairs"}, {0, "shared"}, {1, "pairs"}};
  for (std::size_t p = 0; p < w.profiles.size(); ++p) {
    w.seeds.emplace_back("programs/" + w.profiles[p], derive_seed(seed, 11 + p));
  }
  for (const auto& [p, topology] : ops) {
    sim::Scenario s;
    s.workload(w.profiles[p])
        .seed(w.seeds[p].second)
        .iterations(kIterations)
        .soc(soc)
        .topology(std::strcmp(topology, "pairs") == 0 ? pairs : shared);
    w.sims.push_back({w.profiles[p] + "/" + topology, topology, p, kIterations,
                      pinned(s), {}});
  }
  for (const SimOp& op : w.sims) w.setup_sources.push_back(op.source);
  w.probe = 0;  // swaptions/pairs
  return w;
}

/// Fig. 7: the DBC-stream campaign and the whole-SoC vulnerability campaign
/// on dual swaptions and dual mcf. Each is split into kSubCampaigns short
/// campaigns with their own seeds: a short campaign is more often timed whole
/// inside one of the host's fast spells, and eight seeds average out how much
/// each seed's injections cost.
constexpr u32 kSubCampaigns = 8;
constexpr u32 kSubCampaignShards = 4;

Workload fault_campaign(u64 seed) {
  Workload w;
  w.profiles = {"swaptions", "mcf"};
  const soc::SocConfig soc = soc::SocConfig::paper_default(2);
  for (std::size_t p = 0; p < w.profiles.size(); ++p) {
    const workloads::WorkloadProfile& profile = workloads::find_profile(w.profiles[p]);
    const u32 iterations = profile.iterations * 2;
    for (u32 k = 0; k < kSubCampaigns; ++k) {
      const std::string suffix = w.profiles[p] + "/" + std::to_string(k);
      CampaignOp dbc{"dbc/" + suffix, CampaignKind::kDbc, &profile, soc, {}, {}};
      dbc.dbc.target_faults = 64;
      dbc.dbc.warmup_rounds = 20'000;
      dbc.dbc.gap_rounds = 3'000;
      dbc.dbc.seed = derive_seed(seed, 100 + 10 * p + k);
      dbc.dbc.workload_iterations = iterations;
      dbc.dbc.shards = kSubCampaignShards;
      dbc.dbc.threads = campaign_threads();
      dbc.dbc.mode = fault::CampaignMode::kSnapshotFork;
      dbc.dbc.engine = kTimedEngine;
      w.campaigns.push_back(dbc);

      CampaignOp vuln{"vuln/" + suffix, CampaignKind::kVuln, &profile, soc, {}, {}};
      vuln.vuln.target_faults = 56;  // 8 per component class
      vuln.vuln.warmup_rounds = 20'000;
      vuln.vuln.gap_rounds = 1'000;
      vuln.vuln.horizon = 30'000;
      vuln.vuln.seed = derive_seed(seed, 200 + 10 * p + k);
      vuln.vuln.workload_iterations = iterations;
      vuln.vuln.shards = kSubCampaignShards;
      vuln.vuln.threads = campaign_threads();
      vuln.vuln.mode = fault::CampaignMode::kSnapshotFork;
      vuln.vuln.engine = kTimedEngine;
      vuln.vuln.root_cause = false;
      w.campaigns.push_back(vuln);
      w.seeds.emplace_back(dbc.name, dbc.dbc.seed);
      w.seeds.emplace_back(vuln.name, vuln.vuln.seed);
    }

    // The session shape every campaign shard builds: dual verification of
    // one long workload execution.
    w.seeds.emplace_back("baseline/" + w.profiles[p], derive_seed(seed, 41 + p));
    sim::Scenario baseline;
    baseline.workload(profile)
        .seed(w.seeds.back().second)
        .iterations(iterations)
        .soc(soc)
        .main_core(0)
        .checkers({1});
    w.setup_sources.push_back(pinned(baseline));
  }
  w.probe = 1;  // mcf: the largest snapshot
  return w;
}

// ------------------------------------------------------------------ phases

/// Per-op results across the timed passes.
struct SimRuns {
  std::vector<double> run_s;  ///< Host seconds inside Session::run().
  std::vector<double> op_s;   ///< Build + run + counter collection.
  std::vector<Values> oracle_values;
  std::vector<bool> repeats;  ///< Fingerprint equal to the first pass's.
  SimCounters first;
};

struct CampaignRuns {
  std::vector<double> wall_s;
  std::vector<CampaignResult> results;
};

struct Run {
  Options opt;
  Workload w;
  Tracer tracer;
  Tracer off{false};
  u64 next_op = 0;

  std::vector<double> setup_s;
  u64 lint_errors = 0;
  u32 programs_generated = 0;

  std::vector<SimRuns> sims;
  std::vector<CampaignRuns> campaigns;
  std::vector<double> pass_wall;
  std::vector<bool> pass_traced;
  double peak_rss_mb = 0.0;

  u64 attempted = 0;
  u64 failed = 0;

  std::vector<Values> oracle;  ///< One entry per sim op, then per campaign.
  std::string oracle_source = "computed";
  double oracle_s = 0.0;
  u64 self_test_attempted = 0;
  u64 self_test_failed = 0;

  struct Probe {
    std::vector<double> save_us, fork_us, restore_us, cold_us, warm_us;
    double bytes = 0.0;
  } probe;

  explicit Run(Options o) : opt(std::move(o)), tracer(opt.trace) {}

  // ---- set-up: program generation, pre-run lint, session build ----------

  void setup_round() {
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      const u64 op = next_op++;
      Scope root(tracer, "setup", Layer::kBench, op);
      w.setup_built.clear();
      programs_generated = 0;
      lint_errors = 0;
      for (const sim::Scenario& source : w.setup_sources) {
        std::vector<isa::Program> programs;
        {
          Scope s(tracer, "workloads.build", Layer::kWorkloads, op, root.id());
          programs = source.build_role_programs();
        }
        {
          Scope s(tracer, "analysis.analyze", Layer::kAnalysis, op, root.id());
          for (const isa::Program& program : programs) {
            lint_errors += analysis::analyze(program).error_count;
          }
        }
        programs_generated += static_cast<u32>(programs.size());
        sim::Scenario built = source;
        built.programs(std::move(programs));
        {
          Scope s(tracer, "sim.build", Layer::kSim, op, root.id());
          const sim::Session session = built.build();
        }
        w.setup_built.push_back(std::move(built));
      }
      setup_s.push_back(since(t0));
    } while (since(start) < kSetupRoundSeconds);
  }

  // ---- timed passes ------------------------------------------------------

  bool keep_going(u32 passes, Clock::time_point start) const {
    const u32 min_passes = opt.trace ? kMinTracedPasses : kMinPasses;
    return passes < min_passes || since(start) < opt.seconds;
  }

  void run_sim_pass(u32 pass, Tracer& tr) {
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
      const auto t0 = Clock::now();
      const u64 op = next_op++;
      Scope root(tr, "op", Layer::kBench, op);
      sim::Session session = [&] {
        Scope s(tr, "sim.build", Layer::kSim, op, root.id());
        return w.sims[i].scenario.build();
      }();
      soc::RunStats stats;
      double run_s = 0.0;
      {
        Scope s(tr, "soc.run", Layer::kSoc, op, root.id());
        const auto r0 = Clock::now();
        stats = session.run();
        run_s = since(r0);
      }
      const SimCounters counters = collect(session, stats);
      SimRuns& runs = sims[i];
      if (pass == 0) runs.first = counters;
      runs.repeats.push_back(counters.fingerprint() == runs.first.fingerprint());
      runs.oracle_values.push_back(counters.oracle_values());
      runs.run_s.push_back(run_s);
      runs.op_s.push_back(since(t0));
      ++attempted;
    }
  }

  /// The campaign through the per-shard entry points, one span per shard:
  /// the same shard split, seeding and shard-order merge as
  /// fault::run_fault_campaign / fault::run_vuln_campaign.
  CampaignResult traced_campaign(const CampaignOp& c, u64 op, i64 parent) {
    const std::vector<u32> quota = fault::detail::shard_quotas(c.target_faults(), c.shards());
    runtime::JobPool pool(campaign_threads());
    if (c.kind == CampaignKind::kDbc) {
      std::vector<fault::CampaignStats> parts(quota.size());
      runtime::parallel_for(pool, quota.size(), [&](std::size_t s) {
        Scope span(tracer, "fault.shard", Layer::kFault, op, parent);
        parts[s] = fault::detail::run_campaign_shard(*c.profile, c.soc, c.dbc,
                                                     static_cast<u32>(s), quota[s]);
      });
      fault::CampaignStats merged;
      for (auto& part : parts) merged.merge(std::move(part));
      return flatten(merged);
    }
    const std::vector<fault::Component> comps = fault::detail::resolve_components(c.vuln);
    std::vector<u32> start(quota.size(), 0);
    for (std::size_t s = 1; s < quota.size(); ++s) start[s] = start[s - 1] + quota[s - 1];
    std::vector<fault::VulnReport> parts(quota.size());
    runtime::parallel_for(pool, quota.size(), [&](std::size_t s) {
      Scope span(tracer, "fault.shard", Layer::kFault, op, parent);
      parts[s] = fault::detail::run_vuln_shard(*c.profile, c.soc, c.vuln, comps,
                                               static_cast<u32>(s), quota[s], start[s]);
    });
    fault::VulnReport merged;
    for (auto& part : parts) merged.merge(std::move(part));
    merged.check_invariant();
    return flatten(merged);
  }

  void run_campaign_pass(bool traced) {
    for (std::size_t i = 0; i < w.campaigns.size(); ++i) {
      const CampaignOp& c = w.campaigns[i];
      const u64 op = next_op++;
      const auto t0 = Clock::now();
      CampaignResult result;
      if (traced) {
        Scope root(tracer, "fault.campaign", Layer::kRuntime, op);
        result = traced_campaign(c, op, root.id());
      } else if (c.kind == CampaignKind::kDbc) {
        result = flatten(fault::run_fault_campaign(*c.profile, c.soc, c.dbc));
      } else {
        result = flatten(fault::run_vuln_campaign(*c.profile, c.soc, c.vuln));
      }
      campaigns[i].wall_s.push_back(since(t0));
      attempted += result.injected;
      campaigns[i].results.push_back(std::move(result));
    }
  }

  void timed_loop() {
    sims.assign(w.sims.size(), {});
    campaigns.assign(w.campaigns.size(), {});
    const auto start = Clock::now();
    for (u32 pass = 0; keep_going(pass, start); ++pass) {
      setup_round();
      if (pass == 0) {
        for (std::size_t i = 0; i < w.sims.size(); ++i) w.sims[i].scenario = w.setup_built[i];
      }
      // The traced run interleaves untraced and traced passes; their
      // difference is the tracing overhead.
      const bool traced = opt.trace && pass % 2 == 1;
      const auto t0 = Clock::now();
      if (!w.sims.empty()) run_sim_pass(pass, traced ? tracer : off);
      if (!w.campaigns.empty()) run_campaign_pass(traced);
      pass_wall.push_back(since(t0));
      pass_traced.push_back(traced);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  }

  // ---- oracle ------------------------------------------------------------

  std::string cache_path() const {
    if (opt.oracle_cache.empty()) return {};
    return opt.oracle_cache + "/" + opt.workload + "-" + std::to_string(opt.seed) +
           ".txt";
  }

  bool load_oracle(std::size_t ops) {
    const std::string path = cache_path();
    if (path.empty()) return false;
    std::ifstream in(path);
    if (!in) return false;
    std::vector<Values> loaded;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::size_t count = 0;
      if (!(fields >> count)) return false;
      Values v(count);
      for (u64& x : v) {
        if (!(fields >> x)) return false;
      }
      loaded.push_back(std::move(v));
    }
    if (loaded.size() != ops) return false;
    oracle = std::move(loaded);
    return true;
  }

  void save_oracle() const {
    const std::string path = cache_path();
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(opt.oracle_cache, ec);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      for (const Values& v : oracle) {
        out << v.size();
        for (u64 x : v) out << ' ' << x;
        out << '\n';
      }
      if (!out) return;
    }
    std::filesystem::rename(tmp, path, ec);
  }

  /// Stepwise runs of the identical scenarios (simulation workloads) or
  /// warmup re-execution campaigns at the same seeds and shards (campaigns).
  /// Outside every timed region; cached per binary and seed.
  void compute_oracle() {
    const auto t0 = Clock::now();
    const std::size_t ops = w.sims.size() + w.campaigns.size();
    if (load_oracle(ops)) {
      oracle_source = "cache";
    } else {
      runtime::JobPool pool(host_threads());
      oracle = runtime::parallel_map<Values>(pool, w.sims.size(), [&](std::size_t i) {
        sim::Scenario reference = w.sims[i].scenario;
        reference.engine(kOracleEngine);
        sim::Session session = reference.build();
        const soc::RunStats stats = session.run();
        SimCounters c;
        c.run = stats;
        c.handoffs = session.arbitration_handoffs();
        return c.oracle_values();
      });
      for (const CampaignOp& c : w.campaigns) {
        if (c.kind == CampaignKind::kDbc) {
          fault::CampaignConfig cfg = c.dbc;
          cfg.mode = fault::CampaignMode::kWarmupReexecution;
          cfg.threads = oracle_campaign_threads();
          oracle.push_back(flatten(fault::run_fault_campaign(*c.profile, c.soc, cfg)).records);
        } else {
          fault::VulnConfig cfg = c.vuln;
          cfg.mode = fault::CampaignMode::kWarmupReexecution;
          cfg.threads = oracle_campaign_threads();
          oracle.push_back(flatten(fault::run_vuln_campaign(*c.profile, c.soc, cfg)).records);
        }
      }
      save_oracle();
    }
    oracle_s = since(t0);
  }

  u64 oracle_failures() const {
    u64 bad = 0;
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const SimRuns& runs = sims[i];
      for (std::size_t r = 0; r < runs.oracle_values.size(); ++r) {
        if (!runs.repeats[r] || runs.oracle_values[r] != oracle[i]) ++bad;
      }
    }
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      const Values& want = oracle[sims.size() + i];
      const CampaignResult& first = campaigns[i].results.front();
      for (const CampaignResult& got : campaigns[i].results) {
        // An injection fails when its record differs from the oracle's or
        // from the first pass's; a whole-campaign count that does not repeat
        // fails the campaign's first injection.
        const std::size_t units =
            std::max({got.records.size(), want.size(), first.records.size()}) / got.stride;
        u64 campaign_bad = 0;
        for (std::size_t u = 0; u < units; ++u) {
          campaign_bad += unit_differs(got.records, want, u, got.stride) ||
                          unit_differs(got.records, first.records, u, got.stride);
        }
        if (campaign_bad == 0 && (got.total_instructions != first.total_instructions ||
                                  !got.classified_all())) {
          campaign_bad = 1;
        }
        bad += campaign_bad;
      }
    }
    return bad;
  }

  // ---- self-test: the oracle must catch a known mismatch -------------------

  void self_test() {
    if (!w.sims.empty()) {
      // The same scenario at one more iteration: a different run.
      const SimOp& op = w.sims.front();
      sim::Scenario mutant = op.source;
      mutant.iterations(op.iterations + 1);
      sim::Session session = mutant.build();
      const soc::RunStats stats = session.run();
      self_test_attempted += 1;
      if (collect(session, stats).oracle_values() != oracle.front()) self_test_failed += 1;
    }
    if (!w.campaigns.empty()) {
      // The first pass's record stream with one outcome flipped.
      CampaignResult mutant = campaigns.front().results.front();
      if (!mutant.records.empty()) mutant.records[kOutcomeField] ^= 1;
      self_test_attempted += mutant.injected;
      self_test_failed +=
          count_mismatches(mutant.records, oracle[w.sims.size()], mutant.stride);
    }
  }

  // ---- snapshot probes (traced run) ----------------------------------------

  /// save / fork / restore on a warmed baseline, and the cost of re-warming
  /// trace caches: advance(horizon) on a fresh fork (flushed traces) minus
  /// the same advance on the warm session that took the snapshot. The fork,
  /// once restored to the snapshot, must repeat its advance exactly. (The
  /// warm origin is not compared: where advance() stops on each core depends
  /// on which traces are warm, so its per-core state may legitimately differ.)
  void snapshot_probes() {
    const u64 op = next_op++;
    Scope root(tracer, "snapshot.probe", Layer::kBench, op);
    sim::Session base = [&] {
      Scope s(tracer, "sim.build", Layer::kSim, op, root.id());
      return w.setup_built[w.probe].build();
    }();
    {
      Scope s(tracer, "soc.advance", Layer::kSoc, op, root.id());
      base.advance(kProbeWarmup);
    }
    const auto us = [](Clock::time_point t0) { return since(t0) * 1e6; };
    for (u32 rep = 0; rep < kProbeReps; ++rep) {
      auto t0 = Clock::now();
      soc::Snapshot snap;
      {
        Scope s(tracer, "snapshot.save", Layer::kSnapshot, op, root.id());
        snap = base.snapshot();
      }
      probe.save_us.push_back(us(t0));
      probe.bytes = static_cast<double>(snap.bytes());
      t0 = Clock::now();
      sim::Session child = [&] {
        Scope s(tracer, "snapshot.fork", Layer::kSnapshot, op, root.id());
        return base.fork(snap);
      }();
      probe.fork_us.push_back(us(t0));
      t0 = Clock::now();
      {
        Scope s(tracer, "soc.advance", Layer::kSoc, op, root.id());
        child.advance(kProbeHorizon);
      }
      probe.cold_us.push_back(us(t0));
      const soc::RunStats forked = child.stats();
      const u64 forked_instret = child.total_instret();
      t0 = Clock::now();
      {
        Scope s(tracer, "soc.advance", Layer::kSoc, op, root.id());
        base.advance(kProbeHorizon);
      }
      probe.warm_us.push_back(us(t0));
      t0 = Clock::now();
      {
        Scope s(tracer, "snapshot.restore", Layer::kSnapshot, op, root.id());
        child.restore(snap);
      }
      probe.restore_us.push_back(us(t0));
      {
        Scope s(tracer, "soc.advance", Layer::kSoc, op, root.id());
        child.advance(kProbeHorizon);
      }
      ++attempted;
      if (!(child.stats() == forked) || child.total_instret() != forked_instret) ++failed;
    }
  }
};

// ------------------------------------------------------------------ reports

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back("\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
                     unit + "\"}");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + items_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> items_;
};

/// Per-op fastest times rolled up per topology or campaign kind.
struct Rollup {
  double instructions = 0.0;
  double seconds = 0.0;
  double ops = 0.0;
};

void end_to_end(const Run& run, Metrics& m) {
  Rollup total;
  for (std::size_t i = 0; i < run.sims.size(); ++i) {
    total.instructions += static_cast<double>(run.sims[i].first.instret);
    total.seconds += fastest(run.sims[i].run_s);
    total.ops += 1.0;
  }
  double op_seconds = 0.0;
  for (const SimRuns& r : run.sims) op_seconds += fastest(r.op_s);
  for (const CampaignRuns& r : run.campaigns) {
    const double s = fastest(r.wall_s);
    total.instructions += static_cast<double>(r.results.front().total_instructions);
    total.seconds += s;
    total.ops += static_cast<double>(r.results.front().injected);
    op_seconds += s;
  }
  m.add("mips", ratio(total.instructions, total.seconds) / 1e6, "MIPS");
  m.add("ops_per_s", ratio(total.ops, op_seconds), "1/s");
  // A pass with every op at its fastest: a whole pass of fault_campaign
  // (about 2 s) is seldom timed inside one fast spell.
  m.add("wall_s", op_seconds, "s");
  m.add("setup_s", median(run.setup_s), "s");
  m.add("peak_rss_mb", run.peak_rss_mb, "MiB");
}

void per_layer(const Run& run, Metrics& m) {
  const std::vector<Span> spans = run.tracer.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0 ? i : root[static_cast<std::size_t>(spans[i].parent)];
  }

  // Set-up layers: self time per set-up, median over the set-ups.
  std::map<std::size_t, std::array<double, kLayerCount>> per_setup;
  // Timed-loop layers: self time summed over the traced passes.
  std::array<double, kLayerCount> loop{};
  std::vector<double> shard_s;
  double campaign_span_s = 0.0;
  u64 loop_spans = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view phase = spans[root[i]].name;
    const auto layer = static_cast<std::size_t>(spans[i].layer);
    if (phase == "setup") {
      per_setup[root[i]][layer] += self[i];
    } else if (phase == "op" || phase == "fault.campaign") {
      loop[layer] += self[i];
      ++loop_spans;
      if (std::string_view(spans[i].name) == "fault.shard") {
        shard_s.push_back(spans[i].end - spans[i].start);
      }
      if (std::string_view(spans[i].name) == "fault.campaign") {
        campaign_span_s += spans[i].end - spans[i].start;
      }
    }
  }
  const auto setup_layer = [&](Layer layer) {
    std::vector<double> v;
    for (const auto& [r, layers] : per_setup) v.push_back(layers[static_cast<std::size_t>(layer)]);
    return median(v);
  };
  std::vector<double> traced_walls, untraced_walls;
  for (std::size_t p = 0; p < run.pass_wall.size(); ++p) {
    (run.pass_traced[p] ? traced_walls : untraced_walls).push_back(run.pass_wall[p]);
  }
  const double traced_passes = static_cast<double>(traced_walls.size());

  // ---- workloads / analysis / sim construction ----
  m.add("workloads.build_s", setup_layer(Layer::kWorkloads), "s");
  m.add("workloads.programs", run.programs_generated, "count");
  m.add("analysis.analyze_s", setup_layer(Layer::kAnalysis), "s");
  m.add("analysis.lint_errors", static_cast<double>(run.lint_errors), "count");
  m.add("sim.build_s", setup_layer(Layer::kSim), "s");
  m.add("sim.sessions", static_cast<double>(run.w.setup_sources.size()), "count");

  // ---- simulated counters of one pass (first pass; all passes equal) ----
  SimCounters sum;
  double run_s = 0.0;
  for (const SimRuns& r : run.sims) {
    const SimCounters& c = r.first;
    run_s += median(r.run_s);
    sum.cosim.rounds += c.cosim.rounds;
    sum.cosim.relaxed_bursts += c.cosim.relaxed_bursts;
    sum.cosim.strict_fallbacks += c.cosim.strict_fallbacks;
    sum.cosim.hook_breaks += c.cosim.hook_breaks;
    sum.cosim.parked_producer_bursts += c.cosim.parked_producer_bursts;
    sum.cosim.max_skew_cycles = std::max(sum.cosim.max_skew_cycles, c.cosim.max_skew_cycles);
    sum.instret += c.instret;
    sum.instret_producer += c.instret_producer;
    sum.instret_checker += c.instret_checker;
    sum.trace_insts_producer += c.trace_insts_producer;
    sum.trace_insts_checker += c.trace_insts_checker;
    sum.dispatches += c.dispatches;
    sum.traces_recorded += c.traces_recorded;
    sum.heat_misses += c.heat_misses;
    sum.trace_flushes += c.trace_flushes;
    sum.l1d_accesses += c.l1d_accesses;
    sum.l1d_misses += c.l1d_misses;
    sum.l2_accesses += c.l2_accesses;
    sum.l2_misses += c.l2_misses;
    sum.run.segments_produced += c.run.segments_produced;
    sum.run.mem_entries += c.run.mem_entries;
    sum.run.backpressure_events += c.run.backpressure_events;
    sum.run.max_channel_occupancy =
        std::max(sum.run.max_channel_occupancy, c.run.max_channel_occupancy);
    sum.handoffs += c.handoffs;
  }
  const auto d = [](u64 v) { return static_cast<double>(v); };

  // ---- soc scheduler ----
  m.add("soc.run_s", run_s, "s");
  m.add("soc.rounds", d(sum.cosim.rounds), "count");
  m.add("soc.insts_per_round", ratio(d(sum.instret), d(sum.cosim.rounds)), "inst");
  m.add("soc.strict_fraction", ratio(d(sum.cosim.strict_fallbacks), d(sum.cosim.rounds)), "ratio");
  m.add("soc.relaxed_bursts", d(sum.cosim.relaxed_bursts), "count");
  m.add("soc.hook_breaks", d(sum.cosim.hook_breaks), "count");
  m.add("soc.parked_bursts", d(sum.cosim.parked_producer_bursts), "count");
  m.add("soc.max_skew_cycles", d(sum.cosim.max_skew_cycles), "cycles");

  // ---- arch core, trace cache and caches ----
  m.add("arch.instret.producer", d(sum.instret_producer), "inst");
  m.add("arch.instret.checker", d(sum.instret_checker), "inst");
  m.add("arch.trace_coverage.producer",
        ratio(d(sum.trace_insts_producer), d(sum.instret_producer)), "ratio");
  m.add("arch.trace_coverage.checker",
        ratio(d(sum.trace_insts_checker), d(sum.instret_checker)), "ratio");
  m.add("arch.trace_dispatches", d(sum.dispatches), "count");
  m.add("arch.insts_per_dispatch",
        ratio(d(sum.trace_insts_producer + sum.trace_insts_checker), d(sum.dispatches)),
        "inst");
  m.add("arch.traces_recorded", d(sum.traces_recorded), "count");
  m.add("arch.heat_misses", d(sum.heat_misses), "count");
  m.add("arch.trace_flushes", d(sum.trace_flushes), "count");
  m.add("arch.l1d_accesses", d(sum.l1d_accesses), "count");
  m.add("arch.l1d_miss_rate", ratio(d(sum.l1d_misses), d(sum.l1d_accesses)), "ratio");
  m.add("arch.l2_accesses", d(sum.l2_accesses), "count");
  m.add("arch.l2_miss_rate", ratio(d(sum.l2_misses), d(sum.l2_accesses)), "ratio");

  // ---- flexstep ----
  m.add("flexstep.segments", d(sum.run.segments_produced), "count");
  m.add("flexstep.mem_entries", d(sum.run.mem_entries), "count");
  m.add("flexstep.backpressure_events", d(sum.run.backpressure_events), "count");
  m.add("flexstep.handoffs", d(sum.handoffs), "count");
  m.add("flexstep.max_channel_occupancy", d(sum.run.max_channel_occupancy), "entries");

  // ---- snapshot probes ----
  const Run::Probe& p = run.probe;
  m.add("snapshot.save_us", median(p.save_us), "us");
  m.add("snapshot.fork_us", median(p.fork_us), "us");
  m.add("snapshot.restore_us", median(p.restore_us), "us");
  std::vector<double> rewarm;
  for (std::size_t i = 0; i < p.cold_us.size(); ++i) rewarm.push_back(p.cold_us[i] - p.warm_us[i]);
  m.add("snapshot.rewarm_us", median(rewarm), "us");
  m.add("snapshot.advance_warm_us", median(p.warm_us), "us");
  m.add("snapshot.bytes", p.bytes, "bytes");

  // ---- fault campaigns (first pass records; all passes equal) ----
  double dbc_s = 0.0, vuln_s = 0.0, injections = 0.0, instructions = 0.0;
  double masked = 0.0, detected = 0.0, sdc = 0.0, due = 0.0, shards = 0.0;
  for (std::size_t i = 0; i < run.campaigns.size(); ++i) {
    const CampaignOp& c = run.w.campaigns[i];
    const CampaignResult& r = run.campaigns[i].results.front();
    (c.kind == CampaignKind::kDbc ? dbc_s : vuln_s) += median(run.campaigns[i].wall_s);
    injections += d(r.injected);
    instructions += d(r.total_instructions);
    masked += d(r.masked);
    detected += d(r.detected);
    sdc += d(r.sdc);
    due += d(r.due);
    shards += d(fault::detail::shard_quotas(c.target_faults(), c.shards()).size());
  }
  m.add("fault.dbc_s", dbc_s, "s");
  m.add("fault.vuln_s", vuln_s, "s");
  m.add("fault.injections", injections, "count");
  m.add("fault.insts_per_injection", ratio(instructions, injections), "inst");
  m.add("fault.outcomes.masked", masked, "count");
  m.add("fault.outcomes.detected", detected, "count");
  m.add("fault.outcomes.sdc", sdc, "count");
  m.add("fault.outcomes.due", due, "count");
  m.add("fault.shards", shards, "count");
  m.add("fault.shard_s.p50", median(shard_s), "s");
  m.add("fault.shard_s.max",
        shard_s.empty() ? 0.0 : *std::max_element(shard_s.begin(), shard_s.end()), "s");

  // ---- runtime ----
  double shard_total = 0.0;
  for (double s : shard_s) shard_total += s;
  const double threads = run.campaigns.empty() ? 0.0 : campaign_threads();
  m.add("runtime.threads", threads, "count");
  m.add("runtime.parallel_efficiency", ratio(shard_total, threads * campaign_span_s), "ratio");

  // ---- self time per layer, per traced pass ----
  for (Layer layer : {Layer::kBench, Layer::kSim, Layer::kSoc, Layer::kFault, Layer::kRuntime}) {
    m.add(std::string("self_s.") + layer_name(layer),
          ratio(loop[static_cast<std::size_t>(layer)], traced_passes), "s");
  }

  // ---- tracing overhead ----
  m.add("trace.overhead_s", median(traced_walls) - median(untraced_walls), "s");
  m.add("trace.untraced_wall_s", median(untraced_walls), "s");
  m.add("trace.spans_per_pass", ratio(static_cast<double>(loop_spans), traced_passes), "count");
}

/// Per-topology throughput, the Fig. 4 slowdowns and the oracle summary.
std::string detail_json(const Run& run, bool correct) {
  std::map<std::string, Rollup> topo;
  std::map<std::string, std::map<std::size_t, double>> main_cycles;
  for (std::size_t i = 0; i < run.sims.size(); ++i) {
    const SimOp& op = run.w.sims[i];
    Rollup& r = topo["mips_" + op.topology];
    r.instructions += static_cast<double>(run.sims[i].first.instret);
    r.seconds += fastest(run.sims[i].run_s);
    main_cycles[op.topology][op.profile] = static_cast<double>(run.sims[i].first.run.main_cycles);
  }
  Metrics m;
  for (const auto& [name, r] : topo) m.add(name, ratio(r.instructions, r.seconds) / 1e6, "MIPS");
  std::map<std::string, Rollup> kind;
  for (std::size_t i = 0; i < run.campaigns.size(); ++i) {
    const CampaignOp& c = run.w.campaigns[i];
    Rollup& r = kind[c.kind == CampaignKind::kDbc ? "dbc_injections_per_s" : "vuln_injections_per_s"];
    r.ops += static_cast<double>(run.campaigns[i].results.front().injected);
    r.seconds += fastest(run.campaigns[i].wall_s);
  }
  for (const auto& [name, r] : kind) m.add(name, ratio(r.ops, r.seconds), "1/s");
  // Simulated time: verified main_cycles over plain main_cycles, geometric
  // mean over profiles (the paper's Fig. 4 quantity; model not validated
  // against hardware, so no error figure).
  for (const char* verified : {"dual", "triple"}) {
    if (main_cycles.count("plain") == 0 || main_cycles.count(verified) == 0) continue;
    double log_sum = 0.0;
    for (const auto& [profile, plain] : main_cycles.at("plain")) {
      log_sum += std::log(main_cycles.at(verified).at(profile) / plain);
    }
    m.add(std::string("sim_slowdown_") + verified,
          std::exp(log_sum / static_cast<double>(main_cycles.at("plain").size())),
          "x");
  }
  std::ostringstream seeds;
  for (std::size_t i = 0; i < run.w.seeds.size(); ++i) {
    seeds << (i == 0 ? "" : ", ") << "\"" << run.w.seeds[i].first
          << "\": " << run.w.seeds[i].second;
  }
  std::ostringstream out;
  out << "{\"detail\": {\"workload\": \"" << run.opt.workload << "\", \"seed\": "
      << run.opt.seed << ", \"trace\": " << (run.opt.trace ? 1 : 0)
      << ", \"engine\": \"" << soc::engine_name(kTimedEngine)
      << "\", \"oracle_engine\": \"" << soc::engine_name(kOracleEngine)
      << "\", \"campaign_threads\": " << campaign_threads()
      << ", \"oracle_campaign_threads\": " << oracle_campaign_threads()
      << ", \"seeds\": {" << seeds.str() << "}"
      << ", \"passes\": " << run.pass_wall.size()
      << ", \"breakdown\": " << m.json()
      << ", \"oracle\": {\"source\": \"" << run.oracle_source
      << "\", \"seconds\": " << num(run.oracle_s) << "}"
      << ", \"self_test\": {\"attempted\": " << run.self_test_attempted
      << ", \"failed\": " << run.self_test_failed
      << ", \"caught\": " << (run.self_test_failed > 0 ? "true" : "false") << "}"
      << ", \"lint_errors\": " << run.lint_errors
      << ", \"correct\": " << (correct ? "true" : "false") << "}}";
  return out.str();
}

void print_table(const Run& run) {
  std::printf("%-22s %14s %12s %10s\n", "op", "instructions", "fastest_ms", "MIPS");
  for (std::size_t i = 0; i < run.sims.size(); ++i) {
    const double s = fastest(run.sims[i].run_s);
    std::printf("%-22s %14llu %12.3f %10.2f\n", run.w.sims[i].name.c_str(),
                static_cast<unsigned long long>(run.sims[i].first.instret), s * 1e3,
                ratio(static_cast<double>(run.sims[i].first.instret), s) / 1e6);
  }
  for (std::size_t i = 0; i < run.campaigns.size(); ++i) {
    const CampaignResult& r = run.campaigns[i].results.front();
    const double s = fastest(run.campaigns[i].wall_s);
    std::printf("%-22s %14llu %12.3f %10.2f  (%llu injections, %.1f/s)\n",
                run.w.campaigns[i].name.c_str(),
                static_cast<unsigned long long>(r.total_instructions), s * 1e3,
                ratio(static_cast<double>(r.total_instructions), s) / 1e6,
                static_cast<unsigned long long>(r.injected),
                ratio(static_cast<double>(r.injected), s));
  }
}

int run_benchmark(const Options& opt) {
  Run run(opt);
  if (opt.workload == "verify_mix") {
    run.w = verify_mix(opt.seed);
  } else if (opt.workload == "manycore_mix") {
    run.w = manycore_mix(opt.seed);
  } else if (opt.workload == "fault_campaign") {
    run.w = fault_campaign(opt.seed);
  } else {
    std::fprintf(stderr, "flexbench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  run.timed_loop();
  if (opt.trace) run.snapshot_probes();
  run.compute_oracle();
  run.failed += run.oracle_failures();
  run.self_test();

  const bool caught = run.self_test_failed > 0;
  const bool correct = run.failed == 0 && caught;
  print_table(run);
  std::printf("%s\n", detail_json(run, correct).c_str());
  if (opt.trace && !opt.trace_out.empty() &&
      !write_chrome_trace(run.tracer.spans(), opt.trace_out)) {
    std::fprintf(stderr, "flexbench: cannot write %s\n", opt.trace_out.c_str());
  }

  Metrics metrics;
  if (opt.trace) {
    per_layer(run, metrics);
  } else {
    end_to_end(run, metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace flexbench

int main(int argc, char** argv) {
  flexbench::Options opt;
  if (!flexbench::parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: flexbench --workload verify_mix|manycore_mix|fault_campaign "
                 "--seed N --seconds S --trace 0|1 [--oracle-cache DIR] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  if (!flexbench::environment_is_clean()) return 2;
  return flexbench::run_benchmark(opt);
}
