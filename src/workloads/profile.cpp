#include "workloads/profile.h"

#include "common/check.h"

namespace flexstep::workloads {

namespace {

// Characteristics distilled from the published behaviour of each benchmark
// (instruction mixes and locality from the Parsec characterisation paper and
// SPEC CPU2006 analyses), scaled to this simulator's two-level hierarchy.
std::vector<WorkloadProfile> make_parsec() {
  std::vector<WorkloadProfile> v;
  // name            load  store branch mul   div    amo  entropy wsKB ecall/k nzdc iters body
  v.push_back({"blackscholes", "parsec", 0.22, 0.06, 0.08, 0.10, 0.020, 0.000, 0.10, 32, 0.00, true, 0, 0});
  v.push_back({"bodytrack", "parsec", 0.24, 0.09, 0.15, 0.05, 0.004, 0.001, 0.35, 128, 0.30, false, 0, 0});
  v.push_back({"ferret", "parsec", 0.26, 0.08, 0.14, 0.04, 0.002, 0.002, 0.30, 256, 0.40, false, 0, 0});
  v.push_back({"dedup", "parsec", 0.24, 0.14, 0.13, 0.02, 0.001, 0.002, 0.30, 256, 0.60, true, 0, 0});
  v.push_back({"fluidanimate", "parsec", 0.30, 0.10, 0.10, 0.06, 0.008, 0.001, 0.20, 128, 0.10, true, 0, 0});
  v.push_back({"swaptions", "parsec", 0.20, 0.06, 0.10, 0.09, 0.015, 0.000, 0.15, 32, 0.02, true, 0, 0});
  v.push_back({"x264", "parsec", 0.26, 0.10, 0.16, 0.05, 0.002, 0.001, 0.40, 128, 0.25, true, 0, 0});
  v.push_back({"streamcluster", "parsec", 0.34, 0.06, 0.11, 0.05, 0.003, 0.001, 0.25, 512, 0.08, true, 0, 0});
  for (auto& p : v) {
    p.iterations = 450;
    p.body_instructions = 1200;
  }
  return v;
}

std::vector<WorkloadProfile> make_specint() {
  std::vector<WorkloadProfile> v;
  // name          load  store branch mul   div    amo entropy wsKB ecall/k nzdc iters body
  v.push_back({"bzip2", "specint", 0.26, 0.10, 0.15, 0.02, 0.001, 0.0, 0.35, 128, 0.05, true, 0, 0});
  v.push_back({"gcc", "specint", 0.25, 0.12, 0.20, 0.01, 0.001, 0.0, 0.45, 512, 0.40, false, 0, 0});
  v.push_back({"mcf", "specint", 0.34, 0.09, 0.17, 0.01, 0.000, 0.0, 0.40, 1024, 0.05, true, 0, 0});
  v.push_back({"gobmk", "specint", 0.24, 0.11, 0.21, 0.02, 0.001, 0.0, 0.50, 128, 0.10, true, 0, 0});
  v.push_back({"hmmer", "specint", 0.30, 0.10, 0.10, 0.04, 0.001, 0.0, 0.15, 64, 0.03, true, 0, 0});
  v.push_back({"sjeng", "specint", 0.22, 0.09, 0.21, 0.02, 0.001, 0.0, 0.50, 128, 0.05, true, 0, 0});
  v.push_back({"libquantum", "specint", 0.30, 0.08, 0.14, 0.03, 0.001, 0.0, 0.10, 1024, 0.02, true, 0, 0});
  v.push_back({"h264ref", "specint", 0.28, 0.12, 0.14, 0.05, 0.002, 0.0, 0.30, 128, 0.08, true, 0, 0});
  v.push_back({"omnetpp", "specint", 0.32, 0.12, 0.18, 0.01, 0.001, 0.0, 0.45, 512, 0.25, true, 0, 0});
  v.push_back({"astar", "specint", 0.30, 0.08, 0.18, 0.02, 0.001, 0.0, 0.45, 256, 0.05, true, 0, 0});
  v.push_back({"xalancbmk", "specint", 0.28, 0.11, 0.21, 0.01, 0.001, 0.0, 0.45, 512, 0.30, true, 0, 0});
  for (auto& p : v) {
    p.iterations = 450;
    p.body_instructions = 1200;
  }
  return v;
}

}  // namespace

const std::vector<WorkloadProfile>& parsec_profiles() {
  static const std::vector<WorkloadProfile> profiles = make_parsec();
  return profiles;
}

const std::vector<WorkloadProfile>& specint_profiles() {
  static const std::vector<WorkloadProfile> profiles = make_specint();
  return profiles;
}

const WorkloadProfile& find_profile(const std::string& name) {
  for (const auto& p : parsec_profiles()) {
    if (p.name == name) return p;
  }
  for (const auto& p : specint_profiles()) {
    if (p.name == name) return p;
  }
  FLEX_CHECK_MSG(false, "unknown workload profile");
  return parsec_profiles().front();  // unreachable
}

}  // namespace flexstep::workloads
