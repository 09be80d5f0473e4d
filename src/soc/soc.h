// SoC assembly: N homogeneous cores (each with its FlexStep unit) over a
// shared L2 and flat memory, mirroring the paper's evaluated platform.
#pragma once

#include <memory>
#include <vector>

#include "arch/cache.h"
#include "arch/core.h"
#include "arch/memory.h"
#include "arch/program_image.h"
#include "common/types.h"
#include "flexstep/fabric.h"
#include "soc/soc_config.h"

namespace flexstep::soc {

struct Snapshot;

class Soc {
 public:
  explicit Soc(const SocConfig& config);

  Soc(const Soc&) = delete;
  Soc& operator=(const Soc&) = delete;

  const SocConfig& config() const { return config_; }
  u32 num_cores() const { return static_cast<u32>(cores_.size()); }

  arch::Core& core(CoreId id) { return *cores_.at(id); }
  fs::CoreUnit& unit(CoreId id) { return fabric_.unit(id); }
  fs::Fabric& fabric() { return fabric_; }
  arch::Memory& memory() { return memory_; }
  arch::ImageRegistry& images() { return images_; }
  const arch::ImageRegistry& images() const { return images_; }
  arch::Cache& l2() { return *l2_; }

  /// Load a program into simulated memory and register its decoded image.
  const arch::LoadedImage* load_program(const isa::Program& program);

  /// Highest local clock across all cores (simulated wall time).
  Cycle max_cycle() const;

  // ---- state capture (soc/snapshot.h) ----

  /// Capture the full SoC state (memory, caches, cores, fabric). Program
  /// images are derived data and not captured; restore into a fresh Soc
  /// requires the same images registered first (sim::Session::fork shares
  /// its origin's).
  void save(Snapshot& out) const;

  /// Restore to a saved state, bit-exactly. Valid on the originating Soc or
  /// on a freshly constructed one with the same SocConfig.
  void restore(const Snapshot& snapshot);

 private:
  SocConfig config_;
  arch::Memory memory_;
  arch::ImageRegistry images_;
  std::unique_ptr<arch::Cache> l2_;
  fs::Fabric fabric_;
  std::vector<std::unique_ptr<arch::Core>> cores_;
};

}  // namespace flexstep::soc
