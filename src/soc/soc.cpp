#include "soc/soc.h"

#include "common/check.h"
#include "soc/snapshot.h"

namespace flexstep::soc {

Soc::Soc(const SocConfig& config)
    : config_(config),
      l2_(std::make_unique<arch::Cache>(config.l2, "L2")),
      fabric_(config.flexstep) {
  cores_.reserve(config.num_cores);
  for (CoreId id = 0; id < config.num_cores; ++id) {
    cores_.push_back(
        std::make_unique<arch::Core>(id, config.core, memory_, images_, l2_.get()));
    fabric_.attach(*cores_.back());
  }
}

const arch::LoadedImage* Soc::load_program(const isa::Program& program) {
  return images_.load(memory_, program);
}

Cycle Soc::max_cycle() const {
  Cycle max = 0;
  for (const auto& core : cores_) max = std::max(max, core->cycle());
  return max;
}

void Soc::save(Snapshot& out) const {
  memory_.save(out.memory);
  l2_->save(out.l2);
  out.cores.resize(cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) cores_[i]->save(out.cores[i]);
  fabric_.save(out.fabric);
}

void Soc::restore(const Snapshot& snapshot) {
  FLEX_CHECK_MSG(snapshot.cores.size() == cores_.size(),
                 "snapshot core-count mismatch (different SocConfig?)");
  memory_.restore(snapshot.memory);
  l2_->restore(snapshot.l2);
  for (std::size_t i = 0; i < cores_.size(); ++i) cores_[i]->restore(snapshot.cores[i]);
  // After the cores: unit restore re-derives each core's mem port/suppression.
  fabric_.restore(snapshot.fabric);
}

}  // namespace flexstep::soc
