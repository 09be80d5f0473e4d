// Loaded-program registry: maps PC ranges to pre-decoded instruction streams.
//
// Programs are written to simulated memory in encoded form (the memory image
// is real) and additionally kept pre-decoded for fast fetch. Cores look up
// the image containing the current PC and index into it; self-modifying code
// is not supported (none of the paper's workloads need it).
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "isa/assembler.h"

namespace flexstep::arch {

class Memory;

struct LoadedImage {
  Addr base = 0;
  Addr end = 0;  ///< One past the last instruction byte.
  std::vector<isa::Instruction> code;

  bool contains(Addr pc) const { return pc >= base && pc < end; }
  const isa::Instruction& at(Addr pc) const { return code[(pc - base) / 4]; }
};

/// Loaded images are immutable once registered, so registries of forked SoCs
/// hold their origin's images by reference.
class ImageRegistry {
 public:
  /// Write the program's encoded form into memory and register the decoded
  /// stream. Overlapping images are rejected.
  const LoadedImage* load(Memory& memory, const isa::Program& program);

  /// Register every image `origin` holds, by reference: nothing is copied,
  /// encoded or written to memory. For a SoC whose memory is restored to a
  /// state that already holds their code (sim::Session::fork). This registry
  /// must be empty.
  void share(const ImageRegistry& origin);

  /// Image containing `pc`, or nullptr.
  const LoadedImage* find(Addr pc) const;

  std::size_t size() const { return images_.size(); }

 private:
  std::vector<std::shared_ptr<const LoadedImage>> images_;
};

}  // namespace flexstep::arch
