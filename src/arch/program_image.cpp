#include "arch/program_image.h"

#include "arch/memory.h"
#include "common/check.h"

namespace flexstep::arch {

const LoadedImage* ImageRegistry::load(Memory& memory, const isa::Program& program) {
  auto image = std::make_shared<LoadedImage>();
  image->base = program.code_base;
  image->end = program.code_end();
  image->code = program.code;
  for (const auto& existing : images_) {
    const bool overlap = image->base < existing->end && existing->base < image->end;
    FLEX_CHECK_MSG(!overlap, "program image overlaps an already-loaded image");
  }
  // Materialise the encoded image in simulated memory.
  const auto words = program.encode_all();
  memory.write_block(program.code_base, words.data(), words.size() * sizeof(u32));

  images_.push_back(std::move(image));
  return images_.back().get();
}

void ImageRegistry::share(const ImageRegistry& origin) {
  FLEX_CHECK_MSG(images_.empty(), "sharing images into a non-empty registry");
  images_ = origin.images_;
}

const LoadedImage* ImageRegistry::find(Addr pc) const {
  for (const auto& image : images_) {
    if (image->contains(pc)) return image.get();
  }
  return nullptr;
}

}  // namespace flexstep::arch
