// Global configuration registers (paper Sec. III-C): core-attribute masks
// written by G.Configure and queried by G.IDs.contain. Making every core's
// attribute OS-visible is what enables dynamic reconfiguration at runtime.
#pragma once

#include "common/check.h"
#include "common/types.h"

namespace flexstep::fs {

enum class CoreAttr : u8 { kCompute = 0, kMain = 1, kChecker = 2 };

class GlobalConfig {
 public:
  /// G.Configure: write the main/checker ID sets. A core may not be both.
  void configure(u64 main_mask, u64 checker_mask) {
    FLEX_CHECK_MSG((main_mask & checker_mask) == 0,
                   "a core cannot be main and checker simultaneously");
    main_mask_ = main_mask;
    checker_mask_ = checker_mask;
  }

  CoreAttr attr_of(CoreId id) const {
    const u64 bit = u64{1} << id;
    if ((main_mask_ & bit) != 0) return CoreAttr::kMain;
    if ((checker_mask_ & bit) != 0) return CoreAttr::kChecker;
    return CoreAttr::kCompute;
  }

  bool is_checker(CoreId id) const { return attr_of(id) == CoreAttr::kChecker; }

  u64 main_mask() const { return main_mask_; }
  u64 checker_mask() const { return checker_mask_; }

 private:
  u64 main_mask_ = 0;
  u64 checker_mask_ = 0;
};

}  // namespace flexstep::fs
