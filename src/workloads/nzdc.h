// nZDC-style software error detection (Didehban & Shrivastava, DAC'16) as a
// program transformation — the paper's software baseline in Fig. 4.
//
// Scheme: every computational register has a shadow (x{3..15} -> x{18..30});
// computation is duplicated into the shadow stream, loads copy their result
// into the shadow, and values are cross-checked before externalisation
// (stores) and before control-flow decisions. A mismatch branches to an error
// handler. The slowdown of the transformed program is *measured* on the
// simulator, not assumed.
//
// Simplifications vs. the LLVM pass: loads copy
// rather than re-load, stores check data (not address), branches check one
// operand. These lighten the instruction overhead toward the ~1.6-1.9x band
// the paper reports for nZDC on an in-order core.
#pragma once

#include "isa/assembler.h"

namespace flexstep::workloads {

/// Shadow register of r (identity for x0..x2, which generated programs do not
/// use for data).
constexpr u8 nzdc_shadow(u8 r) { return (r >= 3 && r <= 15) ? static_cast<u8>(r + 15) : r; }

/// Whether the transform supports this program's instruction set (mirrors the
/// paper's "fails to compile" workloads, which are flagged in the profile).
bool nzdc_supported(const isa::Program& program);

/// Apply the transformation. The result is position-independent-fixed: branch
/// offsets are re-targeted across the expansion.
isa::Program nzdc_transform(const isa::Program& program);

}  // namespace flexstep::workloads
