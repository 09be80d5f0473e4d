// 64-bit FNV-1a: the one hash behind every digest, fingerprint and tag in the
// repository (campaign and vulnerability digests, snapshot digests,
// SocConfig::fingerprint, baseline tags, generated-program seeds).
#pragma once

#include <cstddef>
#include <string_view>

#include "common/types.h"

namespace flexstep {

class Fnv1a {
 public:
  static constexpr u64 kOffsetBasis = 14695981039346656037ULL;
  static constexpr u64 kPrime = 1099511628211ULL;

  explicit Fnv1a(u64 basis = kOffsetBasis) : h_(basis) {}

  void byte(u8 b) { h_ = (h_ ^ b) * kPrime; }
  void bytes(const u8* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) byte(data[i]);
  }
  void text(std::string_view s) {
    for (char c : s) byte(static_cast<u8>(c));
  }
  /// A word as its eight little-endian bytes, so a value hashes alike on
  /// every host.
  void word(u64 v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<u8>(v >> (8 * i)));
  }

  u64 value() const { return h_; }

 private:
  u64 h_;
};

}  // namespace flexstep
