#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace flexstep {

namespace {
constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

u64 splitmix64(u64& x) {
  x += 0x9E3779B97F4A7C15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

void Rng::reseed(u64 seed) {
  u64 x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is the one invalid state; splitmix64 cannot produce four
  // zeros from any seed, but keep the guard for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

u64 Rng::next_u64() {
  const u64 result = rotl(s_[1] * 5, 7) * 9;
  const u64 t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

u64 Rng::next_below(u64 bound) {
  FLEX_CHECK(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  const u64 threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const u64 r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  // 53 high-quality bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double_in(double lo, double hi) { return lo + (hi - lo) * next_double(); }

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_log_uniform(double lo, double hi) {
  FLEX_CHECK(lo > 0.0 && hi >= lo);
  return std::exp(next_double_in(std::log(lo), std::log(hi)));
}

Rng Rng::split() {
  Rng child;
  child.s_[0] = next_u64();
  child.s_[1] = next_u64();
  child.s_[2] = next_u64();
  child.s_[3] = next_u64();
  if ((child.s_[0] | child.s_[1] | child.s_[2] | child.s_[3]) == 0) child.s_[0] = 1;
  return child;
}

}  // namespace flexstep
