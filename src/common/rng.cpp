#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hetkg {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(&sm);
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound != 0);
  // Rejection sampling over the largest multiple of `bound`.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

Rng Rng::Split() { return Rng(NextUint64()); }

namespace {

// 2^19 + 1 uint32 entries = 2 MiB: a bucket per rank up to ~524k ranks.
// Beyond that the tail buckets hold several ranks each, but they carry
// little mass, so the expected search stays short.
constexpr int kMaxGuideBits = 19;

}  // namespace

ZipfSampler::ZipfSampler(size_t n, double exponent, uint64_t seed)
    : exponent_(exponent), rng_(seed) {
  assert(n >= 1);
  assert(n <= UINT32_MAX);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) {
    c /= total;
  }
  cdf_.back() = 1.0;  // Guard against accumulated floating-point error.

  while (guide_bits_ < kMaxGuideBits && (size_t{1} << guide_bits_) < n) {
    ++guide_bits_;
  }
  const size_t buckets = size_t{1} << guide_bits_;
  guide_.resize(buckets + 1);
  // j / buckets is exact in double; the walk stops at the last rank at
  // the latest, because cdf_.back() == 1.0.
  size_t rank = 0;
  for (size_t j = 0; j <= buckets; ++j) {
    const double edge = std::ldexp(static_cast<double>(j), -guide_bits_);
    while (cdf_[rank] < edge) ++rank;
    guide_[j] = static_cast<uint32_t>(rank);
  }
}

double ZipfSampler::Pmf(size_t rank) const {
  assert(rank < cdf_.size());
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

AliasSampler::AliasSampler(const std::vector<double>& weights, uint64_t seed)
    : rng_(seed) {
  assert(!weights.empty());
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);

  prob_.resize(n);
  alias_.resize(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

size_t AliasSampler::Next() {
  const size_t i = static_cast<size_t>(rng_.NextBounded(prob_.size()));
  return rng_.NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace hetkg
