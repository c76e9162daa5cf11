#ifndef HETKG_COMMON_RNG_H_
#define HETKG_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/serialize.h"

namespace hetkg {

/// Deterministic pseudo-random number generator (xoshiro256**) seeded
/// through SplitMix64. All randomness in the library flows through
/// explicitly seeded `Rng` instances so every experiment is exactly
/// reproducible, which the tests rely on.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform value in [0, bound). `bound` must be nonzero. Uses
  /// rejection sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second sample).
  double NextGaussian();

  /// Bernoulli with success probability `p`.
  bool NextBernoulli(double p);

  /// Splits off an independent generator; the child stream is a pure
  /// function of the parent state, so splitting is also deterministic.
  Rng Split();

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Serializes the full generator state (stream position + cached
  /// Box-Muller sample) so a restored generator continues the exact
  /// stream it was saved at. Used by the HETKGCK2 training snapshots.
  void SaveState(ByteWriter* w) const {
    for (uint64_t s : state_) w->U64(s);
    w->F64(cached_gaussian_);
    w->U8(has_cached_gaussian_ ? 1 : 0);
  }
  bool LoadState(ByteReader* r) {
    for (uint64_t& s : state_) s = r->U64();
    cached_gaussian_ = r->F64();
    has_cached_gaussian_ = r->U8() != 0;
    return r->ok();
  }

 private:
  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Draws values in [0, n) with probability proportional to
/// 1 / (rank+1)^s, i.e., the classic Zipf distribution. This is the
/// workhorse behind the synthetic knowledge-graph generator: the paper's
/// hotness observation (Fig. 2) is exactly a Zipf-like skew of entity and
/// relation access frequencies.
///
/// Implementation: inverse-CDF over a precomputed cumulative table,
/// looked up through a Chen-Asau guide table. A draw is the 53-bit
/// uniform `NextDouble` uses; its top `b` bits pick one of 2^b
/// equal-width buckets, and `guide_[j]` is the first rank whose CDF
/// reaches the bucket's lower edge j / 2^b. The search then runs only
/// inside [guide_[j], guide_[j + 1]], so it returns exactly the rank a
/// full-range `lower_bound` over the CDF would. Construction is
/// O(n + 2^b); each sample is O(1) expected for n <= 2^b and falls
/// back to a binary search bounded by the bucket beyond that.
class ZipfSampler {
 public:
  /// `n` must be >= 1 and `exponent` >= 0 (0 degenerates to uniform).
  ZipfSampler(size_t n, double exponent, uint64_t seed);

  /// Returns a rank in [0, n); rank 0 is the most probable.
  size_t Next() { return RankOf(rng_.NextUint64() >> 11); }

  /// The rank drawn for the 53-bit uniform `bits` (u = bits * 2^-53):
  /// the first rank whose CDF entry is >= u.
  size_t RankOf(uint64_t bits) const {
    const double u = static_cast<double>(bits) * 0x1.0p-53;
    const size_t j = static_cast<size_t>(bits >> (53 - guide_bits_));
    // j / 2^b <= u < (j + 1) / 2^b, so the answer lies in [lo, hi]:
    // every rank below lo has cdf < j / 2^b <= u, and cdf_[hi] >=
    // (j + 1) / 2^b > u.
    size_t lo = guide_[j];
    const size_t hi = guide_[j + 1];
    if (hi - lo > kMaxLinearScan) {
      return static_cast<size_t>(
          std::lower_bound(cdf_.begin() + lo, cdf_.begin() + hi, u) -
          cdf_.begin());
    }
    while (cdf_[lo] < u) ++lo;
    return lo;
  }

  /// Probability mass of `rank`.
  double Pmf(size_t rank) const;

  size_t size() const { return cdf_.size(); }
  double exponent() const { return exponent_; }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  /// Buckets spanning more ranks than this are binary-searched instead
  /// of scanned.
  static constexpr size_t kMaxLinearScan = 8;

  std::vector<double> cdf_;
  /// 2^guide_bits_ + 1 entries; guide_[j] = first rank with
  /// cdf_[rank] >= j / 2^guide_bits_.
  std::vector<uint32_t> guide_;
  int guide_bits_ = 0;
  double exponent_;
  Rng rng_;
};

/// Samples from an arbitrary discrete distribution in O(1) per draw
/// using Walker's alias method. Used when the generator needs a custom
/// degree profile rather than a pure Zipf law.
class AliasSampler {
 public:
  /// `weights` must be non-empty with non-negative entries and a
  /// positive sum.
  AliasSampler(const std::vector<double>& weights, uint64_t seed);

  /// Returns an index in [0, weights.size()).
  size_t Next();

  size_t size() const { return prob_.size(); }

  /// Stream-position snapshot (the alias tables are config-derived and
  /// rebuilt at construction; only the RNG advances).
  void SaveState(ByteWriter* w) const { rng_.SaveState(w); }
  bool LoadState(ByteReader* r) { return rng_.LoadState(r); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  Rng rng_;
};

}  // namespace hetkg

#endif  // HETKG_COMMON_RNG_H_
