#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace hetkg {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBuckets), 600);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(9);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Split();
  // Child stream must differ from the parent continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(3);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  EXPECT_NE(v, shuffled);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

TEST(ZipfSamplerTest, RankZeroIsMostFrequent) {
  ZipfSampler zipf(100, 1.0, 77);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Next()];
  }
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(counts[0], max_count);
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(1000, 0.8, 1);
  double total = 0.0;
  for (size_t i = 0; i < zipf.size(); ++i) {
    total += zipf.Pmf(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0, 5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Next()];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(ZipfSamplerTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(50, 1.2, 13);
  std::vector<int> counts(50, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.Next()];
  }
  for (size_t i = 0; i < 10; ++i) {
    const double expected = zipf.Pmf(i) * kDraws;
    EXPECT_NEAR(counts[i], expected, expected * 0.1 + 50.0);
  }
}

// The guide-table lookup must return exactly what a full-range
// lower_bound over the same CDF returns for the same uniform: the
// generated datasets (and every trained byte) depend on it.
constexpr size_t kZipfSizes[] = {1, 2, 3, 1345, 14951, 860541};
constexpr double kZipfExponents[] = {0.0, 0.62, 1.0, 1.05, 2.0};

size_t FullRangeRank(const ZipfSampler& zipf, double u) {
  const std::vector<double>& cdf = zipf.cdf();
  return static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin());
}

TEST(ZipfSamplerTest, DrawsMatchFullRangeSearch) {
  constexpr int kDraws = 1 << 20;
  for (size_t n : kZipfSizes) {
    for (double s : kZipfExponents) {
      ZipfSampler zipf(n, s, 99);
      Rng reference(99);
      size_t mismatches = 0;
      for (int i = 0; i < kDraws; ++i) {
        mismatches +=
            zipf.Next() != FullRangeRank(zipf, reference.NextDouble());
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfSamplerTest, BoundaryDrawsMatchFullRangeSearch) {
  constexpr uint64_t kOne = uint64_t{1} << 53;
  for (size_t n : kZipfSizes) {
    for (double s : kZipfExponents) {
      const ZipfSampler zipf(n, s, 1);
      size_t mismatches = 0;
      auto check = [&](uint64_t bits) {
        if (bits >= kOne) return;
        const double u = static_cast<double>(bits) * 0x1.0p-53;
        mismatches += zipf.RankOf(bits) != FullRangeRank(zipf, u);
      };
      // Uniforms on and next to every CDF entry, so ties (u == cdf[i])
      // resolve to the same rank.
      for (double c : zipf.cdf()) {
        const double scaled = c * 0x1.0p53;
        const uint64_t below = static_cast<uint64_t>(std::floor(scaled));
        for (uint64_t bits = below > 0 ? below - 1 : 0; bits <= below + 2;
             ++bits) {
          check(bits);
        }
      }
      // Every bucket edge j / 2^b for any table of up to 2^20 buckets,
      // and the uniform just below it.
      for (uint64_t j = 0; j < (uint64_t{1} << 20); ++j) {
        const uint64_t edge = j << (53 - 20);
        check(edge);
        if (edge > 0) check(edge - 1);
      }
      check(kOne - 1);
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(AliasSamplerTest, MatchesWeights) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasSampler alias(weights, 21);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[alias.Next()];
  }
  for (size_t i = 0; i < 4; ++i) {
    const double expected = weights[i] / 10.0 * kDraws;
    EXPECT_NEAR(counts[i], expected, expected * 0.1);
  }
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  std::vector<double> weights = {0.0, 1.0, 0.0, 1.0};
  AliasSampler alias(weights, 31);
  for (int i = 0; i < 10000; ++i) {
    const size_t s = alias.Next();
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

}  // namespace
}  // namespace hetkg
