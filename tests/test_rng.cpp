#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

namespace syncpat::util {
namespace {

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 a(0);
  SplitMix64 b(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(9);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(23);
  const double p = 0.25;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.15);
}

TEST(Rng, GeometricProbabilityOneIsZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(31);
  const double mean = 120.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.exponential_cycles(mean));
  }
  EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST(Rng, ExponentialZeroMean) {
  Rng rng(37);
  EXPECT_EQ(rng.exponential_cycles(0.0), 0u);
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng rng(41);
  const std::array<double, 3> weights = {1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.weighted_pick(weights)];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedPickSingleElement) {
  Rng rng(43);
  const std::array<double, 1> weights = {5.0};
  EXPECT_EQ(rng.weighted_pick(weights), 0u);
}

// weighted_pick input validation: a NaN weight slips past every comparison in
// the subtraction scan (NaN compares false), and a negative weight can push
// the scan index out of range — both must abort via SYNCPAT_ASSERT, never
// silently bias the pick.
using RngDeath = ::testing::Test;

TEST(RngDeath, WeightedPickRejectsNaNWeight) {
  Rng rng(47);
  const std::array<double, 3> weights = {1.0, std::nan(""), 2.0};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "finite");
}

TEST(RngDeath, WeightedPickRejectsNegativeWeight) {
  Rng rng(53);
  const std::array<double, 2> weights = {1.0, -0.5};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "finite");
}

TEST(RngDeath, WeightedPickRejectsInfiniteWeight) {
  Rng rng(59);
  const std::array<double, 2> weights = {
      1.0, std::numeric_limits<double>::infinity()};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "finite");
}

TEST(RngDeath, WeightedPickRejectsAllZeroWeights) {
  Rng rng(61);
  const std::array<double, 3> weights = {0.0, 0.0, 0.0};
  EXPECT_DEATH((void)rng.weighted_pick(weights), "positive");
}

// Property sweep: uniformity of below() over several seeds and bounds.
class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, BelowIsRoughlyUniform) {
  Rng rng(GetParam());
  constexpr std::uint64_t kBound = 8;
  std::array<int, kBound> counts{};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBound)];
  for (std::uint64_t b = 0; b < kBound; ++b) {
    EXPECT_NEAR(counts[b] / static_cast<double>(kDraws), 1.0 / kBound, 0.01)
        << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformity,
                         ::testing::Values(1, 2, 42, 0xdeadbeef, 99999));

// GeometricSampler must equal Rng::geometric_from_log draw for draw: the
// workload generator draws every gap through it, and the pinned streams
// depend on each value and on one next_u64() per draw.

/// geometric_from_log's expression for the 53-bit integer n.
std::uint64_t geometric_reference(std::uint64_t n, double log1m_p) {
  const double u = static_cast<double>(n) * 0x1.0p-53;
  return static_cast<std::uint64_t>(std::log1p(-u) / log1m_p);
}

// Mean gaps of the paper profiles, a few more, and 400 work cycles per
// reference, where the sampler skips its table and draws by the formula.
constexpr std::array<double, 7> kMeanGaps = {1.5, 2.03, 2.38, 3.97, 8.0, 20.0,
                                             400.0};

TEST(GeometricSampler, DrawEqualsGeometricFromLogOnTheSameSeed) {
  for (const double mean : kMeanGaps) {
    const double log1m_p = std::log1p(-1.0 / mean);
    const GeometricSampler sampler(log1m_p);
    EXPECT_EQ(sampler.bounds().empty(), mean == 400.0) << "mean " << mean;
    Rng a(0x9e0 + static_cast<std::uint64_t>(mean * 100));
    Rng b = a;
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(sampler.draw(a), b.geometric_from_log(log1m_p))
          << "mean " << mean << ", draw " << i;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "one next_u64() per draw";
  }
}

TEST(GeometricSampler, EveryTableEdgeMatchesTheFormula) {
  for (const double mean : kMeanGaps) {
    const double log1m_p = std::log1p(-1.0 / mean);
    const GeometricSampler sampler(log1m_p);
    const auto bounds = sampler.bounds();
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      const std::uint64_t edge = bounds[k];
      if (edge >= (1ull << 53)) break;  // sentinel: no n reaches k+1
      ASSERT_GT(edge, 0u);
      EXPECT_EQ(sampler.at(edge - 1), geometric_reference(edge - 1, log1m_p))
          << "mean " << mean << ", bound " << k << " - 1";
      EXPECT_EQ(sampler.at(edge), geometric_reference(edge, log1m_p))
          << "mean " << mean << ", bound " << k;
      EXPECT_LE(sampler.at(edge - 1), k);
      EXPECT_GT(sampler.at(edge), k);
    }
    // Past the table the formula answers.
    const std::uint64_t top = (1ull << 53) - 1;
    EXPECT_EQ(sampler.at(top), geometric_reference(top, log1m_p));
    EXPECT_EQ(sampler.at(0), 0u);
  }
}

// chance_below(chance_threshold(p)) is chance(p) as an integer compare.
TEST(Rng, ChanceThresholdIsExact) {
  constexpr double kUlp = 0x1.0p-53;
  EXPECT_EQ(Rng::chance_threshold(0.0), 0u);
  EXPECT_EQ(Rng::chance_threshold(-0.5), 0u);
  EXPECT_EQ(Rng::chance_threshold(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(Rng::chance_threshold(1.0), 1ull << 53);
  EXPECT_EQ(Rng::chance_threshold(1.5), 1ull << 53);
  for (const std::uint64_t k :
       {1ull, 2ull, 3ull, 1ull << 20, 1ull << 52, (1ull << 53) - 1}) {
    const double p = static_cast<double>(k) * kUlp;
    // n * 2^-53 < k * 2^-53 exactly when n < k ...
    EXPECT_EQ(Rng::chance_threshold(p), k) << "k " << k;
    // ... and the next double above p admits n = k too.
    EXPECT_EQ(Rng::chance_threshold(std::nextafter(p, 1.0)), k + 1)
        << "k " << k;
  }
  // The predicate itself, on either side of each threshold.
  for (const double p : {kUlp, 3 * kUlp, 1.0 / 64.0, 0.3, 0.35, 1.0 - kUlp}) {
    const std::uint64_t t = Rng::chance_threshold(p);
    for (const std::uint64_t n : {t - 1, t, t + 1}) {
      if (n >= (1ull << 53)) continue;
      EXPECT_EQ(n < t, static_cast<double>(n) * kUlp < p) << "p " << p;
    }
  }
}

TEST(Rng, ChanceBelowMatchesChanceDrawForDraw) {
  constexpr double kUlp = 0x1.0p-53;
  for (const double p : {0.0, 1.0, kUlp, 7 * kUlp, 1.0 / 64.0, 0.35, 0.8,
                         std::numeric_limits<double>::quiet_NaN()}) {
    const std::uint64_t t = Rng::chance_threshold(p);
    Rng a(0xc4a), b(0xc4a);
    for (int i = 0; i < 20'000; ++i) {
      ASSERT_EQ(a.chance_below(t), b.chance(p)) << "p " << p << ", draw " << i;
    }
  }
}

}  // namespace
}  // namespace syncpat::util
