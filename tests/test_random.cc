/**
 * @file
 * Unit tests for util/random.hh: determinism, range correctness and
 * coarse distribution sanity — the whole simulator's reproducibility
 * rests on this generator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/random.hh"

namespace rampage
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull,
                                1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UnitInHalfOpenInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.unit();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean of U(0,1) is 0.5; 10k samples => stddev ~0.003.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(Rng, ChanceRate)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.chance(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SkewedBelowRange)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.skewedBelow(1000, 0.1, 0.9), 1000u);
}

TEST(Rng, SkewedBelowConcentratesInHotRegion)
{
    Rng rng(29);
    const std::uint64_t bound = 10000;
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.skewedBelow(bound, 0.1, 0.9) < bound / 10)
            ++hot;
    // ~0.9 + 0.1*0.1 = 91 % of draws land in the hot tenth.
    EXPECT_GT(static_cast<double>(hot) / n, 0.85);
}

// ------------------------------------- integer-threshold chance()

/** The probabilities where a threshold rewrite usually goes wrong. */
std::vector<double>
thresholdProbes()
{
    std::vector<double> ps = {
        -0.5, 0.0, 0x1p-54, 0x1p-53, 0.3, std::nextafter(0.5, 0.0),
        0.5, 1.0 - 0x1p-53, 1.0, 1.5,
        std::numeric_limits<double>::quiet_NaN()};
    // 10 k seeded random probabilities: uniform in [0, 1), uniform in
    // [-0.5, 1.5), and raw bit patterns (tiny, huge, inf, NaN).
    Rng gen(0x7e57);
    for (int i = 0; i < 10'000; ++i) {
        switch (i % 3) {
          case 0:
            ps.push_back(gen.unit());
            break;
          case 1:
            ps.push_back(gen.unit() * 2.0 - 0.5);
            break;
          default:
            ps.push_back(std::bit_cast<double>(gen.next()));
            break;
        }
    }
    return ps;
}

TEST(Rng, ThresholdChanceMatchesDoubleChance)
{
    Rng seeds(31);
    for (double p : thresholdProbes()) {
        const Rng::Threshold t(p);
        for (int trial = 0; trial < 8; ++trial) {
            Rng a(seeds.next());
            Rng b = a;
            ASSERT_EQ(a.chance(p), b.chance(t)) << p;
            // Same draws consumed: the streams stay in lockstep.
            ASSERT_EQ(a.next(), b.next()) << p;
        }
    }
}

TEST(Rng, UnitLimitSplitsDrawsExactly)
{
    // unit() < p must hold exactly for the 53-bit draws below
    // unitLimit(p): check the draws on both sides of the limit, and
    // the ends of the draw range.
    const std::uint64_t top = std::uint64_t{1} << 53;
    for (double p : thresholdProbes()) {
        const std::uint64_t limit = Rng::unitLimit(p);
        ASSERT_LE(limit, top) << p;
        std::vector<std::uint64_t> xs = {0, top - 1};
        for (std::uint64_t d = 0; d < 3; ++d) {
            if (limit >= d + 1)
                xs.push_back(limit - d - 1);
            if (limit + d < top)
                xs.push_back(limit + d);
        }
        for (std::uint64_t x : xs) {
            const double unit = static_cast<double>(x) * 0x1.0p-53;
            ASSERT_EQ(unit < p, x < limit) << p << " draw " << x;
        }
    }
}

} // namespace
} // namespace rampage
