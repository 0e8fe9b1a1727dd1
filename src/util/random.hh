/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (random cache/TLB
 * replacement, synthetic trace generation) draws from an explicitly
 * seeded Rng instance so that runs are bit-reproducible. std::mt19937
 * is avoided because its heavy state makes per-object generators
 * wasteful; this is the xoshiro256** generator seeded via splitmix64.
 */

#ifndef RAMPAGE_UTIL_RANDOM_HH
#define RAMPAGE_UTIL_RANDOM_HH

#include <cstdint>

#include "util/error.hh"

namespace rampage
{

/**
 * Small, fast, seedable PRNG (xoshiro256**).
 *
 * Statistically strong enough for replacement-policy and workload
 * randomness while being a few instructions per draw.
 */
class Rng
{
  public:
    /** Seed deterministically; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    // The draw methods are defined inline: synthetic trace
    // generation makes tens of millions of draws per simulated
    // second, and the per-call overhead of out-of-line definitions
    // was visible in profiles.

    /** @return a uniformly distributed 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /**
     * @return a uniform integer in [0, bound); bound must be nonzero.
     * Uses Lemire's multiply-shift rejection-free mapping (the tiny
     * modulo bias is irrelevant at simulator scales).
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        RAMPAGE_ASSERT(bound != 0, "Rng::below requires a nonzero bound");
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** @return the 53-bit draw unit() scales: unit() == draw53() * 2^-53. */
    std::uint64_t draw53() { return next() >> 11; }

    /** @return a uniform double in [0, 1). */
    double
    unit()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(draw53()) * 0x1.0p-53;
    }

    /** @return true with probability p (clamped to [0, 1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return unit() < p;
    }

    /**
     * The integer L with `unit() < p` exactly when `draw53() < L`,
     * for every double p (NaN included: L = 0, never true).
     *
     * For 0 < p < 1, p * 2^53 is exact (a power-of-two scaling) and
     * so is x * 2^-53 for a 53-bit draw x, hence x * 2^-53 < p iff
     * x < p * 2^53 iff x < ceil(p * 2^53).  The ceiling is taken by
     * hand because std::ceil is not constexpr.
     */
    static constexpr std::uint64_t
    unitLimit(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        const double scaled = p * 0x1.0p53;
        const auto whole = static_cast<std::uint64_t>(scaled);
        return whole + (static_cast<double>(whole) < scaled ? 1 : 0);
    }

    /**
     * A probability for chance() precomputed as an integer limit.
     * chance(Threshold(p)) returns what chance(p) returns and consumes
     * the same draws: none for p <= 0 or p >= 1, one otherwise (NaN
     * draws and is never true).
     */
    struct Threshold
    {
        static constexpr std::uint64_t never = ~std::uint64_t{0};
        static constexpr std::uint64_t always = never - 1;

        /** draw53() < limit, or one of the no-draw sentinels. */
        std::uint64_t limit;

        constexpr explicit Threshold(double p)
            : limit(p <= 0.0   ? never
                    : p >= 1.0 ? always
                               : unitLimit(p))
        {
        }
    };

    /** chance(p) for a precomputed Threshold(p): no floating point. */
    bool
    chance(Threshold t)
    {
        if (t.limit > (std::uint64_t{1} << 53))
            return t.limit == Threshold::always;
        return draw53() < t.limit;
    }

    /**
     * @return a sample from a bounded geometric-ish distribution in
     * [0, bound), biased toward 0 with the given mean fraction; used
     * for temporally-skewed working set sampling.
     */
    std::uint64_t
    skewedBelow(std::uint64_t bound, double hot_fraction,
                double hot_probability)
    {
        RAMPAGE_ASSERT(bound != 0, "skewedBelow requires a nonzero bound");
        std::uint64_t hot = static_cast<std::uint64_t>(
            static_cast<double>(bound) * hot_fraction);
        if (hot == 0)
            hot = 1;
        return skewedBelowCached(bound, hot, Threshold(hot_probability));
    }

    /**
     * skewedBelow() with the hot span and probability precomputed by
     * the caller — identical draw sequence (the short-circuit on
     * hot >= bound skips the probability draw exactly as skewedBelow
     * does).  The synthetic trace generators cache both per profile
     * so no floating point is left in this draw.
     */
    std::uint64_t
    skewedBelowCached(std::uint64_t bound, std::uint64_t hot,
                      Threshold hot_probability)
    {
        RAMPAGE_ASSERT(bound != 0,
                       "skewedBelowCached requires a nonzero bound");
        if (hot >= bound || !chance(hot_probability))
            return below(bound);
        return below(hot);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace rampage

#endif // RAMPAGE_UTIL_RANDOM_HH
