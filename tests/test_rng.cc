/**
 * @file
 * Unit tests for the deterministic RNG (common/rng.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/round.hh"
#include "sim/scheduler.hh"

namespace wb
{
namespace
{

TEST(Rng, SameSeedSameSequence)
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
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

/**
 * Reference for below(): the rejection loop with its threshold
 * computed up front, two 64-bit divisions per call. Counts its raw
 * draws in @p draws.
 */
std::uint64_t
belowTwoDivisions(Rng &rng, std::uint64_t bound, std::uint64_t &draws)
{
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = rng.next();
        ++draws;
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, BelowMatchesTwoDivisionReference)
{
    constexpr int kDraws = 100000;
    // 2^63 + 1 rejects about half of all raw draws (its threshold is
    // 2^63 - 1), so the redraw loop runs there.
    for (std::uint64_t bound :
         {1ull, 2ull, 3ull, 191ull, 192ull, 4096ull, (1ull << 32) + 1,
          (1ull << 63) + 1, ~0ull}) {
        Rng fast(bound), ref(bound);
        std::uint64_t mismatches = 0, draws = 0;
        for (int i = 0; i < kDraws; ++i)
            if (fast.below(bound) != belowTwoDivisions(ref, bound, draws))
                ++mismatches;
        EXPECT_EQ(mismatches, 0u) << "bound " << bound;
        // Both consumed the same number of raw draws.
        EXPECT_EQ(fast.next(), ref.next()) << "bound " << bound;
        if (bound == (1ull << 63) + 1)
            EXPECT_GT(draws, kDraws + kDraws / 4);
    }

    // The co-runner pointer-chase shuffle: 192 lines.
    std::vector<unsigned> shuffled(192), reference(192);
    for (unsigned i = 0; i < shuffled.size(); ++i)
        shuffled[i] = reference[i] = i;
    Rng fast(19), ref(19);
    fast.shuffle(shuffled);
    std::uint64_t draws = 0;
    for (std::size_t i = reference.size(); i > 1; --i)
        std::swap(reference[i - 1],
                  reference[belowTwoDivisions(ref, i, draws)]);
    EXPECT_EQ(shuffled, reference);
    EXPECT_EQ(fast.next(), ref.next());
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= (v == -3);
        sawHi |= (v == 3);
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        if (rng.chance(0.3))
            ++hits;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(23);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(29);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double e = rng.exponential(100.0);
        ASSERT_GE(e, 0.0);
        sum += e;
    }
    EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(31);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto orig = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(Rng, ShuffleActuallyShuffles)
{
    Rng rng(37);
    std::vector<int> v(64);
    for (int i = 0; i < 64; ++i)
        v[i] = i;
    const auto orig = v;
    rng.shuffle(v);
    EXPECT_NE(v, orig); // P(identity) = 1/64! ~ 0
}

TEST(Rng, SplitIndependence)
{
    Rng root(41);
    Rng a = root.split();
    Rng b = root.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, FlipBalance)
{
    Rng rng(43);
    int heads = 0;
    for (int i = 0; i < 20000; ++i)
        if (rng.flip())
            ++heads;
    EXPECT_NEAR(heads / 20000.0, 0.5, 0.02);
}

TEST(Rng, ReseedMatchesFreshConstruction)
{
    Rng used(99);
    for (int i = 0; i < 1000; ++i)
        used.next();
    (void)used.gaussian(); // leave a Marsaglia spare behind

    used.reseed(99);
    Rng fresh(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(used.next(), fresh.next()) << "draw " << i;
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(used.gaussian(), fresh.gaussian()) << "gaussian " << i;
}

TEST(Rng, CoRunnerStreamsRederiveFromMasterSeed)
{
    // The scheduler's co-runner noise streams are pure functions of
    // (masterSeed, index): an Rng seeded with the derived value and a
    // reseeded one must replay the identical stream, and distinct
    // indexes must not collide — the property Scheduler::reseed()
    // and the reseed-reproducibility sweeps rely on.
    const std::uint64_t master = 0xfeedULL;
    Rng fresh(sim::coRunnerSeed(master, 3));
    Rng reseeded(12345);
    for (int i = 0; i < 100; ++i)
        reseeded.next();
    (void)reseeded.gaussian(); // leave a Marsaglia spare behind
    reseeded.reseed(sim::coRunnerSeed(master, 3));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(fresh.next(), reseeded.next()) << "draw " << i;

    Rng other(sim::coRunnerSeed(master, 4));
    Rng fresh2(sim::coRunnerSeed(master, 3));
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (fresh2.next() == other.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, DiscardCachedDeviatesRefillsFromCurrentStream)
{
    // A reseeded generator paired with discardCachedDeviates() must
    // reproduce the cached-deviate stream of a fresh Rng; without the
    // discard, stale deviates from before the reseed leak through
    // (the Hierarchy::resetAll() regression this API exists for).
    Rng used(7);
    for (int i = 0; i < 100; ++i)
        used.gaussianCached(); // consume part of a prefetched block

    used.reseed(7);
    used.discardCachedDeviates();
    Rng fresh(7);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(used.gaussianCached(), fresh.gaussianCached())
            << "deviate " << i;
}

TEST(Rng, RoundedSumMatchesTheScalarNoiseLoop)
{
    // gaussianCachedRoundedSum(sigma, k) is k per-access noise draws
    // in one call. Against the loop it replaces, over runs of 1..600
    // deviates (so runs start, end and cross 256-deviate refills at
    // every offset), several sigmas, reseeds, discards and foreign raw
    // draws between runs, it must return the same sum and leave the
    // generator in the same state.
    const double sigmas[] = {0.5, 2.5, 0.6, 1e7, 3.0e-3};
    std::uint64_t deviates = 0;
    for (std::uint64_t seed : {1ULL, 2ULL, 0xdeadbeefULL, 101ULL}) {
        Rng block(seed);
        Rng scalar(seed);
        Rng plan(seed ^ 0x5eed);
        for (int run = 0; run < 1000; ++run) {
            const double sigma = sigmas[plan.below(std::size(sigmas))];
            const std::size_t k = 1 + plan.below(600);
            std::uint64_t want = 0;
            for (std::size_t i = 0; i < k; ++i)
                want += roundPositivePart(sigma * scalar.gaussianCached());
            ASSERT_EQ(block.gaussianCachedRoundedSum(sigma, k), want)
                << "seed " << seed << " run " << run << " k " << k
                << " sigma " << sigma;
            deviates += k;
            switch (plan.below(16)) {
              case 0: {
                const std::uint64_t reseed = plan.next();
                block.reseed(reseed);
                block.discardCachedDeviates();
                scalar.reseed(reseed);
                scalar.discardCachedDeviates();
                break;
              }
              case 1:
                block.discardCachedDeviates();
                scalar.discardCachedDeviates();
                break;
              case 2:
                // Another consumer of the raw stream (a replacement
                // victim draw) between two runs.
                ASSERT_EQ(block.next(), scalar.next());
                break;
              default:
                break;
            }
        }
        // Both sides drew the same number of raw values.
        EXPECT_EQ(block.next(), scalar.next()) << "seed " << seed;
        EXPECT_EQ(block.gaussianCached(), scalar.gaussianCached());
    }
    EXPECT_GE(deviates, 1000000u);
}

// --------------------------------------------- roundNonNegative

/** roundNonNegative(x) and std::lround(x) agree on @p x. */
::testing::AssertionResult
roundsLikeLround(double x)
{
    const auto want = static_cast<std::uint64_t>(std::lround(x));
    const std::uint64_t got = roundNonNegative(x);
    if (got == want)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "x = " << std::hexfloat << x << std::defaultfloat
           << ": lround " << want << ", roundNonNegative " << got;
}

TEST(RoundNonNegative, MatchesLroundOnEdgeCases)
{
    const double inf = std::numeric_limits<double>::infinity();
    // The largest double below 0.5: x + 0.5 rounds up to 1.0, so the
    // classic floor(x + 0.5) gets this one wrong.
    EXPECT_TRUE(roundsLikeLround(0.49999999999999994));
    for (double x : {0.0, -0.0, 0.5, 1.0, std::nextafter(0.0, 1.0),
                     std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0)})
        EXPECT_TRUE(roundsLikeLround(x));
    // k + 0.5 rounds away from zero, and its neighbours do not move.
    for (double k = 0; k < 4096; ++k) {
        const double half = k + 0.5;
        EXPECT_TRUE(roundsLikeLround(half));
        EXPECT_TRUE(roundsLikeLround(std::nextafter(half, 0.0)));
        EXPECT_TRUE(roundsLikeLround(std::nextafter(half, inf)));
        EXPECT_TRUE(roundsLikeLround(k));
    }
    // Near 2^52 the spacing reaches 0.5 and then 1; above 2^53 every
    // double is an even integer. Up to just below 2^63, lround's top.
    for (int e : {51, 52, 53, 54, 62}) {
        const double p = std::ldexp(1.0, e);
        for (double x = std::nextafter(p, 0.0), i = 0; i < 8;
             x = std::nextafter(x, 0.0), ++i)
            EXPECT_TRUE(roundsLikeLround(x));
        for (double x = p, i = 0; i < 8; x = std::nextafter(x, inf), ++i)
            if (x < std::ldexp(1.0, 63))
                EXPECT_TRUE(roundsLikeLround(x));
    }
}

/** roundPositivePart(x) and std::lround(std::max(x, 0.0)) agree. */
::testing::AssertionResult
clampsLikeLround(double x)
{
    const auto want =
        static_cast<std::uint64_t>(std::lround(std::max(x, 0.0)));
    const std::uint64_t got = roundPositivePart(x);
    if (got == want)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "x = " << std::hexfloat << x << std::defaultfloat
           << ": lround(max(x, 0)) " << want << ", roundPositivePart "
           << got;
}

TEST(RoundNonNegative, PositivePartMatchesClampedLroundOnEdgeCases)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    // Every negative input clamps to 0, whatever its magnitude:
    // -0.0 (sign bit only), the smallest negative subnormal, -1e300.
    for (double x : {-0.0, -tiny, -1e300, -inf, -0.5, -1.0, 0.0, tiny,
                     0.49999999999999994, 0.5, 1.0})
        EXPECT_TRUE(clampsLikeLround(x));
    // k + 0.5 and its neighbours, on both sides of zero.
    for (double k = 0; k < 4096; ++k) {
        for (double sign : {1.0, -1.0}) {
            const double half = sign * (k + 0.5);
            EXPECT_TRUE(clampsLikeLround(half));
            EXPECT_TRUE(clampsLikeLround(std::nextafter(half, 0.0)));
            EXPECT_TRUE(clampsLikeLround(std::nextafter(half, sign * inf)));
            EXPECT_TRUE(clampsLikeLround(sign * k));
        }
    }
}

TEST(RoundNonNegative, MatchesLroundOnNoiseDraws)
{
    // The sigma * g values the per-access noise rounds, over sigmas
    // from the presets' 0.6 up to far wider than any preset: clamped
    // by hand through roundNonNegative, and unclamped through
    // roundPositivePart, which the noise draw calls.
    Rng rng(41);
    std::uint64_t mismatches = 0;
    for (double sigma : {0.6, 1.0, 2.5, 40.0, 1e6}) {
        for (int i = 0; i < 250000; ++i) {
            const double n = sigma * rng.gaussianCached();
            if (!roundsLikeLround(std::max(n, 0.0)))
                ++mismatches;
            if (!clampsLikeLround(n))
                ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
} // namespace wb
