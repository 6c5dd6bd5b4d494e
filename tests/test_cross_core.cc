/**
 * @file
 * End-to-end cross-core experiments (chan/cross_core.hh, the
 * cross-core sidechan variant, the cross-core Prime+Probe baseline):
 * the shared inclusive LLC carries the dirty-state signal between
 * cores, the non-inclusive LLC does not.
 *
 * Channel quality claims are pooled multi-seed statistical assertions
 * (tests/stat_assert.hh); per-seed structural checks (calibrated
 * signal gap, counter plumbing) keep one representative seed.
 */

#include <gtest/gtest.h>

#include "baselines/prime_probe.hh"
#include "chan/cross_core.hh"
#include "sidechan/attack.hh"
#include "stat_assert.hh"

namespace wb
{
namespace
{

/**
 * Error proportion of one cross-core transmission. Frames the decoder
 * failed to locate count as half wrong (the no-information regime).
 */
test::Proportion
crossCoreBer(chan::CrossCoreChannelConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    const auto res = chan::runCrossCoreChannel(cfg);
    const double payload = cfg.protocol.frameBits - 16;
    const double expected = res.framesExpected * payload;
    const double scored = res.framesScored * payload;
    return {res.ber * scored + 0.5 * (expected - scored), expected};
}

/** Accuracy proportion of one cross-core attack run. */
test::Proportion
attackAccuracy(sidechan::AttackConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    const auto res = sidechan::runAttack(cfg);
    return {res.accuracy * cfg.trials, double(cfg.trials)};
}

TEST(CrossCoreChannel, UsePlatformResolvesCores)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_TRUE(cfg.platform.inclusiveLlc);
    cfg.usePlatform("xeonE5-2650"); // single-core preset: still 2
    EXPECT_EQ(cfg.cores, 2u);
}

TEST(CrossCoreChannel, InclusiveLlcCarriesTheChannel)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.frames = 2;

    const auto sweep = test::sweepSeeds([&](std::uint64_t seed) {
        return crossCoreBer(cfg, seed);
    });
    EXPECT_BER_BELOW(sweep, 0.05);

    // Structural checks on one representative run: the calibrated
    // signal gap is ~d_max drain penalties, and the receiver observed
    // the sender's dirty lines as LLC drains.
    cfg.seed = 7;
    const auto res = chan::runCrossCoreChannel(cfg);
    const unsigned top = cfg.protocol.encoding.maxLevel();
    ASSERT_LT(top, res.calibrationMedians.size());
    const double gap =
        res.calibrationMedians[top] - res.calibrationMedians[0];
    const double perLine =
        static_cast<double>(cfg.platform.lat.llcDirtyEvictPenalty);
    EXPECT_GT(gap, perLine * top * 0.6);
    EXPECT_LT(gap, perLine * top * 1.4);
    EXPECT_GT(res.receiverCounters.llcDirtyEvictions, 100u);
}

TEST(CrossCoreChannel, NonInclusiveLlcClosesTheChannel)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("xeonE5-2650-2core");
    cfg.protocol.frames = 2;

    // No back-invalidation: the sender's dirty lines stay in its
    // privates, the receiver's evictions never reach them, and the
    // pooled BER pins near the coin-flip regime.
    const auto sweep = test::sweepSeeds([&](std::uint64_t seed) {
        return crossCoreBer(cfg, seed);
    });
    EXPECT_BER_ABOVE(sweep, 0.30);

    cfg.seed = 7;
    const auto res = chan::runCrossCoreChannel(cfg);
    const unsigned top = cfg.protocol.encoding.maxLevel();
    ASSERT_LT(top, res.calibrationMedians.size());
    const double gap =
        res.calibrationMedians[top] - res.calibrationMedians[0];
    EXPECT_LT(gap, 5.0);
    EXPECT_EQ(res.receiverCounters.llcDirtyEvictions, 0u);
}

TEST(CrossCoreAttack, StoreGadgetRecoversSecrets)
{
    sidechan::AttackConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.crossCore = true;
    EXPECT_EQ(cfg.cores, 4u); // adopted from the preset
    cfg.scenario = sidechan::Scenario::DirtyProbe;
    cfg.trials = 48;
    cfg.calibration = 100;

    const auto sweep = test::sweepSeeds([&](std::uint64_t seed) {
        return attackAccuracy(cfg, seed);
    });
    EXPECT_ACCURACY_ABOVE(sweep, 0.95);

    cfg.seed = 9;
    const auto res = sidechan::runAttack(cfg);
    EXPECT_GT(res.meanLatency1, res.meanLatency0 + 5.0);
}

TEST(CrossCoreAttack, DirtyPrimeRecoversLoadSecrets)
{
    sidechan::AttackConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.crossCore = true;
    cfg.cores = 4;
    cfg.scenario = sidechan::Scenario::DirtyPrime;
    cfg.trials = 48;
    cfg.calibration = 100;

    const auto sweep = test::sweepSeeds([&](std::uint64_t seed) {
        return attackAccuracy(cfg, seed);
    });
    EXPECT_ACCURACY_ABOVE(sweep, 0.95);

    // secret=1 evicts dirty prime lines: the probe gets *cheaper*.
    cfg.seed = 9;
    const auto res = sidechan::runAttack(cfg);
    EXPECT_LT(res.meanLatency1, res.meanLatency0);
}

TEST(CrossCorePrimeProbe, InclusiveLlcCarriesTheChannel)
{
    chan::ChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.ts = cfg.protocol.tr = 12000;
    cfg.protocol.frames = 4;
    cfg.protocol.targetSet = 37;

    const auto sweep = test::sweepSeeds([cfg](std::uint64_t seed) {
        chan::ChannelConfig local = cfg; // the pool shares this lambda
        local.seed = seed;
        const auto res = baselines::runCrossCorePrimeProbe(local, 2, 4);
        // The probe medians of its own calibration separate.
        EXPECT_FALSE(res.closed) << "seed " << seed;
        // This runner systematically truncates the tail frame (its
        // sampling window ends a frame early), and an unlucky noise
        // trajectory can additionally desynchronise one more frame;
        // score the located frames but never accept losing more than
        // those two.
        EXPECT_GE(res.framesScored + 2, res.framesExpected)
            << "seed " << seed;
        const double scored =
            res.framesScored * (cfg.protocol.frameBits - 16.0);
        return test::Proportion{res.ber * scored, scored};
    });
    EXPECT_BER_BELOW(sweep, 0.1);
}

TEST(CrossCorePrimeProbe, NonInclusiveLlcClosesTheChannel)
{
    chan::ChannelConfig cfg;
    cfg.usePlatform("xeonE5-2650-2core");
    cfg.protocol.ts = cfg.protocol.tr = 12000;
    cfg.protocol.frames = 2;
    cfg.protocol.targetSet = 37;

    const auto sweep = test::sweepSeeds([cfg](std::uint64_t seed) {
        chan::ChannelConfig local = cfg; // the pool shares this lambda
        local.seed = seed;
        const auto res = baselines::runCrossCorePrimeProbe(local, 2, 2);
        // No probe-latency gap in its own calibration: the run reports
        // itself closed, and its BER below is chance.
        EXPECT_TRUE(res.closed) << "seed " << seed;
        const double payload = cfg.protocol.frameBits - 16;
        const double expected = res.framesExpected * payload;
        const double scored = res.framesScored * payload;
        return test::Proportion{
            res.ber * scored + 0.5 * (expected - scored), expected};
    });
    EXPECT_BER_ABOVE(sweep, 0.30);
}

} // namespace
} // namespace wb
