/**
 * @file
 * Tests for the Hit+Hit (CacheBleed-style) baseline channel, the third
 * class of the paper's taxonomy as a working exemplar.
 */

#include <gtest/gtest.h>

#include "baselines/hit_hit_channel.hh"

namespace wb::baselines
{
namespace
{

chan::ChannelConfig
config(std::uint64_t seed = 3)
{
    chan::ChannelConfig cfg;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.frames = 12;
    cfg.seed = seed;
    return cfg;
}

TEST(HitHit, TransmitsViaContention)
{
    auto res = runHitHitChannel(config());
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.10);
    // The modelled contention gap is cycles wide: the link is open.
    EXPECT_FALSE(res.closed);
}

TEST(HitHit, NoContentionNoChannel)
{
    // Turn off SMT port contention: the physical medium disappears.
    auto cfg = config();
    cfg.noise.portContentionProb = 0.0;
    auto res = runHitHitChannel(cfg);
    EXPECT_GT(res.ber, 0.25);
    // The centroids sit 1e-6 apart: the run reports itself closed.
    EXPECT_TRUE(res.closed);
}

TEST(HitHit, BiggerBurstsAverageOutNoise)
{
    double smallBurst = 0, bigBurst = 0;
    for (std::uint64_t seed : {3, 4, 5}) {
        smallBurst += runHitHitChannel(config(seed), 8).ber;
        bigBurst += runHitHitChannel(config(seed), 96).ber;
    }
    // The per-load signal is ~0.5 cycles: a tiny burst drowns in
    // measurement noise, a large one integrates it out.
    EXPECT_LT(bigBurst, smallBurst);
}

TEST(HitHit, AllReceiverAccessesAreHits)
{
    // The defining property of the class: the receiver never misses
    // (beyond its one cold fill).
    auto res = runHitHitChannel(config());
    EXPECT_LE(res.receiverCounters.l1Misses, 3u);
    EXPECT_GT(res.receiverCounters.l1Hits, 1000u);
}

TEST(HitHit, RequiresConcurrentExecution)
{
    // Unlike the WB channel, stretching the slot does not help the
    // Hit+Hit receiver if the sender's hammering is diluted: with the
    // sender hammering only 1/8 of each slot and phases drifting, the
    // receiver's burst usually samples a quiet core. (The paper: such
    // channels need truly concurrent hyper-threads.) We emulate the
    // dilution by shrinking ts for the sender relative to tr... the
    // framework keeps ts == tr, so instead verify the complementary
    // direction: the clean channel needs the default contention
    // window; halving the probability degrades it measurably.
    auto cfg = config();
    auto base = runHitHitChannel(cfg);
    cfg.noise.portContentionProb = 0.08;
    auto weak = runHitHitChannel(cfg);
    EXPECT_GE(weak.ber, base.ber);
}

} // namespace
} // namespace wb::baselines
