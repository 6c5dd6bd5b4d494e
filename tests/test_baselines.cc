/**
 * @file
 * Tests for the baseline covert channels (LRU, Prime+Probe,
 * Flush+Reload, Flush+Flush, coherence-state) and the stability
 * comparison of paper Sec. VI / Fig. 8.
 */

#include <gtest/gtest.h>

#include "baselines/flush_channels.hh"
#include "baselines/hit_hit_channel.hh"
#include "baselines/lru_channel.hh"
#include "baselines/prime_probe.hh"
#include "chan/channel.hh"
#include "stat_assert.hh"

namespace wb::baselines
{
namespace
{

chan::ChannelConfig
slowConfig(std::uint64_t seed = 3)
{
    chan::ChannelConfig cfg;
    // 400 kbps, the LRU channel's comfort zone.
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.frames = 10;
    cfg.seed = seed;
    return cfg;
}

TEST(LruChannel, WorksCleanUnderTrueLru)
{
    auto cfg = slowConfig();
    cfg.platform.l1.policy = sim::PolicyKind::TrueLru;
    auto res = runLruChannel(cfg);
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.05);
}

TEST(LruChannel, PlruDegradesIt)
{
    // Sec. VI: "commercial processors often adopt a PLRU policy
    // instead of a true LRU policy, which also has an impact on the
    // LRU channel."
    double lruBer = 0, plruBer = 0;
    for (std::uint64_t seed : {3, 4, 5}) {
        auto cfg = slowConfig(seed);
        cfg.platform.l1.policy = sim::PolicyKind::TrueLru;
        lruBer += runLruChannel(cfg).ber;
        cfg.platform.l1.policy = sim::PolicyKind::TreePlru;
        plruBer += runLruChannel(cfg).ber;
    }
    EXPECT_GE(plruBer, lruBer);
}

TEST(LruChannel, NoisyLineBreaksIt)
{
    // Paper Fig. 8(a): a single clean noisy line forces permanent
    // decode errors in the LRU channel...
    auto cfg = slowConfig();
    cfg.platform.l1.policy = sim::PolicyKind::TrueLru;
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 3 * 5500;
    cfg.noiseCfg.burstLines = 1;
    auto noisy = runLruChannel(cfg);
    cfg.noiseProcesses = 0;
    auto clean = runLruChannel(cfg);
    EXPECT_GT(noisy.ber, clean.ber + 0.10);
}

TEST(WbVsLru, WbSurvivesTheNoiseThatKillsLru)
{
    // ...while the WB channel shrugs it off (Fig. 8(b)).
    chan::ChannelConfig wb;
    wb.protocol.ts = wb.protocol.tr = 5500;
    wb.protocol.frames = 10;
    wb.protocol.encoding = chan::Encoding::binary(1);
    wb.calibration.measurements = 100;
    wb.seed = 3;
    wb.noiseProcesses = 1;
    wb.noiseCfg.period = 3 * 5500;
    wb.noiseCfg.burstLines = 1;
    auto wbRes = chan::runChannel(wb);
    EXPECT_LT(wbRes.ber, 0.05);

    auto lru = slowConfig();
    lru.platform.l1.policy = sim::PolicyKind::TrueLru;
    lru.noiseProcesses = 1;
    lru.noiseCfg.period = 3 * 5500;
    lru.noiseCfg.burstLines = 1;
    auto lruRes = runLruChannel(lru);
    EXPECT_GT(lruRes.ber, wbRes.ber + 0.10);
}

TEST(PrimeProbe, WorksClean)
{
    auto res = runPrimeProbeChannel(slowConfig());
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.05);
}

TEST(PrimeProbe, NoisyLineHurts)
{
    auto cfg = slowConfig();
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 3 * 5500;
    cfg.noiseCfg.burstLines = 1;
    auto noisy = runPrimeProbeChannel(cfg);
    cfg.noiseProcesses = 0;
    auto clean = runPrimeProbeChannel(cfg);
    EXPECT_GT(noisy.ber, clean.ber + 0.05);
}

TEST(FlushReload, WorksWithSharedMemory)
{
    // A single trajectory's BER swings between ~0 and ~0.2 with the
    // PRNG draw order; assert the pooled rate over a seed sweep.
    const auto sweep = test::sweepSeeds([](std::uint64_t seed) {
        auto res = runFlushChannel(slowConfig(seed), FlushKind::FlushReload);
        EXPECT_TRUE(res.aligned) << "seed " << seed;
        const double bits = double(res.sentFrame.size()) * res.framesScored;
        return test::Proportion{res.ber * bits, bits};
    });
    EXPECT_BER_BELOW(sweep, 0.12);
}

TEST(FlushFlush, Works)
{
    auto res = runFlushChannel(slowConfig(), FlushKind::FlushFlush);
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.05);
}

TEST(CoherenceState, DirtyFlushTimingWorks)
{
    auto res = runFlushChannel(slowConfig(), FlushKind::CoherenceState);
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.08);
}

TEST(BaselineProtocol, TargetSetOutOfRangeIsFatal)
{
    // compose() would OR an index >= 64 into the tag bits of the
    // 64-set L1 and run a silently broken channel on another set.
    for (unsigned set : {64u, 77u}) {
        auto cfg = slowConfig();
        cfg.protocol.targetSet = set;
        EXPECT_EXIT((void)runLruChannel(cfg), ::testing::ExitedWithCode(1),
                    "ProtocolConfig::targetSet = " + std::to_string(set));
        EXPECT_EXIT((void)runPrimeProbeChannel(cfg),
                    ::testing::ExitedWithCode(1),
                    "ProtocolConfig::targetSet");
        EXPECT_EXIT((void)runFlushChannel(cfg, FlushKind::FlushFlush),
                    ::testing::ExitedWithCode(1),
                    "ProtocolConfig::targetSet");
        EXPECT_EXIT((void)runHitHitChannel(cfg),
                    ::testing::ExitedWithCode(1),
                    "ProtocolConfig::targetSet");
    }
    // Cross-core Prime+Probe meets in the LLC: its range is the LLC's.
    chan::ChannelConfig cross;
    cross.usePlatform("desktop-inclusive-4core");
    cross.protocol.targetSet = cross.platform.llc.numSets();
    EXPECT_EXIT((void)runCrossCorePrimeProbe(cross, 2, 4),
                ::testing::ExitedWithCode(1), "ProtocolConfig::targetSet");
}

TEST(BaselineProtocol, NonBinaryEncodingIsFatal)
{
    auto cfg = slowConfig();
    cfg.protocol.encoding = chan::Encoding::binary(4);
    EXPECT_EXIT((void)runLruChannel(cfg), ::testing::ExitedWithCode(1),
                "ProtocolConfig::encoding");
    EXPECT_EXIT((void)runPrimeProbeChannel(cfg),
                ::testing::ExitedWithCode(1), "ProtocolConfig::encoding");
    EXPECT_EXIT((void)runFlushChannel(cfg, FlushKind::FlushReload),
                ::testing::ExitedWithCode(1), "ProtocolConfig::encoding");
    EXPECT_EXIT((void)runHitHitChannel(cfg), ::testing::ExitedWithCode(1),
                "ProtocolConfig::encoding");
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.encoding = chan::Encoding::paperTwoBit();
    EXPECT_EXIT((void)runCrossCorePrimeProbe(cfg, 2, 4),
                ::testing::ExitedWithCode(1), "ProtocolConfig::encoding");
}

TEST(FlushKinds, Names)
{
    EXPECT_EQ(flushKindName(FlushKind::FlushReload), "Flush+Reload");
    EXPECT_EQ(flushKindName(FlushKind::FlushFlush), "Flush+Flush");
    EXPECT_EQ(flushKindName(FlushKind::CoherenceState),
              "CoherenceState");
}

TEST(Baselines, SenderCountersDiffer)
{
    // Table VI's direction: the LRU sender issues far more loads than
    // the WB sender per transmitted bit (continuous modulation).
    auto cfg = slowConfig();
    cfg.protocol.frames = 5;
    auto lru = runLruChannel(cfg, /*modulateCycles=*/0);

    chan::ChannelConfig wb;
    wb.protocol.ts = wb.protocol.tr = 5500;
    wb.protocol.frames = 5;
    wb.protocol.encoding = chan::Encoding::binary(1);
    wb.calibration.measurements = 60;
    wb.seed = 3;
    auto wbRes = chan::runChannel(wb);

    const auto lruTotal =
        lru.senderCounters.l1LoadsWithSpin();
    const auto wbTotal = wbRes.senderCounters.l1LoadsWithSpin();
    EXPECT_GT(lruTotal, wbTotal);
}

TEST(Baselines, HigherRateHurtsLruMoreThanWb)
{
    // The LRU channel peaks around 600 kbps (paper Sec. VI): pushing
    // ts from 5500 down to 1000 cycles raises its pooled error rate
    // several-fold, while the WB channel still decodes at 1375 kbps
    // (ts = 1600). Both halves are pooled seed sweeps so the claim is
    // about the channels, not one lucky trajectory.
    auto lruAt = [](unsigned ts) {
        return test::sweepSeeds([ts](std::uint64_t seed) {
            auto cfg = slowConfig(seed);
            cfg.protocol.ts = cfg.protocol.tr = ts;
            cfg.protocol.frames = 25;
            cfg.platform.l1.policy = sim::PolicyKind::TrueLru;
            auto res = runLruChannel(cfg);
            const double bits =
                double(res.sentFrame.size()) * res.framesScored;
            return test::Proportion{res.ber * bits, bits};
        });
    };
    const auto lruSlow = lruAt(5500);
    const auto lruFast = lruAt(1000);
    EXPECT_GT(lruFast.ci().lo, lruSlow.ci().hi)
        << "slow " << lruSlow << " fast " << lruFast;

    const auto wbFast = test::sweepSeeds([](std::uint64_t seed) {
        chan::ChannelConfig wb;
        wb.protocol.ts = wb.protocol.tr = 1600;
        wb.protocol.frames = 25;
        wb.protocol.encoding = chan::Encoding::binary(8);
        wb.calibration.measurements = 100;
        wb.seed = seed;
        auto res = chan::runChannel(wb);
        const double bits =
            double(res.sentFrame.size()) * res.framesScored;
        return test::Proportion{res.ber * bits, bits};
    });
    EXPECT_BER_BELOW(wbFast, 0.1);
}

} // namespace
} // namespace wb::baselines
