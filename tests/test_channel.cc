/**
 * @file
 * End-to-end covert channel tests (chan/channel.hh): sender/receiver
 * programs on the simulated SMT platform, decode quality under quiet
 * and realistic noise, noise-process robustness (paper Fig. 8), and
 * reproducibility.
 *
 * Every BER claim is a pooled multi-seed statistical assertion
 * (tests/stat_assert.hh): the Wilson bound of the error proportion
 * over >= 16 seeds must clear the threshold, so no expectation rests
 * on one lucky trajectory.
 */

#include <gtest/gtest.h>

#include "chan/channel.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"
#include "stat_assert.hh"

namespace wb::chan
{
namespace
{

ChannelConfig
quietConfig()
{
    ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.protocol.frames = 4;
    cfg.calibration.measurements = 60;
    cfg.seed = 17;
    return cfg;
}

/**
 * One run's error proportion: edit errors over the payload bits the
 * sender transmitted. Frames the decoder failed to locate count as
 * half wrong — an unlocated frame carries no information, which is
 * the 50%-BER regime — so a misaligned run cannot shrink the
 * denominator and quietly pass.
 */
test::Proportion
berProportion(const ChannelConfig &cfg)
{
    const ChannelResult res = runChannel(cfg);
    const double payload = cfg.protocol.frameBits - 16;
    const double expected = res.framesExpected * payload;
    const double scored = res.framesScored * payload;
    return {res.ber * scored + 0.5 * (expected - scored), expected};
}

/** Sweep a config over seeds, pooling the per-run error proportions. */
test::ProportionSweep
berSweep(ChannelConfig cfg, unsigned seeds = test::ProportionSweep::kMinRuns)
{
    return test::sweepSeeds(
        [cfg](std::uint64_t seed) {
            ChannelConfig local = cfg; // the pool shares this lambda
            local.seed = seed;
            return berProportion(local);
        },
        seeds);
}

/** Quiet platform: the channel must be essentially error free. */
class QuietChannel : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QuietChannel, ZeroBerAtModerateRate)
{
    ChannelConfig cfg = quietConfig();
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.frames = 2;
    cfg.protocol.encoding = Encoding::binary(GetParam());
    // 16 seeds x 2 frames x 112 payload bits with zero errors keeps
    // the Wilson upper bound under ~0.3%.
    EXPECT_BER_BELOW(berSweep(cfg), 0.005);
}

INSTANTIATE_TEST_SUITE_P(AllD, QuietChannel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(Channel, QuietMultiBitZeroBer)
{
    ChannelConfig cfg = quietConfig();
    cfg.protocol.ts = cfg.protocol.tr = 4000;
    cfg.protocol.encoding = Encoding::paperTwoBit();
    cfg.protocol.frameBits = 256;
    cfg.protocol.frames = 2;
    EXPECT_BER_BELOW(berSweep(cfg), 0.005);
}

TEST(Channel, RealisticNoiseLowRateIsClean)
{
    ChannelConfig cfg; // default realistic noise
    cfg.protocol.ts = cfg.protocol.tr = 11000; // 200 kbps
    cfg.protocol.encoding = Encoding::binary(4);
    cfg.protocol.frames = 4;
    cfg.calibration.measurements = 100;
    EXPECT_BER_BELOW(berSweep(cfg), 0.05); // paper Fig. 6 low-rate band
}

TEST(Channel, BerGrowsWithRate)
{
    // Pooled over the seed sweep: BER at 2750 kbps must exceed BER at
    // 400 kbps (paper Fig. 6's monotone trend), by a margin the
    // confidence intervals cannot bridge.
    ChannelConfig cfg;
    cfg.protocol.encoding = Encoding::binary(1);
    cfg.protocol.frames = 5;
    cfg.calibration.measurements = 100;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    const auto slow = berSweep(cfg);
    cfg.protocol.ts = cfg.protocol.tr = 800;
    const auto fast = berSweep(cfg);
    EXPECT_LT(slow.ci().hi, fast.ci().lo)
        << "slow " << slow << " vs fast " << fast;
}

TEST(Channel, SameSeedReproduces)
{
    ChannelConfig cfg;
    cfg.protocol.frames = 3;
    cfg.calibration.measurements = 60;
    cfg.seed = 99;
    auto a = runChannel(cfg);
    auto b = runChannel(cfg);
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.latencies, b.latencies);
    EXPECT_EQ(a.decodedBits, b.decodedBits);
}

TEST(Channel, DifferentSeedsDiffer)
{
    ChannelConfig cfg;
    cfg.protocol.frames = 3;
    cfg.calibration.measurements = 60;
    cfg.seed = 1;
    auto a = runChannel(cfg);
    cfg.seed = 2;
    auto b = runChannel(cfg);
    EXPECT_NE(a.latencies, b.latencies);
}

TEST(Channel, CleanNoiseProcessDoesNotBreakWb)
{
    // Paper Fig. 8(b): noisy *clean* lines leave the WB channel
    // intact.
    ChannelConfig cfg = quietConfig();
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = Encoding::binary(1);
    cfg.protocol.frames = 2;
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 3 * 5500;
    cfg.noiseCfg.burstLines = 1;
    cfg.noiseCfg.storeFraction = 0.0;
    EXPECT_BER_BELOW(berSweep(cfg), 0.02);
}

TEST(Channel, ManyCleanNoisyLinesStillFine)
{
    // Sec. VI: "the WB channel can resist the interference of
    // multiple noisy cache lines".
    ChannelConfig cfg = quietConfig();
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = Encoding::binary(2);
    cfg.protocol.frames = 2;
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 2 * 5500;
    cfg.noiseCfg.burstLines = 6;
    EXPECT_BER_BELOW(berSweep(cfg), 0.05);
}

TEST(Channel, DirtyNoiseDoesHurt)
{
    // The one interference the paper admits: another process *writing*
    // lines in the target set. Pooled over the sweep, the dirty-noise
    // BER interval must sit clear above the clean one.
    ChannelConfig base = quietConfig();
    base.protocol.ts = base.protocol.tr = 5500;
    base.protocol.encoding = Encoding::binary(1);
    base.protocol.frames = 3;

    ChannelConfig noisy = base;
    noisy.noiseProcesses = 1;
    noisy.noiseCfg.period = 5500;
    noisy.noiseCfg.burstLines = 2;
    noisy.noiseCfg.storeFraction = 1.0;

    const auto clean = berSweep(base);
    const auto dirty = berSweep(noisy);
    EXPECT_GT(dirty.ci().lo, clean.ci().hi + 0.05)
        << "clean " << clean << " vs dirty " << dirty;
}

TEST(Channel, CountersArePopulated)
{
    ChannelConfig cfg = quietConfig();
    cfg.protocol.encoding = Encoding::binary(3);
    auto res = runChannel(cfg);
    // Sender only stores (encode) — loads come from its spin stack.
    EXPECT_GT(res.senderCounters.stores, 0u);
    EXPECT_GT(res.receiverCounters.loads, 100u);
    EXPECT_GT(res.receiverCounters.l1DirtyWritebacks, 0u);
    EXPECT_GT(res.simulatedCycles, 0u);
}

TEST(Channel, GoodputConsistent)
{
    ChannelConfig cfg = quietConfig();
    auto res = runChannel(cfg);
    EXPECT_NEAR(res.goodputKbps, res.rateKbps * (1 - res.ber), 1e-9);
}

TEST(Channel, TransmitStringRoundtrip)
{
    ChannelConfig cfg = quietConfig();
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = Encoding::binary(8);
    const std::string msg = "dirty bits leak";
    ChannelResult res;
    const std::string got = transmitString(cfg, msg, &res);
    EXPECT_EQ(got, msg);
    EXPECT_TRUE(res.aligned);
}

TEST(Channel, TransmitStringMultiBit)
{
    ChannelConfig cfg = quietConfig();
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = Encoding::paperTwoBit();
    const std::string msg = "WB";
    EXPECT_EQ(transmitString(cfg, msg), msg);
}

TEST(Channel, RejectsOversizedEncoding)
{
    ChannelConfig cfg = quietConfig();
    cfg.protocol.encoding = Encoding::multiBit({0, 9}); // d=9 > 8 ways
    EXPECT_EXIT((void)runChannel(cfg), ::testing::ExitedWithCode(1),
                "exceeds associativity");
}

TEST(Channel, WorksOnRandomReplacement)
{
    // Sec. VI-A: the channel still works under an IID random policy
    // with a bigger margin (the paper suggests d=3, L=12 from gem5;
    // this model's leftover-dirt noise needs the stronger d=8, L=16
    // operating point for a stable channel — see EXPERIMENTS.md).
    // The old single-seed expectation here was < 0.10; the pooled
    // 16-seed rate is ~0.106, i.e. that bound only held on its magic
    // seed. The honest claim: clearly transmitting (far below the
    // 0.5 of a closed channel), at roughly 11% raw BER.
    ChannelConfig cfg = quietConfig();
    cfg.platform.l1.policy = sim::PolicyKind::RandomIid;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.replacementSize = 16;
    cfg.protocol.frames = 3;
    EXPECT_BER_BELOW(berSweep(cfg), 0.15);
}

/** Direct program-level tests. */
TEST(SenderProgram, EmitsExpectedOps)
{
    sim::AddressLayout layout(64);
    auto lines = linesForSet(layout, 3, 8);
    SenderProgram sender(lines, {2, 0, 1}, 1000);
    EXPECT_FALSE(sender.done());
    EXPECT_EQ(sender.symbolsSent(), 0u);
}

TEST(SenderProgram, RejectsTooFewLines)
{
    sim::AddressLayout layout(64);
    auto lines = linesForSet(layout, 3, 2);
    EXPECT_EXIT(SenderProgram(lines, {5}, 1000),
                ::testing::ExitedWithCode(1), "needs");
}

TEST(ReceiverProgram, RecordsExactlySampleCount)
{
    sim::HierarchyParams hp = sim::xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    Rng rng(3);
    sim::Hierarchy h(hp, &rng);
    sim::SmtCore core(h, sim::NoiseModel::quiet(), rng);
    const auto sets = makeChannelSets(h.l1().layout(), 13, 8, 10);
    ReceiverProgram rx(sets.replacementA, sets.replacementB, 2000, 25);
    auto tid = core.addThread(&rx, sim::AddressSpace(2));
    core.run(10'000'000);
    EXPECT_TRUE(core.halted(tid));
    EXPECT_TRUE(rx.done());
    EXPECT_EQ(rx.observations().size(), 25u);
    // Observation timestamps are ~Tr apart (allow a little slack for
    // cold-vs-warm measurement length differences).
    const auto &obs = rx.observations();
    for (std::size_t i = 1; i < obs.size(); ++i)
        EXPECT_GE(obs[i].at, obs[i - 1].at + 1900);
}

} // namespace
} // namespace wb::chan
