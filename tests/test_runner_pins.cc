/**
 * @file
 * Bit-exact pins for every channel runner: same-core, cross-core, L2
 * and multi-set, single shots and transport sessions, with and
 * without the OS-noise scheduler, under every observer class, plus
 * the baseline channels (LRU, Prime+Probe, the flush family, Hit+Hit). Each
 * digest (tests/digest.hh) covers the latency stream, the decoded
 * bits, BER, simulated cycles, calibration centroids, per-party
 * counters and scheduler stats, so a refactor of the channel pipeline
 * that moves one RNG draw, one access or one decode decision trips
 * it. The constants were captured before the runners shared one
 * pipeline.
 */

#include <gtest/gtest.h>

#include "baselines/flush_channels.hh"
#include "baselines/hit_hit_channel.hh"
#include "baselines/lru_channel.hh"
#include "baselines/prime_probe.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/l2_channel.hh"
#include "chan/multiset.hh"
#include "digest.hh"
#include "sim/observer.hh"
#include "sim/platform.hh"

namespace wb::chan
{
namespace
{

using test::baselineDigest;
using test::shotDigest;
using test::smallTransport;
using test::transportDigest;

/** A short same-core shot: four 64-bit frames. */
ChannelConfig
sameCore(const char *platform, std::uint64_t seed)
{
    ChannelConfig cfg;
    cfg.usePlatform(platform);
    cfg.protocol.frameBits = 64;
    cfg.protocol.frames = 4;
    cfg.seed = seed;
    return cfg;
}

/** A short cross-core shot: four 64-bit frames. */
CrossCoreChannelConfig
crossCore(const char *platform, std::uint64_t seed)
{
    CrossCoreChannelConfig cfg;
    cfg.usePlatform(platform);
    cfg.protocol.frameBits = 64;
    cfg.protocol.frames = 4;
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------------------------
// Same-core runChannel: platforms, noise processes, a closed preset.
// ------------------------------------------------------------------

TEST(RunnerPins, SameCoreXeon)
{
    const ChannelResult r = runChannel(sameCore("xeonE5-2650", 7));
    EXPECT_FALSE(r.closed);
    EXPECT_EQ(shotDigest(r), 2545312675499238787ull);
}

TEST(RunnerPins, SameCoreDesktopWithNoiseProcesses)
{
    ChannelConfig cfg = sameCore("desktop-inclusive", 11);
    cfg.noiseProcesses = 2;
    EXPECT_EQ(shotDigest(runChannel(cfg)), 4154815177973450700ull);
}

TEST(RunnerPins, SameCoreClosedWriteThrough)
{
    const ChannelResult r = runChannel(sameCore("cortexA53-wt", 5));
    EXPECT_TRUE(r.closed);
    EXPECT_EQ(shotDigest(r), 14045068139690460655ull);
}

// ------------------------------------------------------------------
// Same-core runChannel, one per observer class.
// ------------------------------------------------------------------

TEST(RunnerPins, SameCoreSandboxTimer)
{
    ChannelConfig cfg = sameCore("xeonE5-2650", 3);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 1;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer();
    const ChannelResult r = runChannel(cfg);
    EXPECT_GT(r.repetition, 1u);
    EXPECT_EQ(shotDigest(r), 1747756604383711599ull);
}

TEST(RunnerPins, SameCoreFlushLatency)
{
    ChannelConfig cfg = sameCore("xeonE5-2650", 3);
    cfg.noise.observer = sim::ObserverModel::flushLatency();
    EXPECT_EQ(shotDigest(runChannel(cfg)), 1264138928167475597ull);
}

TEST(RunnerPins, SameCoreEvictionOnly)
{
    ChannelConfig cfg = sameCore("xeonE5-2650", 3);
    cfg.noise.observer = sim::ObserverModel::evictionOnly();
    const ChannelResult r = runChannel(cfg);
    EXPECT_TRUE(r.evictionDiscoveryVerified);
    EXPECT_EQ(shotDigest(r), 14675013221674979887ull);
}

// ------------------------------------------------------------------
// Scheduler on: the platform's noise preset plus three co-runners.
// ------------------------------------------------------------------

TEST(RunnerPins, SameCoreUnderScheduler)
{
    ChannelConfig cfg = sameCore("xeonE5-2650", 9);
    cfg.scheduler = sim::platform("xeonE5-2650").noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
    const ChannelResult r = runChannel(cfg);
    EXPECT_GT(r.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(r), 12404763411116237722ull);
}

TEST(RunnerPins, CrossCoreUnderScheduler)
{
    CrossCoreChannelConfig cfg = crossCore("desktop-inclusive-4core", 9);
    cfg.scheduler = sim::platform("desktop-inclusive-4core").noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
    const ChannelResult r = runCrossCoreChannel(cfg);
    EXPECT_GT(r.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(r), 6650301179120224085ull);
}

// ------------------------------------------------------------------
// Cross-core runCrossCoreChannel: inclusive (open) and non-inclusive
// (closed) LLC.
// ------------------------------------------------------------------

TEST(RunnerPins, CrossCoreInclusive)
{
    const ChannelResult r =
        runCrossCoreChannel(crossCore("desktop-inclusive-4core", 4));
    EXPECT_FALSE(r.closed);
    EXPECT_EQ(shotDigest(r), 13804540159042283484ull);
}

TEST(RunnerPins, CrossCoreCoarseTimer)
{
    CrossCoreChannelConfig cfg = crossCore("desktop-inclusive-4core", 4);
    cfg.noise.observer =
        sim::ObserverModel::sandboxTimer(sim::kSandboxTimerGranule / 8);
    EXPECT_EQ(shotDigest(runCrossCoreChannel(cfg)), 1101923558231924557ull);
}

TEST(RunnerPins, CrossCoreNonInclusive)
{
    const ChannelResult r =
        runCrossCoreChannel(crossCore("xeonE5-2650-2core", 4));
    EXPECT_TRUE(r.closed);
    EXPECT_EQ(shotDigest(r), 7619725077691315809ull);
}

// ------------------------------------------------------------------
// Transport sessions: one open and one closed preset per placement.
// ------------------------------------------------------------------

TEST(RunnerPins, SameCoreTransport)
{
    ChannelConfig open = sameCore("xeonE5-2650", 2);
    open.calibration.measurements = 200;
    smallTransport(open.transport);
    EXPECT_EQ(transportDigest(runTransport(open)), 6236350747657272794ull);

    ChannelConfig closed = sameCore("xeonE5-2650-dawg", 2);
    closed.calibration.measurements = 200;
    smallTransport(closed.transport);
    const TransportResult r = runTransport(closed);
    EXPECT_TRUE(r.closed);
    EXPECT_EQ(transportDigest(r), 12095324095276099612ull);
}

TEST(RunnerPins, CrossCoreTransport)
{
    CrossCoreChannelConfig open = crossCore("desktop-inclusive-4core", 2);
    smallTransport(open.transport);
    EXPECT_EQ(transportDigest(runCrossCoreTransport(open)),
              12446167193124041842ull);

    CrossCoreChannelConfig closed = crossCore("xeonE5-2650-2core", 2);
    smallTransport(closed.transport);
    const TransportResult r = runCrossCoreTransport(closed);
    EXPECT_TRUE(r.closed);
    EXPECT_EQ(transportDigest(r), 307797055374077224ull);
}

// ------------------------------------------------------------------
// L2 and multi-set runners.
// ------------------------------------------------------------------

TEST(RunnerPins, L2Channel)
{
    L2ChannelConfig cfg;
    cfg.frames = 4;
    cfg.frameBits = 64;
    cfg.seed = 3;
    EXPECT_EQ(shotDigest(runL2Channel(cfg)), 15961193119866657692ull);
}

TEST(RunnerPins, MultiSetOneAndFourSets)
{
    MultiSetConfig cfg;
    cfg.frames = 4;
    cfg.seed = 3;
    cfg.setCount = 1;
    EXPECT_EQ(shotDigest(runMultiSetChannel(cfg)), 15663156891212111271ull);
    cfg.setCount = 4;
    EXPECT_EQ(shotDigest(runMultiSetChannel(cfg)), 15032222446862213736ull);
}

// ------------------------------------------------------------------
// transmitString: one unrepeated frame carrying a byte string.
// ------------------------------------------------------------------

TEST(RunnerPins, TransmitString)
{
    ChannelConfig cfg;
    cfg.seed = 5;
    ChannelResult r;
    const std::string got = transmitString(cfg, "dirty", &r);
    EXPECT_EQ(got, "dirty");
    EXPECT_EQ(shotDigest(r), 5313511652156709526ull);
}

// ------------------------------------------------------------------
// Baseline channels: four 64-bit frames each.
// ------------------------------------------------------------------

baselines::BaselineConfig
baseline(const char *platform, std::uint64_t seed)
{
    baselines::BaselineConfig cfg;
    cfg.usePlatform(platform);
    cfg.frameBits = 64;
    cfg.frames = 4;
    cfg.seed = seed;
    return cfg;
}

TEST(RunnerPins, BaselineLru)
{
    baselines::BaselineConfig cfg = baseline("xeonE5-2650", 3);
    EXPECT_EQ(baselineDigest(baselines::runLruChannel(cfg)),
              18397233733410335710ull);
    // One noise process on the target set, and whole-slot modulation.
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 3 * cfg.ts;
    EXPECT_EQ(baselineDigest(baselines::runLruChannel(cfg, 0)),
              5784364384324094658ull);
}

TEST(RunnerPins, BaselinePrimeProbe)
{
    EXPECT_EQ(baselineDigest(baselines::runPrimeProbeChannel(
                  baseline("xeonE5-2650", 3))),
              7549116208690912957ull);
}

TEST(RunnerPins, BaselineFlushFamily)
{
    const std::uint64_t pins[] = {10525360261207093261ull,
                                  12670056826864470995ull,
                                  3329246467861222940ull};
    const baselines::FlushKind kinds[] = {
        baselines::FlushKind::FlushReload, baselines::FlushKind::FlushFlush,
        baselines::FlushKind::CoherenceState};
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(baselines::flushKindName(kinds[i]));
        EXPECT_EQ(baselineDigest(baselines::runFlushChannel(
                      baseline("xeonE5-2650", 3), kinds[i])),
                  pins[i]);
    }
}

TEST(RunnerPins, BaselineHitHit)
{
    EXPECT_EQ(baselineDigest(
                  baselines::runHitHitChannel(baseline("xeonE5-2650", 3))),
              16850800773387507179ull);
}

TEST(RunnerPins, BaselineCrossCorePrimeProbe)
{
    // Whole-LLC-set probes need longer slots than the L1 default.
    baselines::BaselineConfig open = baseline("desktop-inclusive-4core", 4);
    open.ts = open.tr = 12000;
    open.targetSet = 37;
    EXPECT_EQ(baselineDigest(baselines::runCrossCorePrimeProbe(open, 2, 4)),
              11117270730615510863ull);

    baselines::BaselineConfig closed = baseline("xeonE5-2650-2core", 4);
    closed.ts = closed.tr = 12000;
    closed.targetSet = 37;
    EXPECT_EQ(
        baselineDigest(baselines::runCrossCorePrimeProbe(closed, 2, 2)),
        1334458850951001464ull);
}

} // namespace
} // namespace wb::chan
