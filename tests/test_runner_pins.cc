/**
 * @file
 * Bit-exact pins for every channel runner: same-core, cross-core, L2
 * and multi-set, single shots and transport sessions, with and
 * without the OS-noise scheduler, under every observer class, plus
 * the baseline channels (LRU, Prime+Probe, the flush family, Hit+Hit),
 * the many-tenant sweep on the sliced directory-mode presets, and the
 * perf-counter detection workloads, offline and online. Each
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
#include "chan/tenant.hh"
#include "digest.hh"
#include "placement_configs.hh"
#include "perfmon/arms_race.hh"
#include "perfmon/detector.hh"
#include "sim/observer.hh"
#include "sim/platform.hh"

namespace wb::chan
{
namespace
{

using test::baselineDigest;
using test::shotDigest;
using test::smallTransport;
using test::tenantDigest;
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

TEST(RunnerPins, SameCoreUnderFourCoRunners)
{
    // mixOf(4) is the first mix with an idle co-runner in it.
    ChannelConfig cfg = sameCore("xeonE5-2650", 9);
    cfg.scheduler = sim::platform("xeonE5-2650").noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(4);
    const ChannelResult r = runChannel(cfg);
    EXPECT_GT(r.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(r), 9651822419915283361ull);
}

TEST(RunnerPins, CrossCoreUnderScheduler)
{
    CrossCoreChannelConfig cfg = crossCore("desktop-inclusive-4core", 9);
    cfg.scheduler = sim::platform("desktop-inclusive-4core").noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
    const ChannelResult r = runCrossCoreChannel(cfg);
    EXPECT_GT(r.schedulerStats.coRunnerAccesses, 0u);
    // Re-captured when Scheduler::run began stopping at the last
    // party's halt: only simulatedCycles and the scheduler stats moved.
    EXPECT_EQ(shotDigest(r), 9344451518653381572ull);
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
    // Re-captured when rawRateKbps became the rate of the final burst:
    // the closed link's one round ran at rung 0 and then stepped the
    // controller to rung 1, whose rate was reported. Only rawRateKbps
    // moved.
    EXPECT_EQ(transportDigest(r), 5214717865987177228ull);
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
    // Re-captured with SameCoreTransport's closed pin, for the same
    // reason: only rawRateKbps moved.
    EXPECT_EQ(transportDigest(r), 11873401679141458072ull);
}

TEST(RunnerPins, MultiSetTransport)
{
    ChannelConfig open = test::multiSetConfig();
    open.seed = 2;
    smallTransport(open.transport);
    const BitVec message = fromString("dirty!"); // two 24-bit chunks
    const TransportResult r = runMultiSetTransport(open, message, 4);
    EXPECT_EQ(r.deliveredMessage, message);
    EXPECT_EQ(transportDigest(r), 10955896076124046129ull);
}

// ------------------------------------------------------------------
// L2 and multi-set runners. Re-captured when both moved onto the
// same-core wiring: its schedule ends the run earlier, so the trailing
// receiver samples, the receiver counters and simulatedCycles moved;
// BER, the decoded prefix and the sender counters did not.
// ------------------------------------------------------------------

TEST(RunnerPins, L2Channel)
{
    ChannelConfig cfg = test::l2Config();
    cfg.protocol.frames = 4;
    cfg.protocol.frameBits = 64;
    cfg.seed = 3;
    EXPECT_EQ(shotDigest(runL2Channel(cfg)), 6512872706525331600ull);
}

TEST(RunnerPins, MultiSetOneAndFourSets)
{
    ChannelConfig cfg = test::multiSetConfig();
    cfg.protocol.frames = 4;
    cfg.seed = 3;
    EXPECT_EQ(shotDigest(runMultiSetChannel(cfg, 1)), 1754512555712309727ull);
    EXPECT_EQ(shotDigest(runMultiSetChannel(cfg, 4)), 17980110102279350423ull);
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

ChannelConfig
baseline(const char *platform, std::uint64_t seed)
{
    ChannelConfig cfg;
    cfg.usePlatform(platform);
    cfg.protocol.frameBits = 64;
    cfg.protocol.frames = 4;
    cfg.seed = seed;
    return cfg;
}

TEST(RunnerPins, BaselineLru)
{
    ChannelConfig cfg = baseline("xeonE5-2650", 3);
    EXPECT_EQ(baselineDigest(baselines::runLruChannel(cfg)),
              18397233733410335710ull);
    // One noise process on the target set, and whole-slot modulation.
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 3 * cfg.protocol.ts;
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

TEST(RunnerPins, BaselinesUnderCoRunners)
{
    // The same-core wiring the baselines share with the WB placement
    // honours cfg.scheduler: three co-runners on the Xeon preset.
    ChannelConfig cfg = baseline("xeonE5-2650", 3);
    cfg.scheduler = sim::platform("xeonE5-2650").noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
    const ChannelResult lru = baselines::runLruChannel(cfg);
    EXPECT_GT(lru.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(lru), 16625090282808421614ull);
    const ChannelResult pp = baselines::runPrimeProbeChannel(cfg);
    EXPECT_GT(pp.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(pp), 13167435631351888048ull);
}

TEST(RunnerPins, L2AndMultiSetUnderCoRunners)
{
    // The L2 and multi-set placements run on the same-core wiring too:
    // three co-runners share the parties' core.
    sim::SchedulerConfig noisy = sim::platform("xeonE5-2650").noisePreset;
    noisy.coRunners = sim::SchedulerConfig::mixOf(3);

    ChannelConfig l2 = test::l2Config();
    l2.protocol.frames = 4;
    l2.protocol.frameBits = 64;
    l2.seed = 3;
    l2.scheduler = noisy;
    const ChannelResult l2Run = runL2Channel(l2);
    EXPECT_GT(l2Run.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(l2Run), 10062791532575966133ull);

    ChannelConfig multi = test::multiSetConfig();
    multi.protocol.frames = 4;
    multi.seed = 3;
    multi.scheduler = noisy;
    const ChannelResult multiRun = runMultiSetChannel(multi, 4);
    EXPECT_GT(multiRun.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_EQ(shotDigest(multiRun), 10003281062617580281ull);
}

TEST(RunnerPins, BaselineCrossCorePrimeProbe)
{
    // Whole-LLC-set probes need longer slots than the L1 default.
    ChannelConfig open = baseline("desktop-inclusive-4core", 4);
    open.protocol.ts = open.protocol.tr = 12000;
    open.protocol.targetSet = 37;
    EXPECT_EQ(baselineDigest(baselines::runCrossCorePrimeProbe(open, 2, 4)),
              11117270730615510863ull);

    ChannelConfig closed = baseline("xeonE5-2650-2core", 4);
    closed.protocol.ts = closed.protocol.tr = 12000;
    closed.protocol.targetSet = 37;
    EXPECT_EQ(
        baselineDigest(baselines::runCrossCorePrimeProbe(closed, 2, 2)),
        1334458850951001464ull);
}

// ------------------------------------------------------------------
// Many-tenant sweeps: directory-mode coherence on the sliced presets.
// ------------------------------------------------------------------

TEST(RunnerPins, TenantSweep)
{
    TenantSweepConfig cfg;
    cfg.usePlatform("dc-sliced-16core");
    cfg.pairs = 16;
    cfg.seed = 3;
    EXPECT_EQ(tenantDigest(runTenantSweep(cfg)), 5530191853765317758ull);

    cfg.usePlatform("dc-sliced-64core");
    cfg.seed = 4;
    EXPECT_EQ(tenantDigest(runTenantSweep(cfg)), 14199997274430911675ull);
}

// ------------------------------------------------------------------
// Detection workloads: the offline collector over every workload pair
// and one online scenario run of each kind.
// ------------------------------------------------------------------

TEST(RunnerPins, DetectionWorkloads)
{
    using namespace perfmon;
    test::Fnv offline;
    for (Workload w :
         {Workload::Idle, Workload::WbChannel, Workload::WbChannelD8,
          Workload::LruChannel, Workload::CompilerPair,
          Workload::Streaming}) {
        for (const WindowFeatures &f : collectTrace(w, 10, 50000, 5)) {
            for (double v : {f.l1MissPerKcycle, f.writebacksPerKcycle,
                             f.l2AccessPerKcycle, f.backInvalPerKcycle,
                             f.snoopPerKcycle})
                offline.f64(v);
        }
    }
    EXPECT_EQ(offline.value(), 17751658038168943816ull);

    test::Fnv online;
    ArmsRaceConfig cfg;
    cfg.benignWindows = 12;
    for (DetectionScenario s :
         {DetectionScenario::IdlePair, DetectionScenario::CompilerPair,
          DetectionScenario::StreamingPair, DetectionScenario::WbChannel,
          DetectionScenario::WbChannelD8, DetectionScenario::LruChannel,
          DetectionScenario::CrossCoreWb}) {
        const ScenarioOutcome o = runDetectionScenario(cfg, s, 5);
        EXPECT_GT(o.windows, 0u);
        online.u64(o.senderTid);
        online.u64(o.receiverTid);
        online.u64(o.windows);
        online.f64(o.ber);
        online.f64(o.goodputKbps);
        for (double v : o.pairSmoothed)
            online.f64(v);
        for (double v : o.benignSmoothed)
            online.f64(v);
    }
    EXPECT_EQ(online.value(), 10460979416895498562ull);
}

} // namespace
} // namespace wb::chan
