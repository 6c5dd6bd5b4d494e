/**
 * @file
 * TraceEquivalence: trace-compiled execution must be *bit-identical*
 * to per-op stepping — not statistically close, identical.
 *
 * The trace engine (docs/ENGINE.md) batches each program's MemOps and
 * executes whole slices without per-op virtual dispatch, falling back
 * per-op only at data-dependent decision points. Its correctness
 * contract is that NoiseModel::traceExecution is purely a performance
 * knob: every observable of a run — decoded bits, raw latencies,
 * virtual time, perf counters, scheduler stats — matches the per-op
 * path exactly, because both paths draw the same Rng stream in the
 * same order and walk the same Hierarchy state.
 *
 * The grid stresses every fallback and split point:
 *  - all registered platform presets (WB/WT, inclusive/non-inclusive,
 *    DAWG partitioning) x >= 8 seeds;
 *  - Sec. VIII defense knobs (write-through L1, PLcache lock-on-write,
 *    probe-isolated partitions) that change hit/miss/fill behaviour
 *    mid-trace;
 *  - OS-noise regimes where the Scheduler must split batches at
 *    gang-freeze/timeslice boundaries, plus mid-batch migration
 *    (migrationPeriod) rebinding a front-end between cores while its
 *    trace is in flight;
 *  - every other paced program (chan/paced.hh): the L2 and multi-set
 *    runners and the baselines (LRU, same-core and cross-core
 *    Prime+Probe, the three flush kinds, Hit+Hit).
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
#include "sim/platform.hh"
#include "sidechan/attack.hh"

namespace wb
{
namespace
{

constexpr unsigned kSeeds = 8;

void
expectCountersEqual(const sim::PerfCounters &a, const sim::PerfCounters &b,
                    const char *who)
{
    SCOPED_TRACE(who);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.l1DirtyWritebacks, b.l1DirtyWritebacks);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.llcDirtyEvictions, b.llcDirtyEvictions);
    EXPECT_EQ(a.spinLoads, b.spinLoads);
}

/** Every observable of two channel runs must match exactly. */
void
expectIdentical(const chan::ChannelResult &a, const chan::ChannelResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.decodedBits, b.decodedBits);
    EXPECT_EQ(a.sentFrame, b.sentFrame);
    EXPECT_EQ(a.ber, b.ber); // exact double equality: same arithmetic
    EXPECT_EQ(a.aligned, b.aligned);
    EXPECT_EQ(a.framesScored, b.framesScored);
    EXPECT_EQ(a.framesExpected, b.framesExpected);
    EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
    EXPECT_TRUE(a.latencies == b.latencies) << "raw latencies diverge";
    EXPECT_TRUE(a.calibrationMedians == b.calibrationMedians);
    expectCountersEqual(a.senderCounters, b.senderCounters, "sender");
    expectCountersEqual(a.receiverCounters, b.receiverCounters, "receiver");
    EXPECT_EQ(a.schedulerStats.contextSwitches,
              b.schedulerStats.contextSwitches);
    EXPECT_EQ(a.schedulerStats.migrations, b.schedulerStats.migrations);
    EXPECT_EQ(a.schedulerStats.pollutionAccesses,
              b.schedulerStats.pollutionAccesses);
    EXPECT_EQ(a.schedulerStats.coRunnerAccesses,
              b.schedulerStats.coRunnerAccesses);
}

/** Run cfg through both engines and demand identity. */
void
checkChannel(chan::ChannelConfig cfg, const std::string &what)
{
    cfg.noise.traceExecution = true;
    const auto traced = chan::runChannel(cfg);
    cfg.noise.traceExecution = false;
    const auto stepped = chan::runChannel(cfg);
    expectIdentical(traced, stepped, what);
}

TEST(TraceEquivalence, EveryPlatformPreset)
{
    for (const std::string &name : sim::platformNames()) {
        // Sliced-LLC presets cannot stand up the single-core
        // Hierarchy runChannel() uses (llcSlices > 1 is fatal there);
        // their trace coverage rides the cross-core suites.
        if (sim::findPlatform(name)->params.llcSlices > 1)
            continue;
        chan::ChannelConfig cfg;
        cfg.usePlatform(name);
        cfg.protocol.frames = 2;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            cfg.seed = seed;
            checkChannel(cfg, name + " seed " + std::to_string(seed));
        }
    }
}

TEST(TraceEquivalence, DefenseKnobs)
{
    struct Defense
    {
        const char *name;
        void (*apply)(chan::ChannelConfig &);
    };
    const Defense defenses[] = {
        {"write-through-l1",
         [](chan::ChannelConfig &c) {
             c.platform.l1.writePolicy = sim::WritePolicy::WriteThrough;
         }},
        {"plcache-lock-on-write",
         [](chan::ChannelConfig &c) { c.platform.l1.lockOnWrite = true; }},
        {"dawg-partitions",
         [](chan::ChannelConfig &c) { c.usePlatform("xeonE5-2650-dawg"); }},
    };
    for (const Defense &d : defenses) {
        chan::ChannelConfig cfg;
        cfg.protocol.frames = 2;
        d.apply(cfg);
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            cfg.seed = seed;
            checkChannel(cfg,
                         std::string(d.name) + " seed " +
                             std::to_string(seed));
        }
    }
}

TEST(TraceEquivalence, GangFreezeTimesliceSplits)
{
    // OS-noise regime: co-runners plus short timeslices force the
    // Scheduler to freeze gangs mid-trace; the engine must split the
    // compiled batches exactly at the tick and resume bit-identically.
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(2);
    cfg.scheduler.timeslice = 20000; // short: many splits per frame
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        cfg.seed = seed;
        checkChannel(cfg, "gang-freeze seed " + std::to_string(seed));
    }
}

TEST(TraceEquivalence, MidBatchMigration)
{
    // Front-end migration rebinds a program to another core while its
    // trace is in flight; the pending slice must carry over.
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(1);
    cfg.scheduler.migrationPeriod = 15000;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        cfg.seed = seed;
        checkChannel(cfg, "migration seed " + std::to_string(seed));
    }
}

TEST(TraceEquivalence, CrossCoreChannel)
{
    // Multi-core path: runCores interleaves per-core traces against
    // the shared LLC; WB channels and drains must replay identically.
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.frames = 2;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        cfg.seed = seed;
        cfg.noise.traceExecution = true;
        const auto traced = chan::runCrossCoreChannel(cfg);
        cfg.noise.traceExecution = false;
        const auto stepped = chan::runCrossCoreChannel(cfg);
        SCOPED_TRACE("cross-core seed " + std::to_string(seed));
        EXPECT_EQ(traced.decodedBits, stepped.decodedBits);
        EXPECT_EQ(traced.ber, stepped.ber);
        EXPECT_EQ(traced.simulatedCycles, stepped.simulatedCycles);
        EXPECT_TRUE(traced.latencies == stepped.latencies);
        expectCountersEqual(traced.receiverCounters,
                            stepped.receiverCounters, "receiver");
    }
}

TEST(TraceEquivalence, SideChannelAttack)
{
    // The attack loop exercises the spin/probe fallback points.
    for (const bool crossCore : {false, true}) {
        sidechan::AttackConfig cfg;
        if (crossCore) {
            cfg.usePlatform("desktop-inclusive-4core");
            cfg.crossCore = true;
        }
        cfg.scenario = sidechan::Scenario::DirtyProbe;
        cfg.trials = 32;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            cfg.seed = seed;
            cfg.noise.traceExecution = true;
            const auto traced = sidechan::runAttack(cfg);
            cfg.noise.traceExecution = false;
            const auto stepped = sidechan::runAttack(cfg);
            SCOPED_TRACE((crossCore ? "cross-core seed " : "smt seed ") +
                         std::to_string(seed));
            EXPECT_EQ(traced.accuracy, stepped.accuracy);
            EXPECT_EQ(traced.meanLatency0, stepped.meanLatency0);
            EXPECT_EQ(traced.meanLatency1, stepped.meanLatency1);
        }
    }
}

/** Run a config through both engines and hand back the pair. */
template <typename Config, typename Run>
auto
tracedAndStepped(Config cfg, Run run)
{
    cfg.noise.traceExecution = true;
    auto traced = run(cfg);
    cfg.noise.traceExecution = false;
    return std::make_pair(traced, run(cfg));
}

TEST(TraceEquivalence, L2AndMultiSetChannels)
{
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        chan::L2ChannelConfig l2;
        l2.frames = 2;
        l2.frameBits = 64;
        l2.seed = seed;
        const auto [l2Traced, l2Stepped] =
            tracedAndStepped(l2, chan::runL2Channel);
        expectIdentical(l2Traced, l2Stepped,
                        "L2 seed " + std::to_string(seed));

        chan::MultiSetConfig ms;
        ms.frames = 2;
        ms.setCount = 4;
        ms.seed = seed;
        const auto [msTraced, msStepped] =
            tracedAndStepped(ms, chan::runMultiSetChannel);
        expectIdentical(msTraced, msStepped,
                        "multi-set k=4 seed " + std::to_string(seed));
    }
}

/** Every observable of two baseline runs must match exactly. */
void
expectIdentical(const baselines::BaselineResult &a,
                const baselines::BaselineResult &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_TRUE(a.latencies == b.latencies) << "raw latencies diverge";
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.aligned, b.aligned);
    EXPECT_EQ(a.framesScored, b.framesScored);
    expectCountersEqual(a.senderCounters, b.senderCounters, "sender");
    expectCountersEqual(a.receiverCounters, b.receiverCounters, "receiver");
}

TEST(TraceEquivalence, BaselineChannels)
{
    using namespace baselines;
    const std::pair<const char *,
                    std::function<BaselineResult(const BaselineConfig &)>>
        runners[] = {
            {"LRU", [](const BaselineConfig &c) { return runLruChannel(c); }},
            {"Prime+Probe",
             [](const BaselineConfig &c) { return runPrimeProbeChannel(c); }},
            {"Flush+Reload",
             [](const BaselineConfig &c) {
                 return runFlushChannel(c, FlushKind::FlushReload);
             }},
            {"Flush+Flush",
             [](const BaselineConfig &c) {
                 return runFlushChannel(c, FlushKind::FlushFlush);
             }},
            {"CoherenceState",
             [](const BaselineConfig &c) {
                 return runFlushChannel(c, FlushKind::CoherenceState);
             }},
            {"Hit+Hit",
             [](const BaselineConfig &c) { return runHitHitChannel(c); }},
        };
    for (const auto &[name, run] : runners) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            BaselineConfig cfg;
            cfg.frames = 2;
            cfg.seed = seed;
            // A co-resident noise process on odd seeds.
            cfg.noiseProcesses = seed % 2;
            const auto [traced, stepped] = tracedAndStepped(cfg, run);
            expectIdentical(traced, stepped,
                            std::string(name) + " seed " +
                                std::to_string(seed));
        }
    }
}

TEST(TraceEquivalence, CrossCorePrimeProbe)
{
    baselines::BaselineConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.ts = cfg.tr = 12000;
    cfg.frames = 2;
    cfg.targetSet = 37;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        cfg.seed = seed;
        const auto [traced, stepped] =
            tracedAndStepped(cfg, [](const baselines::BaselineConfig &c) {
                return baselines::runCrossCorePrimeProbe(c, 2, 4);
            });
        expectIdentical(traced, stepped,
                        "cross-core P+P seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace wb
