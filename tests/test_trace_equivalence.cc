/**
 * @file
 * TraceEquivalence: running trace slices must be *bit-identical* to
 * single-stepping the same traces — not statistically close,
 * identical.
 *
 * The engine (docs/ENGINE.md) runs each program's compiled traces as
 * whole slices, splitting them wherever another thread, a scheduler
 * tick or a sibling core would win the pick. With
 * NoiseModel::traceExecution off it single-steps them instead, one op
 * per pick. The contract is that the flag is purely a performance
 * knob: every observable of a run — decoded bits, raw latencies,
 * virtual time, perf counters, scheduler stats — matches, because
 * both modes draw the same Rng stream in the same order and walk the
 * same Hierarchy state.
 *
 * The grid stresses every decision and split point:
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
 *    Prime+Probe, the three flush kinds, Hit+Hit);
 *  - the perf-counter detector's workload pairs (spinners, compiler
 *    and streaming workloads, the WB and LRU channels).
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
#include "perfmon/detector.hh"
#include "placement_configs.hh"
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

TEST(TraceEquivalence, FourCoRunnerMix)
{
    // mixOf(4) adds an idle co-runner, whose spins re-base on the time
    // it is picked.
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(4);
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        cfg.seed = seed;
        checkChannel(cfg, "mixOf(4) seed " + std::to_string(seed));
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
    // Multi-core path: the Scheduler interleaves the two party
    // front-ends' traces against the shared LLC; WB channels and
    // drains must replay identically.
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
        chan::ChannelConfig l2 = test::l2Config();
        l2.protocol.frames = 2;
        l2.protocol.frameBits = 64;
        l2.seed = seed;
        const auto [l2Traced, l2Stepped] = tracedAndStepped(
            l2, [](const auto &c) { return chan::runL2Channel(c); });
        expectIdentical(l2Traced, l2Stepped,
                        "L2 seed " + std::to_string(seed));

        chan::ChannelConfig ms = test::multiSetConfig();
        ms.protocol.frames = 2;
        ms.seed = seed;
        const auto [msTraced, msStepped] = tracedAndStepped(
            ms, [](const auto &c) { return chan::runMultiSetChannel(c, 4); });
        expectIdentical(msTraced, msStepped,
                        "multi-set k=4 seed " + std::to_string(seed));
    }
}

TEST(TraceEquivalence, BaselineChannels)
{
    using namespace baselines;
    using chan::ChannelConfig;
    const std::pair<const char *,
                    std::function<chan::ChannelResult(const ChannelConfig &)>>
        runners[] = {
            {"LRU", [](const ChannelConfig &c) { return runLruChannel(c); }},
            {"Prime+Probe",
             [](const ChannelConfig &c) { return runPrimeProbeChannel(c); }},
            {"Flush+Reload",
             [](const ChannelConfig &c) {
                 return runFlushChannel(c, FlushKind::FlushReload);
             }},
            {"Flush+Flush",
             [](const ChannelConfig &c) {
                 return runFlushChannel(c, FlushKind::FlushFlush);
             }},
            {"CoherenceState",
             [](const ChannelConfig &c) {
                 return runFlushChannel(c, FlushKind::CoherenceState);
             }},
            {"Hit+Hit",
             [](const ChannelConfig &c) { return runHitHitChannel(c); }},
        };
    for (const auto &[name, run] : runners) {
        ChannelConfig cfg;
        cfg.protocol.frames = 2;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            cfg.seed = seed;
            // A co-resident noise process on odd seeds.
            cfg.noiseProcesses = seed % 2;
            const auto [traced, stepped] = tracedAndStepped(cfg, run);
            expectIdentical(traced, stepped,
                            std::string(name) + " seed " +
                                std::to_string(seed));
        }
        // The shared same-core wiring's scheduler path: three
        // co-runners splitting the parties' traces.
        cfg.seed = 1;
        cfg.noiseProcesses = 0;
        cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
        cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
        const auto [traced, stepped] = tracedAndStepped(cfg, run);
        EXPECT_GT(traced.schedulerStats.coRunnerAccesses, 0u) << name;
        expectIdentical(traced, stepped, std::string(name) + " mixOf(3)");
    }
}

TEST(TraceEquivalence, CrossCorePrimeProbe)
{
    chan::ChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.ts = cfg.protocol.tr = 12000;
    cfg.protocol.frames = 2;
    cfg.protocol.targetSet = 37;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        cfg.seed = seed;
        const auto [traced, stepped] =
            tracedAndStepped(cfg, [](const chan::ChannelConfig &c) {
                return baselines::runCrossCorePrimeProbe(c, 2, 4);
            });
        expectIdentical(traced, stepped,
                        "cross-core P+P seed " + std::to_string(seed));
    }
    // The shared two-core wiring's scheduler path.
    cfg.seed = 1;
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
    const auto [traced, stepped] =
        tracedAndStepped(cfg, [](const chan::ChannelConfig &c) {
            return baselines::runCrossCorePrimeProbe(c, 2, 4);
        });
    EXPECT_GT(traced.schedulerStats.coRunnerAccesses, 0u);
    expectIdentical(traced, stepped, "cross-core P+P mixOf(3)");
}

/**
 * Per-window total counters and final thread times of one detector
 * workload pair, run the way perfmon::collectTrace runs it.
 */
std::pair<std::vector<sim::PerfCounters>, std::vector<Cycles>>
detectorRun(perfmon::Workload w, bool traced, std::uint64_t seed)
{
    Rng rng(seed);
    const sim::HierarchyParams hp = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    noise.traceExecution = traced;
    sim::Hierarchy hierarchy(hp, &rng);
    sim::SmtCore core(hierarchy, noise, rng);
    std::vector<std::unique_ptr<sim::Program>> programs;
    Rng bitRng = rng.split();
    perfmon::populateWorkload(w, core, hp, hierarchy.l1().layout(), bitRng,
                              11000, programs);
    std::vector<sim::PerfCounters> windows;
    for (Cycles k = 1; k <= 8; ++k) {
        core.run(k * 40000);
        windows.push_back(hierarchy.totalCounters());
    }
    return {windows, {core.threadTime(0), core.threadTime(1)}};
}

TEST(TraceEquivalence, DetectorWorkloads)
{
    using perfmon::Workload;
    for (Workload w :
         {Workload::Idle, Workload::WbChannel, Workload::WbChannelD8,
          Workload::LruChannel, Workload::CompilerPair,
          Workload::Streaming}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const std::string what =
                perfmon::workloadName(w) + " seed " + std::to_string(seed);
            const auto traced = detectorRun(w, true, seed);
            const auto stepped = detectorRun(w, false, seed);
            SCOPED_TRACE(what);
            EXPECT_EQ(traced.second, stepped.second);
            ASSERT_EQ(traced.first.size(), stepped.first.size());
            for (std::size_t i = 0; i < traced.first.size(); ++i)
                expectCountersEqual(traced.first[i], stepped.first[i],
                                    "window");
        }
    }
}

} // namespace
} // namespace wb
