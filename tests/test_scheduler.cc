/**
 * @file
 * Tests for the OS-noise scheduler (sim/scheduler.hh): determinism,
 * co-runner isolation (an inactive/empty scheduler is bit-identical
 * to a plain SmtCore::run), migration correctness (a migrated
 * process keeps running and its dirty state stays reachable through
 * the coherence layer), and master-seed re-derivation of every noise
 * stream (the reseed half of the resetAll() contract).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "common/rng.hh"
#include "digest.hh"
#include "sim/multicore.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

namespace wb::sim
{
namespace
{

void
expectCountersEqual(const PerfCounters &a, const PerfCounters &b,
                    const std::string &label)
{
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << label;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << label;
    EXPECT_EQ(a.llcHits, b.llcHits) << label;
    EXPECT_EQ(a.l1DirtyWritebacks, b.l1DirtyWritebacks) << label;
    EXPECT_EQ(a.llcDirtyEvictions, b.llcDirtyEvictions) << label;
    EXPECT_EQ(a.crossCoreSnoops, b.crossCoreSnoops) << label;
    EXPECT_EQ(a.spinLoads, b.spinLoads) << label;
}

void
expectCacheStateEqual(Cache &a, Cache &b, const std::string &label)
{
    ASSERT_EQ(a.numSets(), b.numSets()) << label;
    for (unsigned set = 0; set < a.numSets(); ++set) {
        const auto la = a.setContents(set);
        const auto lb = b.setContents(set);
        ASSERT_EQ(la.size(), lb.size()) << label;
        for (std::size_t w = 0; w < la.size(); ++w) {
            EXPECT_EQ(la[w].valid, lb[w].valid)
                << label << " set " << set << " way " << w;
            EXPECT_EQ(la[w].dirty, lb[w].dirty)
                << label << " set " << set << " way " << w;
            if (la[w].valid) {
                EXPECT_EQ(la[w].lineAddr, lb[w].lineAddr)
                    << label << " set " << set << " way " << w;
            }
        }
    }
}

/** A paced workload touching a few sets (sender-like state machine). */
std::vector<MemOp>
pacedTrace(const AddressLayout &layout, Cycles period, unsigned slots)
{
    std::vector<MemOp> ops;
    for (unsigned s = 0; s < slots; ++s) {
        for (unsigned i = 0; i < 4; ++i) {
            ops.push_back(MemOp::store(layout.compose(7, 1 + i)));
            ops.push_back(MemOp::load(layout.compose(21, 1 + i)));
        }
        ops.push_back(MemOp::spinUntil(Cycles(s + 1) * period));
    }
    return ops;
}

/**
 * Zero co-runners, no migration: driving the same programs through a
 * Scheduler must be bit-identical to a plain SmtCore::run — same
 * counters, same latencies, same final cache state. Every channel
 * wiring relies on it: they run on a Scheduler even when its config
 * is inactive.
 */
TEST(Scheduler, CoRunnerIsolationSingleCore)
{
    const HierarchyParams hp = platform(kDefaultPlatform).params;
    const NoiseModel noise; // realistic: RNG draws must stay aligned

    Rng rngPlain(11), rngSched(11);
    Hierarchy plain(hp, &rngPlain);
    Hierarchy under(hp, &rngSched);

    SmtCore plainCore(plain, noise, rngPlain);
    SchedulerConfig cfg; // inactive: no co-runners, no migration
    cfg.coRunners.clear();
    Scheduler sched(static_cast<MemorySystem &>(under), noise, rngSched,
                    cfg, /*masterSeed=*/11);
    SmtCore &schedCore = sched.party(0);

    const auto ops = pacedTrace(plain.l1().layout(), 3000, 40);
    TraceProgram progPlain(ops), progSched(ops);
    plainCore.addThread(&progPlain, AddressSpace(1));
    schedCore.addThread(&progSched, AddressSpace(1));

    const Cycles endPlain = plainCore.run(1'000'000);
    const Cycles endSched = sched.run(1'000'000);

    EXPECT_EQ(endPlain, endSched);
    expectCountersEqual(plain.counters(0), under.counters(0), "tid0");
    expectCacheStateEqual(plain.l1(), under.l1(), "L1");
    expectCacheStateEqual(plain.l2(), under.l2(), "L2");
    expectCacheStateEqual(plain.llc(), under.llc(), "LLC");
    const SchedulerStats stats = sched.stats();
    EXPECT_EQ(stats.contextSwitches, 0u);
    EXPECT_EQ(stats.migrations, 0u);
    EXPECT_EQ(stats.pollutionAccesses, 0u);
    EXPECT_EQ(stats.coRunnerAccesses, 0u);
}

/**
 * End-to-end variant: a transmission whose scheduler has a migration
 * period but whose only event (one migration) lies beyond the horizon
 * decodes bit-identically to the run under an inactive config, on both
 * wirings: the same-core one (runChannel) and the cross-core one.
 */
TEST(Scheduler, NoFiredEventsMatchesSchedulerlessChannel)
{
    const auto expectSame = [](const chan::ChannelResult &plain,
                               const chan::ChannelResult &sched,
                               const std::string &label) {
        EXPECT_EQ(plain.ber, sched.ber) << label;
        EXPECT_EQ(plain.latencies, sched.latencies) << label;
        EXPECT_EQ(plain.decodedBits, sched.decodedBits) << label;
        expectCountersEqual(plain.senderCounters, sched.senderCounters,
                            label + " sender");
        expectCountersEqual(plain.receiverCounters, sched.receiverCounters,
                            label + " receiver");
        EXPECT_EQ(plain.simulatedCycles, sched.simulatedCycles) << label;
        EXPECT_EQ(sched.schedulerStats.migrations, 0u) << label;
    };
    const Cycles never = Cycles(1) << 60;

    chan::ChannelConfig same;
    same.protocol.frames = 2;
    same.calibration.measurements = 40;
    same.seed = 5;
    chan::ChannelConfig sameNoEvents = same;
    sameNoEvents.scheduler.migrationPeriod = never;
    expectSame(chan::runChannel(same), chan::runChannel(sameNoEvents),
               "same-core");

    chan::CrossCoreChannelConfig cross;
    cross.usePlatform("desktop-inclusive-4core");
    cross.protocol.frames = 2;
    cross.seed = 5;
    chan::CrossCoreChannelConfig crossNoEvents = cross;
    crossNoEvents.scheduler.migrationPeriod = never;
    expectSame(chan::runCrossCoreChannel(cross),
               chan::runCrossCoreChannel(crossNoEvents), "cross-core");
}

/** The full noise machinery is seed-deterministic, end to end. */
TEST(Scheduler, NoisyRunIsDeterministicPerSeed)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.frames = 2;
    cfg.seed = 3;
    cfg.scheduler = platform("desktop-inclusive-4core").noisePreset;
    cfg.scheduler.coRunners = SchedulerConfig::mixOf(4);
    cfg.scheduler.migrationPeriod = 400'000;

    const auto a = chan::runCrossCoreChannel(cfg);
    const auto b = chan::runCrossCoreChannel(cfg);
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.latencies, b.latencies);
    EXPECT_EQ(a.decodedBits, b.decodedBits);
    EXPECT_EQ(a.schedulerStats.contextSwitches,
              b.schedulerStats.contextSwitches);
    EXPECT_EQ(a.schedulerStats.migrations, b.schedulerStats.migrations);
    EXPECT_EQ(a.schedulerStats.pollutionAccesses,
              b.schedulerStats.pollutionAccesses);
    EXPECT_EQ(a.schedulerStats.coRunnerAccesses,
              b.schedulerStats.coRunnerAccesses);
    EXPECT_GT(a.schedulerStats.coRunnerAccesses, 0u);
    EXPECT_GT(a.schedulerStats.migrations, 0u);
}

/** Single-core channel under noise: deterministic, and counters flow. */
TEST(Scheduler, SingleCoreNoisyRunIsDeterministic)
{
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.seed = 8;
    cfg.scheduler = platform(kDefaultPlatform).noisePreset;
    cfg.scheduler.coRunners = SchedulerConfig::mixOf(2);

    const auto a = chan::runChannel(cfg);
    const auto b = chan::runChannel(cfg);
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.latencies, b.latencies);
    EXPECT_GT(a.schedulerStats.contextSwitches, 0u);
    EXPECT_GT(a.schedulerStats.pollutionAccesses, 0u);
    EXPECT_GT(a.schedulerStats.coRunnerAccesses, 0u);
}

/**
 * Recorder that notes which level served each load (for the migration
 * test: post-migration loads must find pre-migration dirty state via
 * the coherence layer).
 */
class RecordingProgram : public Program
{
  public:
    explicit RecordingProgram(std::vector<MemOp> ops)
        : ops_(std::move(ops))
    {
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            if (ops_[i].kind == MemOp::Kind::Load ||
                ops_[i].kind == MemOp::Kind::Store)
                points_.push_back(static_cast<std::uint32_t>(i));
        }
    }

    /** The whole op list as one trace; the loads and stores report. */
    const Trace *
    nextTrace(ProcView &) override
    {
        if (handedOut_ || ops_.empty())
            return nullptr;
        handedOut_ = true;
        trace_ = {ops_.data(), ops_.size(), points_.data(), points_.size()};
        return &trace_;
    }

    void
    onTraceResult(std::uint32_t, const MemOp &, const OpResult &res,
                  ProcView &) override
    {
        results.push_back(res);
    }

    std::vector<OpResult> results;

  private:
    std::vector<MemOp> ops_;
    std::vector<std::uint32_t> points_;
    bool handedOut_ = false;
    Trace trace_;
};

/**
 * Migration correctness: a process whose front-end is forcibly moved
 * to another core keeps executing, its spin-stack translation is
 * re-derived, and the dirty line it wrote before the migration is
 * still observed afterwards — served by a cross-core snoop out of the
 * old core's privates, the coherence layer's job.
 */
TEST(Scheduler, VictimStateSurvivesForcedMigration)
{
    const Platform &plat = platform("desktop-inclusive-4core");
    Rng rng(21);
    MultiCoreSystem mc(plat.params, plat.cores, &rng);

    SchedulerConfig cfg;
    cfg.migrationPeriod = 50'000;
    cfg.timeslice = 0;
    Scheduler sched(mc, NoiseModel::quiet(), rng, cfg, /*masterSeed=*/21);
    SmtCore &fe = sched.party(1, /*migratable=*/true);

    const AddressLayout l1Layout(plat.params.l1.numSets());
    const Addr line = l1Layout.compose(9, 5);
    RecordingProgram prog({
        MemOp::store(line),             // dirty X on core 1
        MemOp::spinUntil(120'000),      // sail past two boundaries
        MemOp::load(line),              // reload X on the new core
        MemOp::halt(),
    });
    const ThreadId tid = fe.addThread(&prog, AddressSpace(4));

    sched.run(1'000'000);

    EXPECT_TRUE(fe.halted(tid));
    ASSERT_EQ(prog.results.size(), 2u);
    EXPECT_GE(sched.stats().migrations, 1u);
    EXPECT_NE(sched.coreOf(fe), 1u) << "front-end never moved";

    // The post-migration load missed the new core's cold privates and
    // was served by snooping the dirty copy out of core 1.
    EXPECT_FALSE(prog.results[1].l1Hit);
    PerfCounters merged;
    for (unsigned c = 0; c < mc.coreCount(); ++c)
        merged.merge(mc.counters(c, tid));
    EXPECT_EQ(merged.crossCoreSnoops, 1u);
    EXPECT_EQ(merged.stores, 1u);
    // The demand load plus the spin-wait's bookkeeping load (which
    // re-translated and re-faulted on the new core).
    EXPECT_EQ(merged.loads, 2u);
}

/**
 * Co-runner noise streams re-derive from the master seed: a scheduler
 * constructed with a different seed but reseed()-ed to the reference
 * seed reproduces the reference run bit-exactly.
 */
TEST(Scheduler, ReseedRederivesCoRunnerStreams)
{
    const Platform &plat = platform("desktop-inclusive-4core");
    SchedulerConfig cfg = plat.noisePreset;
    cfg.coRunners = SchedulerConfig::mixOf(3);

    auto runOnce = [&](std::uint64_t ctorSeed,
                       bool reseedTo5) -> std::vector<std::uint64_t> {
        Rng rng(5); // the run RNG is the caller's: held fixed here
        MultiCoreSystem mc(plat.params, plat.cores, &rng);
        Scheduler sched(mc, NoiseModel::quiet(), rng, cfg, ctorSeed);
        SmtCore &fe = sched.party(0);
        if (reseedTo5)
            sched.reseed(5);
        const AddressLayout l1Layout(plat.params.l1.numSets());
        TraceProgram prog(pacedTrace(l1Layout, 4000, 30));
        fe.addThread(&prog, AddressSpace(1));
        sched.run(300'000);
        std::vector<std::uint64_t> sig;
        const SchedulerStats stats = sched.stats();
        sig.push_back(stats.coRunnerAccesses);
        sig.push_back(stats.contextSwitches);
        sig.push_back(stats.pollutionAccesses);
        for (unsigned c = 0; c < mc.coreCount(); ++c) {
            const PerfCounters &ctr = mc.counters(c, 0);
            sig.push_back(ctr.loads);
            sig.push_back(ctr.l1Misses);
            sig.push_back(ctr.l1DirtyWritebacks);
            sig.push_back(ctr.llcDirtyEvictions);
            // Hash the final cache state: the co-runner streams leave
            // their random working-set choices in the lines resident
            // per core, which is what must match after a reseed.
            std::uint64_t hash = 1469598103934665603ULL;
            for (unsigned set = 0; set < mc.l1(c).numSets(); ++set) {
                for (const auto &line : mc.l1(c).setContents(set)) {
                    if (!line.valid)
                        continue;
                    hash ^= line.lineAddr * 2 + (line.dirty ? 1 : 0);
                    hash *= 1099511628211ULL;
                }
            }
            sig.push_back(hash);
        }
        return sig;
    };

    const auto reference = runOnce(5, false);
    const auto rederived = runOnce(999, true);
    const auto different = runOnce(999, false);
    EXPECT_EQ(reference, rederived)
        << "reseed(masterSeed) must re-derive every noise stream";
    EXPECT_NE(reference, different)
        << "a different master seed must change the noise streams";
}

/** The per-index stream derivation is stable and collision-free. */
TEST(Scheduler, CoRunnerSeedDerivation)
{
    EXPECT_EQ(coRunnerSeed(42, 0), coRunnerSeed(42, 0));
    EXPECT_NE(coRunnerSeed(42, 0), coRunnerSeed(42, 1));
    EXPECT_NE(coRunnerSeed(42, 0), coRunnerSeed(43, 0));

    // A reseeded CoRunnerProgram replays its stream from scratch.
    CoRunnerProgram a(CoRunnerKind::PointerChase, 32, 100,
                      coRunnerSeed(7, 2));
    CoRunnerProgram b(CoRunnerKind::PointerChase, 32, 100,
                      coRunnerSeed(9, 2));
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(a.nextRaw());
    b.reseed(coRunnerSeed(7, 2));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(b.nextRaw(), first[i]) << "draw " << i;
}

TEST(Scheduler, MixOfCyclesKinds)
{
    const auto mix = SchedulerConfig::mixOf(6);
    ASSERT_EQ(mix.size(), 6u);
    EXPECT_EQ(mix[0], CoRunnerKind::Streaming);
    EXPECT_EQ(mix[1], CoRunnerKind::PointerChase);
    EXPECT_EQ(mix[2], CoRunnerKind::RandomStore);
    EXPECT_EQ(mix[3], CoRunnerKind::Idle);
    EXPECT_EQ(mix[4], CoRunnerKind::Streaming);
    EXPECT_STREQ(coRunnerKindName(mix[2]), "random-store");
}

// ------------------------------------------------------------------
// The run ends when the last party halts.
// ------------------------------------------------------------------

/**
 * A no-op sampling hook: it fires every window up to the horizon,
 * which keeps the run going after the parties halt, and it is
 * invisible to the simulation (tests/test_detection.cc,
 * SamplingHookIsInvisible). Running a config with and without it is
 * the oracle for the party-end stop.
 */
void
keepHorizon(SchedulerConfig &cfg)
{
    cfg.samplePeriod = 100'000;
    cfg.sampleHook = [](Scheduler &, Cycles) {};
}

void
expectPartyViewEqual(const chan::ChannelResult &full,
                     const chan::ChannelResult &stopped,
                     const std::string &label)
{
    EXPECT_EQ(full.latencies, stopped.latencies) << label;
    EXPECT_EQ(full.decodedBits, stopped.decodedBits) << label;
    EXPECT_EQ(full.ber, stopped.ber) << label;
    EXPECT_EQ(full.framesScored, stopped.framesScored) << label;
    expectCountersEqual(full.senderCounters, stopped.senderCounters,
                        label + " sender");
    expectCountersEqual(full.receiverCounters, stopped.receiverCounters,
                        label + " receiver");
    EXPECT_LE(stopped.simulatedCycles, full.simulatedCycles) << label;
}

/**
 * Same-core and cross-core wiring, mixOf(2)..mixOf(4), pinned and
 * migrating parties, three seeds: stopping at the last party's halt
 * leaves every party-visible output as the full-horizon run has it.
 */
TEST(SchedulerPartyEnd, StopLeavesPartyOutputsUnchanged)
{
    unsigned shortened = 0;
    for (unsigned mix = 2; mix <= 4; ++mix) {
        for (Cycles migration : {Cycles(0), Cycles(400'000)}) {
            for (std::uint64_t seed : {1u, 2u, 3u}) {
                const std::string label =
                    "mix " + std::to_string(mix) + " migration " +
                    std::to_string(migration) + " seed " +
                    std::to_string(seed);

                chan::ChannelConfig same;
                same.usePlatform("xeonE5-2650");
                same.protocol.frameBits = 64;
                same.protocol.frames = 2;
                same.scheduler = platform("xeonE5-2650").noisePreset;
                same.scheduler.coRunners = SchedulerConfig::mixOf(mix);
                same.scheduler.migrationPeriod = migration;
                same.seed = seed;
                chan::ChannelConfig sameFull = same;
                keepHorizon(sameFull.scheduler);
                const auto a = chan::runChannel(sameFull);
                const auto b = chan::runChannel(same);
                expectPartyViewEqual(a, b, "same-core " + label);
                shortened += b.simulatedCycles < a.simulatedCycles;

                chan::CrossCoreChannelConfig cross;
                cross.usePlatform("desktop-inclusive-4core");
                cross.protocol.frameBits = 64;
                cross.protocol.frames = 2;
                cross.scheduler =
                    platform("desktop-inclusive-4core").noisePreset;
                cross.scheduler.coRunners = SchedulerConfig::mixOf(mix);
                cross.scheduler.migrationPeriod = migration;
                cross.seed = seed;
                chan::CrossCoreChannelConfig crossFull = cross;
                keepHorizon(crossFull.scheduler);
                const auto c = chan::runCrossCoreChannel(crossFull);
                const auto d = chan::runCrossCoreChannel(cross);
                expectPartyViewEqual(c, d, "cross-core " + label);
                shortened += d.simulatedCycles < c.simulatedCycles;
            }
        }
    }
    EXPECT_GT(shortened, 0u) << "no run ended before its horizon";
}

/** An ARQ session replays its rounds, rungs and frame tallies. */
TEST(SchedulerPartyEnd, TransportSessionUnchanged)
{
    chan::CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.scheduler = platform("desktop-inclusive-4core").noisePreset;
    cfg.scheduler.coRunners = SchedulerConfig::mixOf(3);
    test::smallTransport(cfg.transport);
    cfg.transport.messageFrames = 1;
    cfg.transport.windowFrames = 1;
    cfg.seed = 5;
    chan::CrossCoreChannelConfig full = cfg;
    keepHorizon(full.scheduler);

    const chan::TransportResult a = chan::runCrossCoreTransport(full);
    const chan::TransportResult b = chan::runCrossCoreTransport(cfg);
    EXPECT_GT(a.rounds, 1u) << "pick a session that walks the ladder";
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.rateLevelByRound, b.rateLevelByRound);
    EXPECT_EQ(a.finalRateLevel, b.finalRateLevel);
    EXPECT_EQ(a.framesSent, b.framesSent);
    EXPECT_EQ(a.framesDelivered, b.framesDelivered);
    EXPECT_EQ(a.framesFailed, b.framesFailed);
    EXPECT_EQ(a.residualBitErrors, b.residualBitErrors);
    EXPECT_LE(b.simulatedCycles, a.simulatedCycles);
}

/** A party thread that dirties a line, spins to @p until and halts. */
std::vector<MemOp>
haltAt(Cycles until)
{
    const Addr line = AddressLayout(64).compose(3, 1);
    return {MemOp::store(line), MemOp::spinUntil(until), MemOp::load(line)};
}

/**
 * Two parties on cores 0 and 1 (halting at 100k and 300k cycles), the
 * co-runners of @p cfg after them.
 */
struct TwoPartyRig
{
    Rng rng{17};
    MultiCoreSystem mc{platform("desktop-inclusive-4core").params, 4, &rng};
    Scheduler sched;
    TraceProgram early{haltAt(100'000)};
    TraceProgram late{haltAt(300'000)};
    SmtCore &earlyCore;
    SmtCore &lateCore;
    ThreadId lateTid = 0;

    explicit TwoPartyRig(const SchedulerConfig &cfg)
        : sched(mc, NoiseModel{}, rng, cfg, /*masterSeed=*/17),
          earlyCore(sched.party(0)), lateCore(sched.party(1))
    {
        earlyCore.addThread(&early, AddressSpace(1));
        lateTid = lateCore.addThread(&late, AddressSpace(2));
    }
};

SchedulerConfig
twoCoRunners()
{
    SchedulerConfig cfg;
    cfg.coRunners = SchedulerConfig::mixOf(2);
    return cfg;
}

TEST(SchedulerPartyEnd, NoPartyRunsToHorizon)
{
    Rng rng(17);
    MultiCoreSystem mc(platform("desktop-inclusive-4core").params, 4, &rng);
    Scheduler sched(mc, NoiseModel{}, rng, twoCoRunners(), 17);
    EXPECT_GE(sched.run(1'000'000), 1'000'000u);
    EXPECT_GT(sched.stats().coRunnerAccesses, 0u);
}

TEST(SchedulerPartyEnd, StopsAfterTheLaterPartyHalts)
{
    TwoPartyRig rig(twoCoRunners());
    const Cycles end = rig.sched.run(10'000'000);
    EXPECT_TRUE(rig.lateCore.halted(rig.lateTid));
    EXPECT_GE(rig.lateCore.threadTime(rig.lateTid), 300'000u);
    EXPECT_GE(end, 300'000u);
    EXPECT_LT(end, 1'000'000u) << "co-runners ran on to the horizon";
}

TEST(SchedulerPartyEnd, SamplingHookKeepsEveryWindow)
{
    SchedulerConfig cfg = twoCoRunners();
    std::vector<Cycles> windows;
    cfg.samplePeriod = 100'000;
    cfg.sampleHook = [&windows](Scheduler &, Cycles at) {
        windows.push_back(at);
    };
    TwoPartyRig rig(cfg);
    const Cycles end = rig.sched.run(1'000'000);
    EXPECT_GE(end, 1'000'000u) << "co-runners stopped before the horizon";
    ASSERT_EQ(windows.size(), 10u);
    for (std::size_t w = 0; w < windows.size(); ++w)
        EXPECT_EQ(windows[w], Cycles(w + 1) * 100'000);
}

} // namespace
} // namespace wb::sim
