/**
 * @file
 * Tests for the online detection subsystem and the detector-vs-stealth
 * arms race (paper Sec. VII made quantitative; docs/DETECTION.md).
 *
 * The load-bearing claims:
 *  - the online per-tid collector is feature-equivalent to the offline
 *    tumbling-window reference on the quiet single-core case;
 *  - attaching the sampling hook is invisible: an observed run
 *    transmits bit-identically to an unobserved one;
 *  - the recorded score series is the same data the live alarm used,
 *    so post-hoc threshold sweeps are honest;
 *  - ROC detection and false-positive rates are monotone in the
 *    threshold;
 *  - the adaptive-stealth session settles under its budget while
 *    still delivering statistically nonzero goodput, and benign idle
 *    mixes stay alarm-free at the operating point (both Wilson-bounded
 *    over >= 16 seeds).
 */

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "perfmon/arms_race.hh"
#include "perfmon/detector.hh"
#include "perfmon/online.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"
#include "stat_assert.hh"

namespace wb::perfmon
{
namespace
{

constexpr Cycles kWindow = 50000;

TEST(WindowFeatures, RatesPerKcycle)
{
    sim::PerfCounters delta;
    delta.l1Misses = 100;
    delta.l1DirtyWritebacks = 50;
    delta.l2Accesses = 20;
    delta.llcDirtyEvictions = 10;
    delta.crossCoreSnoops = 5;
    const WindowFeatures f = windowFeatures(delta, 10000);
    EXPECT_DOUBLE_EQ(f.l1MissPerKcycle, 10.0);
    EXPECT_DOUBLE_EQ(f.writebacksPerKcycle, 5.0);
    EXPECT_DOUBLE_EQ(f.l2AccessPerKcycle, 2.0);
    EXPECT_DOUBLE_EQ(f.backInvalPerKcycle, 1.0);
    EXPECT_DOUBLE_EQ(f.snoopPerKcycle, 0.5);
}

TEST(Wilson, MatchesTestSideHelper)
{
    // The src-side interval must agree with the tests' reference
    // implementation: tables print what the tests assert.
    for (unsigned k : {0u, 3u, 50u, 100u}) {
        const WilsonInterval src = wilsonInterval(k, 100);
        const auto ref = wb::test::wilsonInterval(double(k), 100.0);
        EXPECT_NEAR(src.lo, ref.lo, 1e-12);
        EXPECT_NEAR(src.hi, ref.hi, 1e-12);
    }
    const WilsonInterval empty = wilsonInterval(1, 0);
    EXPECT_DOUBLE_EQ(empty.lo, 0.0);
    EXPECT_DOUBLE_EQ(empty.hi, 1.0);
}

/**
 * Online-vs-offline equivalence: on the quiet single-core case the
 * online per-tid collector, summed over threads, must reproduce the
 * offline tumbling-window reference exactly — same workload builder,
 * same RNG draw order (Rng, Hierarchy, one SmtCore, then the bit
 * split), same window boundaries.
 */
TEST(OnlineDetector, OnlineMatchesOfflineFeatures)
{
    const unsigned windows = 12;
    const std::uint64_t seed = 7;
    const auto offline =
        collectTrace(Workload::WbChannel, windows, kWindow, seed);
    ASSERT_EQ(offline.size(), windows);

    Rng rng(seed);
    sim::HierarchyParams hp = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    sim::Hierarchy hierarchy(hp, &rng);

    OnlineDetectorConfig dc;
    dc.windowCycles = kWindow;
    OnlineDetector det(dc);
    sim::SchedulerConfig sc;
    det.attach(sc);
    EXPECT_TRUE(sc.active()); // sampling alone makes a config active

    sim::Scheduler sched(static_cast<sim::MemorySystem &>(hierarchy),
                         noise, rng, sc, seed);
    sim::SmtCore &core = sched.party(0);
    std::vector<std::unique_ptr<sim::Program>> programs;
    Rng bitRng = rng.split();
    populateWorkload(Workload::WbChannel, core, hp,
                     hierarchy.l1().layout(), bitRng, 11000, programs);
    sched.run(Cycles(windows) * kWindow);

    ASSERT_GE(det.windowCount(), windows);
    for (unsigned w = 0; w < windows; ++w) {
        WindowFeatures sum;
        for (ThreadId tid : det.tids()) {
            const auto &recs = det.windows(tid);
            ASSERT_GT(recs.size(), w);
            sum.l1MissPerKcycle += recs[w].f.l1MissPerKcycle;
            sum.writebacksPerKcycle += recs[w].f.writebacksPerKcycle;
            sum.l2AccessPerKcycle += recs[w].f.l2AccessPerKcycle;
        }
        // Identical integer counter deltas; only the summation order
        // differs, so agreement is to floating-point round-off.
        EXPECT_NEAR(sum.l1MissPerKcycle, offline[w].l1MissPerKcycle, 1e-9);
        EXPECT_NEAR(sum.writebacksPerKcycle,
                    offline[w].writebacksPerKcycle, 1e-9);
        EXPECT_NEAR(sum.l2AccessPerKcycle, offline[w].l2AccessPerKcycle,
                    1e-9);
    }
}

/**
 * The sampling hook must not perturb the run: same seed with and
 * without an attached detector, bit-identical transmission.
 */
TEST(OnlineDetector, SamplingHookIsInvisible)
{
    chan::ChannelConfig base;
    base.usePlatform("desktop-inclusive-4core");
    base.protocol.ts = base.protocol.tr = 5500;
    base.protocol.frames = 2;
    base.protocol.frameBits = 64;
    base.seed = 11;
    base.scheduler.coRunners = sim::SchedulerConfig::mixOf(2);
    const chan::ChannelResult plain = chan::runChannel(base);

    chan::ChannelConfig watched = base;
    OnlineDetector det(OnlineDetectorConfig{});
    det.attach(watched.scheduler);
    const chan::ChannelResult observed = chan::runChannel(watched);

    EXPECT_EQ(observed.decodedBits, plain.decodedBits);
    EXPECT_EQ(observed.latencies, plain.latencies);
    EXPECT_DOUBLE_EQ(observed.ber, plain.ber);
    EXPECT_EQ(observed.simulatedCycles, plain.simulatedCycles);
    EXPECT_GT(det.windowCount(), 0u);
}

/**
 * A sampling-only scheduler config must match the inactive one
 * bit-for-bit: both run on the Scheduler, and the hook only reads
 * counters between operations. The same guarantee CoRunnerIsolation
 * makes for an empty config, extended to the hook.
 */
TEST(OnlineDetector, SamplingOnlyConfigMatchesPlainPath)
{
    chan::ChannelConfig base;
    base.protocol.frames = 2;
    base.protocol.frameBits = 64;
    base.seed = 5;
    ASSERT_FALSE(base.scheduler.active());
    const chan::ChannelResult plain = chan::runChannel(base);

    chan::ChannelConfig sampled = base;
    OnlineDetector det(OnlineDetectorConfig{});
    det.attach(sampled.scheduler);
    ASSERT_TRUE(sampled.scheduler.active());
    const chan::ChannelResult observed = chan::runChannel(sampled);

    EXPECT_EQ(observed.decodedBits, plain.decodedBits);
    EXPECT_EQ(observed.latencies, plain.latencies);
    EXPECT_EQ(observed.simulatedCycles, plain.simulatedCycles);
}

/** Party tids are reported so harnesses can label the covert pair. */
TEST(OnlineDetector, ChannelResultExposesPartyTids)
{
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.protocol.frameBits = 64;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(1);
    const chan::ChannelResult res = chan::runChannel(cfg);
    EXPECT_EQ(res.senderTid, 0u);
    EXPECT_EQ(res.receiverTid, 1u);

    chan::CrossCoreChannelConfig xc;
    xc.protocol.frames = 2;
    xc.scheduler.coRunners = sim::SchedulerConfig::mixOf(1);
    const chan::ChannelResult xres = chan::runCrossCoreChannel(xc);
    EXPECT_EQ(xres.senderTid, 0u);
    // The receiver is the second party front-end: tid base 8.
    EXPECT_EQ(xres.receiverTid, 8u);
}

/**
 * The recorded smoothed series re-scored at the configured threshold
 * must reproduce the live alarm decisions: one run honestly serves a
 * whole post-hoc threshold sweep.
 */
TEST(OnlineDetector, RecordedScoresMatchLiveAlarms)
{
    ArmsRaceConfig cfg;
    cfg.coRunners = 2;
    chan::ChannelConfig ch;
    ch.usePlatform(cfg.platformName);
    ch.protocol.ts = ch.protocol.tr = cfg.ts;
    ch.protocol.frames = cfg.frames;
    ch.protocol.frameBits = cfg.frameBits;
    ch.seed = 3;
    ch.scheduler.coRunners = sim::SchedulerConfig::mixOf(cfg.coRunners);
    OnlineDetector det(cfg.detector);
    det.attach(ch.scheduler);
    chan::runChannel(ch);

    ASSERT_FALSE(det.tids().empty());
    for (ThreadId tid : det.tids()) {
        EXPECT_EQ(det.alarmsAt(tid, cfg.detector.threshold),
                  det.liveAlarms(tid));
        // And the recorded flags agree window by window.
        for (const WindowRecord &rec : det.windows(tid))
            EXPECT_EQ(rec.alarmed,
                      rec.smoothed > cfg.detector.threshold);
    }
}

/** Detection and false-positive rates are monotone in the threshold. */
TEST(Roc, MonotoneInThreshold)
{
    ArmsRaceConfig cfg;
    cfg.coRunners = 2;
    std::vector<ScenarioOutcome> outs;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        outs.push_back(runDetectionScenario(
            cfg, DetectionScenario::WbChannelD8, seed));
        outs.push_back(runDetectionScenario(
            cfg, DetectionScenario::CompilerPair, seed));
    }
    const std::vector<double> thresholds = {0.1, 0.25, 0.5, 0.75, 1.0,
                                            1.5, 2.5};
    const auto roc = buildRoc(outs, thresholds);
    ASSERT_EQ(roc.size(), thresholds.size());
    for (std::size_t i = 1; i < roc.size(); ++i) {
        EXPECT_LE(roc[i].detectRate, roc[i - 1].detectRate);
        EXPECT_LE(roc[i].fpr, roc[i - 1].fpr);
    }
    for (const RocPoint &pt : roc) {
        // Round-off tolerance: at a rate of exactly 0 or 1 the Wilson
        // bound equals the rate only up to floating-point error.
        EXPECT_LE(pt.detect.lo, pt.detectRate + 1e-12);
        EXPECT_GE(pt.detect.hi, pt.detectRate - 1e-12);
        EXPECT_LE(pt.fp.lo, pt.fpr + 1e-12);
        EXPECT_GE(pt.fp.hi, pt.fpr - 1e-12);
        EXPECT_EQ(pt.attackWindows,
                  outs[0].pairSmoothed.size() +
                      outs[2].pairSmoothed.size());
    }
}

/**
 * Benign idle mixes stay quiet at the operating point: pooled false
 * positives over >= 16 seeds are Wilson-bounded near zero.
 */
TEST(Roc, IdleMixFalsePositivesNearZero)
{
    auto sweep = wb::test::sweepSeeds([](std::uint64_t seed) {
        ArmsRaceConfig cfg;
        cfg.coRunners = 2;
        cfg.seed = seed;
        const ScenarioOutcome o = runDetectionScenario(
            cfg, DetectionScenario::IdlePair, seed);
        double alarms = 0.0;
        for (double s : o.benignSmoothed)
            alarms += s > cfg.detector.threshold ? 1.0 : 0.0;
        return wb::test::Proportion{alarms,
                                    double(o.benignSmoothed.size())};
    });
    // FP rate below 2% with 99% confidence at threshold 1.0.
    EXPECT_BER_BELOW(sweep, 0.02);
}

/**
 * The arms race's ending: the adaptive-stealth session settles under
 * its budget (and so under the operating threshold) in every session,
 * while pooled payload correctness stays statistically above a coin
 * flip — stealth with nonzero goodput.
 */
TEST(Stealth, SettlesUnderBudgetWithNonzeroGoodput)
{
    wb::test::ProportionSweep bits;
    const StealthConfig st;
    double budget = 0.0;
    for (std::uint64_t seed = 1;
         seed <= wb::test::ProportionSweep::kMinRuns; ++seed) {
        ArmsRaceConfig cfg;
        cfg.coRunners = 4;
        cfg.seed = seed;
        budget = st.budgetFraction * cfg.detector.threshold;
        const StealthOutcome out = runStealthSession(cfg, st);

        EXPECT_LT(out.settledPeak, budget);
        EXPECT_LT(out.settledPeak, cfg.detector.threshold);
        // The settled half never trips the budget again.
        for (std::size_t r = out.rounds.size() / 2;
             r < out.rounds.size(); ++r)
            EXPECT_FALSE(out.rounds[r].overBudget);
        // The greedy starting rung was genuinely over budget — the
        // controller had something to do.
        EXPECT_TRUE(out.rounds.front().overBudget);
        bits.add(wb::test::Proportion{double(out.bitsCorrect),
                                      double(out.bitsTotal)});
    }
    // Pooled correct-bit rate above 0.5 with 99% confidence.
    EXPECT_ACCURACY_ABOVE(bits, 0.5);
}

} // namespace
} // namespace wb::perfmon
