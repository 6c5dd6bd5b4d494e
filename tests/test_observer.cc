/**
 * @file
 * Degraded-observer tests (sim/observer.hh, chan/degraded.hh): the
 * cycle-accurate path's bit-exact equivalence pin, the observer choke
 * point's quantization guarantees, the pending-write-back flush model,
 * and the three observer classes' end-to-end channel behaviour.
 *
 * Every BER claim is a pooled multi-seed statistical assertion
 * (tests/stat_assert.hh): the Wilson bound of the error proportion
 * over >= 16 seeds must clear the threshold, so no expectation rests
 * on one lucky trajectory.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/flush_channels.hh"
#include "baselines/lru_channel.hh"
#include "chan/channel.hh"
#include "chan/degraded.hh"
#include "chan/multiset.hh"
#include "digest.hh"
#include "placement_configs.hh"
#include "sim/hierarchy.hh"
#include "sim/observer.hh"
#include "sim/smt_core.hh"
#include "stat_assert.hh"
#include "chan/set_mapping.hh"

namespace wb::chan
{
namespace
{

using test::fnvLatencies;

/**
 * One run's error proportion, with unlocated frames counted half
 * wrong (same convention as test_channel.cc: a frame the decoder
 * never found carries no information, the 50%-BER regime).
 */
test::Proportion
berProportion(const ChannelResult &res, const ChannelConfig &cfg)
{
    const double payload = cfg.protocol.frameBits - 16;
    const double expected = res.framesExpected * payload;
    const double scored = res.framesScored * payload;
    return {res.ber * scored + 0.5 * (expected - scored), expected};
}

test::ProportionSweep
berSweep(ChannelConfig cfg, unsigned seeds = test::ProportionSweep::kMinRuns)
{
    return test::sweepSeeds(
        [cfg](std::uint64_t seed) {
            ChannelConfig local = cfg; // the pool shares this lambda
            local.seed = seed;
            return berProportion(runChannel(local), local);
        },
        seeds);
}

// ------------------------------------------------------------------
// Equivalence pin: the default (cycle-accurate) observer path must be
// bit-identical to the pre-observer implementation. The constants
// below were captured from the tree *before* the observer layer was
// introduced; any drift in RNG draw order, quantization, scheduling
// or calibration on the legacy path trips this.
// ------------------------------------------------------------------

TEST(ObserverEquivalence, XeonDefaultPathBitIdentical)
{
    ChannelConfig cfg;
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 7;
    const ChannelResult r = runChannel(cfg);
    EXPECT_EQ(r.ber, 0.0);
    EXPECT_EQ(r.simulatedCycles, 644251u);
    EXPECT_EQ(r.latencies.size(), 115u);
    EXPECT_EQ(fnvLatencies(r.latencies), 2371547489955050502ull);
    ASSERT_GE(r.calibrationMedians.size(), 2u);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[0], 142.14550680188228);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[1], 154.06509472101021);
    EXPECT_EQ(r.receiverCounters.l1DirtyWritebacks, 26u);
    EXPECT_EQ(r.repetition, 1u);
    EXPECT_TRUE(r.evictionDiscoveryVerified);
}

TEST(ObserverEquivalence, DesktopNoisyPathBitIdentical)
{
    ChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive");
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 11;
    cfg.noiseProcesses = 2;
    const ChannelResult r = runChannel(cfg);
    EXPECT_DOUBLE_EQ(r.ber, 0.1875);
    EXPECT_EQ(r.simulatedCycles, 646104u);
    EXPECT_EQ(r.latencies.size(), 115u);
    EXPECT_EQ(fnvLatencies(r.latencies), 4715321621082035715ull);
    ASSERT_GE(r.calibrationMedians.size(), 2u);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[0], 162.02829594941409);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[1], 173.96812451193378);
    EXPECT_EQ(r.receiverCounters.l1DirtyWritebacks, 28u);
}

TEST(ObserverEquivalence, DefaultPlanIsIdentity)
{
    ChannelConfig cfg;
    const DegradedPlan plan = planDegraded(cfg);
    EXPECT_EQ(plan.repetition, 1u);
    EXPECT_EQ(plan.cfg.protocol.ts, cfg.protocol.ts);
    EXPECT_EQ(plan.cfg.protocol.tr, cfg.protocol.tr);
    EXPECT_EQ(plan.cfg.senderStartSlots, cfg.senderStartSlots);
    EXPECT_EQ(plan.cfg.calibration.measurements,
              cfg.calibration.measurements);
    EXPECT_EQ(plan.cfg.platform.lat.flushWbDrainExtra, 0u);
}

// ------------------------------------------------------------------
// The observeDuration choke point.
// ------------------------------------------------------------------

TEST(ObserveDuration, DefaultObserverIsIdentityAndDrawsNothing)
{
    Rng rng(42), reference(42);
    EXPECT_EQ(sim::observeDuration(123.375, 1, 0.0, rng), 123.375);
    EXPECT_EQ(sim::observeDuration(0.0, 0, 0.0, rng), 0.0);
    // No RNG draws were consumed: the next value matches a fresh
    // stream from the same seed.
    EXPECT_EQ(rng.uniform(), reference.uniform());
}

TEST(ObserveDuration, QuantizesToNeighbouringGranuleMultiples)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double obs = sim::observeDuration(250.0, 100, 0.0, rng);
        EXPECT_EQ(std::fmod(obs, 100.0), 0.0);
        EXPECT_TRUE(obs == 200.0 || obs == 300.0) << obs;
    }
}

TEST(ObserveDuration, DitheredQuantizationIsUnbiased)
{
    // floor((phase + d) / g) * g with uniform phase has expectation
    // exactly d; the sample mean over n draws has se = (g/sqrt(12)) /
    // sqrt(n) ~= 0.2 here, so a 1.5-cycle tolerance is ~7 sigma.
    Rng rng(123);
    const double d = 137.0;
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += sim::observeDuration(d, 100, 0.0, rng);
    EXPECT_NEAR(sum / n, d, 1.5);
}

// ------------------------------------------------------------------
// Quantization-bypass regression: under a coarse-timer observer,
// *every* observer-visible number — live receiver samples and offline
// calibration centroids alike — must be a granule multiple. Before
// the choke point the offline measurement helpers differenced raw
// virtual time, so calibration leaked cycle-accurate centroids a
// decoder could classify against.
// ------------------------------------------------------------------

TEST(CoarseTimerRegression, AllObservablesAreGranuleMultiples)
{
    constexpr double g = 512.0;
    ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer(512);
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.protocol.repetitionOverride = 1; // no amplification
    cfg.seed = 3;
    const ChannelResult res = runChannel(cfg);
    ASSERT_FALSE(res.latencies.empty());
    for (double lat : res.latencies)
        EXPECT_EQ(std::fmod(lat, g), 0.0) << lat;
    for (double m : res.calibrationMedians)
        EXPECT_EQ(std::fmod(m, g), 0.0) << m;
}

TEST(CoarseTimerRegression, UnamplifiedCoarseRunCannotBeDecoded)
{
    // The d2 = 8 signal is 96 cycles; one 512-cycle-granule sample
    // carries ~1/5 granule of signal, so with the repetition decoder
    // forced off no classifier input exists that recovers the frame —
    // the pooled error proportion stays in the coin-flip regime.
    ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer(512);
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.protocol.repetitionOverride = 1;
    EXPECT_BER_ABOVE(berSweep(cfg), 0.30);
}

// ------------------------------------------------------------------
// The pending-write-back flush model (Flushgeist's observable).
// ------------------------------------------------------------------

TEST(PendingWriteback, FlushDrainsQueuedDirtyEvictionsOnce)
{
    sim::HierarchyParams params = sim::xeonE5_2650Params();
    params.lat.noiseSigma = 0.0;
    sim::HierarchyParams drained = params;
    drained.lat.flushWbDrainExtra = 9;

    Rng rngA(1), rngB(1);
    sim::Hierarchy plain(params, &rngA);
    sim::Hierarchy model(drained, &rngB);

    // Dirty two ways past associativity in one set: the overflow
    // stores evict dirty victims, which queue as pending write-backs.
    const auto lines = linesForSet(plain.l1().layout(), /*set=*/5,
                                   plain.params().l1.ways + 2,
                                   /*tagBase=*/0x40);
    for (Addr va : lines) {
        (void)plain.access(0, va, /*isWrite=*/true);
        (void)model.access(0, va, /*isWrite=*/true);
    }
    EXPECT_EQ(plain.pendingDirtyWritebacks(), 0u); // tracking off
    const std::uint64_t pending = model.pendingDirtyWritebacks();
    EXPECT_EQ(pending, 2u);

    // The next flush pays the drain once, then the queue is empty.
    const Cycles base = plain.flush(0, lines[0]);
    const Cycles drainedCost = model.flush(0, lines[0]);
    EXPECT_EQ(drainedCost, base + 9 * pending);
    EXPECT_EQ(model.pendingDirtyWritebacks(), 0u);
    EXPECT_EQ(model.flush(0, lines[1]), plain.flush(0, lines[1]));
}

TEST(PendingWriteback, QueueIsCapped)
{
    sim::HierarchyParams params = sim::xeonE5_2650Params();
    params.lat.noiseSigma = 0.0;
    params.lat.flushWbDrainExtra = 9;
    Rng rng(1);
    sim::Hierarchy h(params, &rng);
    const auto lines = linesForSet(h.l1().layout(), /*set=*/5,
                                   h.params().l1.ways + 40,
                                   /*tagBase=*/0x40);
    for (Addr va : lines)
        (void)h.access(0, va, /*isWrite=*/true);
    EXPECT_EQ(h.pendingDirtyWritebacks(), sim::Hierarchy::kPendingWbCap);
}

// ------------------------------------------------------------------
// Observer class (i): coarse µs timer + repetition amplification.
// ------------------------------------------------------------------

TEST(CoarseTimerChannel, MicrosecondTimerRecoversChannelViaRepetition)
{
    // The Spy-in-the-Sandbox regime: ~1 µs timer floor against the
    // 96-cycle d2 = 8 signal. The plan must size a repetition factor
    // in the hundreds-to-thousands, and the amplified decode must
    // bring the pooled BER down to the clean-channel regime while the
    // reported rate honestly divides by R.
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer();
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    EXPECT_BER_BELOW(berSweep(cfg), 0.05);

    cfg.seed = 7;
    const ChannelResult res = runChannel(cfg);
    EXPECT_GE(res.repetition, 2u);
    EXPECT_LE(res.repetition, kMaxRepetition);
    EXPECT_GT(res.goodputKbps, 0.0);
    // Amplification cost is real: effective rate far below the raw
    // ~333 kbps slot rate at the granule-aligned Ts.
    EXPECT_LT(res.rateKbps, 5.0);
}

// ------------------------------------------------------------------
// Observer class (ii): flush-latency (Flushgeist) receiver.
// ------------------------------------------------------------------

TEST(FlushLatencyChannel, MatchesLoadTimingBerOnInclusivePreset)
{
    ChannelConfig load;
    load.usePlatform("desktop-inclusive");
    load.protocol.frameBits = 32;
    load.protocol.frames = 4;

    ChannelConfig flush = load;
    flush.noise.observer = sim::ObserverModel::flushLatency();

    // Both receivers must sit in the same clean-channel regime on the
    // inclusive preset — the dirty state is readable through either
    // primitive (observed pooled rates ~1.5-2% under realistic noise).
    EXPECT_BER_BELOW(berSweep(load), 0.05);
    EXPECT_BER_BELOW(berSweep(flush), 0.05);
}

TEST(FlushLatencyChannel, RequiresFlushPrimitive)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::flushLatency();
    cfg.noise.observer.hasFlush = false;
    EXPECT_EXIT((void)runChannel(cfg), ::testing::ExitedWithCode(1),
                "hasFlush=false");
}

// ------------------------------------------------------------------
// Observer class (iii): eviction-only (no flush instruction).
// ------------------------------------------------------------------

TEST(EvictionOnlyChannel, WbChannelSurvivesWithDiscoveredSets)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::evictionOnly();
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 4;
    EXPECT_BER_BELOW(berSweep(cfg), 0.05);

    // Set discovery itself must succeed (verified-minimal reductions)
    // on essentially every seed: 32/32 puts the Wilson lower bound at
    // ~0.83.
    const auto discovery = test::sweepSeeds(
        [cfg](std::uint64_t seed) {
            ChannelConfig c = cfg;
            c.seed = seed;
            const ChannelResult res = runChannel(c);
            return test::Proportion{
                res.evictionDiscoveryVerified ? 1.0 : 0.0, 1.0};
        },
        32);
    EXPECT_ACCURACY_ABOVE(discovery, 0.75);
}

TEST(EvictionOnlyChannel, FlushFamilyBaselinesAreDenied)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::evictionOnly();
    EXPECT_FALSE(baselines::flushChannelAvailable(cfg));
    EXPECT_EXIT((void)baselines::runFlushChannel(
                    cfg, baselines::FlushKind::FlushReload),
                ::testing::ExitedWithCode(1), "denied");
    EXPECT_EXIT((void)baselines::runFlushChannel(
                    cfg, baselines::FlushKind::CoherenceState),
                ::testing::ExitedWithCode(1), "denied");

    ChannelConfig allowed;
    EXPECT_TRUE(baselines::flushChannelAvailable(allowed));
}

/** A program that issues one clflush and halts. */
struct FlushOnceProgram : sim::Program
{
    const sim::MemOp ops[2] = {sim::MemOp::flush(0x1000),
                               sim::MemOp::halt()};
    sim::Trace trace;

    const sim::Trace *
    nextTrace(sim::ProcView &) override
    {
        trace = {ops, 2, nullptr, 0};
        return &trace;
    }
};

TEST(EvictionOnlyChannel, SmtCoreRefusesFlushOps)
{
    // Defense in depth below the baseline-level guard: any program
    // that reaches the core with a Flush op under a flushless
    // observer dies loudly instead of silently using a primitive the
    // observer does not have.
    sim::HierarchyParams params = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    noise.observer = sim::ObserverModel::evictionOnly();
    EXPECT_EXIT(
        {
            Rng rng(1);
            sim::Hierarchy hierarchy(params, &rng);
            sim::SmtCore core(hierarchy, noise, rng);
            FlushOnceProgram prog;
            core.addThread(&prog, sim::AddressSpace(1), 0);
            core.run(100000);
        },
        ::testing::ExitedWithCode(1), "hasFlush=false");
}

// ------------------------------------------------------------------
// A jittered timer can read a duration's end before its start. The
// receivers must report that as a small negative latency, not wrap it
// through unsigned Cycles into ~1.8e19.
// ------------------------------------------------------------------

TEST(JitteredTimer, ReceiverDurationsNeverWrap)
{
    const sim::ObserverModel jittery =
        sim::ObserverModel::sandboxTimer(1, 500.0);

    ChannelConfig multi = test::multiSetConfig();
    multi.protocol.frames = 2;
    multi.noise.observer = jittery;
    const std::vector<double> striped = runMultiSetChannel(multi).latencies;

    ChannelConfig lru;
    lru.protocol.frames = 2;
    lru.noise.observer = jittery;
    const std::vector<double> probes =
        baselines::runLruChannel(lru).latencies;

    for (const std::vector<double> *lats : {&striped, &probes}) {
        ASSERT_FALSE(lats->empty());
        EXPECT_LT(*std::min_element(lats->begin(), lats->end()), 0.0)
            << "the jitter must push some end reading before its start";
        for (double lat : *lats)
            ASSERT_LT(lat, 1e7);
    }
}

} // namespace
} // namespace wb::chan
