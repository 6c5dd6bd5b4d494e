/**
 * @file
 * Statistical tests of the platform noise machinery: spin-overshoot
 * and preemption rates must match their configured parameters, and
 * the receiver's measurement dispersion must follow measSigma — these
 * are the calibrated constants behind the Fig. 6 reproduction, so
 * drift here silently distorts every BER number.
 */

#include <gtest/gtest.h>

#include "chan/channel.hh"
#include "common/stats.hh"
#include "sim/smt_core.hh"

namespace wb
{
namespace
{

/**
 * Program performing n paced spins and recording their latencies: a
 * TSC read, then one single-op trace per spin, re-based on its result.
 */
class SpinSampler : public sim::Program
{
  public:
    SpinSampler(unsigned n, Cycles period) : n_(n), period_(period) {}

    const sim::Trace *
    nextTrace(sim::ProcView &) override
    {
        if (!started_) {
            started_ = true;
            op_ = sim::MemOp::tscRead();
        } else if (lat.count() >= n_) {
            return nullptr;
        } else {
            op_ = sim::MemOp::spinUntil(tlast_ + period_);
        }
        trace_ = {&op_, 1, &kResult, 1};
        return &trace_;
    }

    void
    onTraceResult(std::uint32_t, const sim::MemOp &op,
                  const sim::OpResult &res, sim::ProcView &) override
    {
        if (op.kind == sim::MemOp::Kind::SpinUntil)
            lat.add(double(res.latency));
        tlast_ = res.tsc;
    }

    Samples lat;

  private:
    static constexpr std::uint32_t kResult = 0;

    unsigned n_;
    Cycles period_;
    Cycles tlast_ = 0;
    bool started_ = false;
    sim::MemOp op_;
    sim::Trace trace_;
};

TEST(NoiseStats, SpinOvershootMeanMatchesConfig)
{
    Rng rng(3);
    auto hp = sim::xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    sim::Hierarchy h(hp, &rng);
    sim::NoiseModel nm = sim::NoiseModel::quiet();
    nm.spinOvershootMean = 18.0;
    sim::SmtCore core(h, nm, rng);
    SpinSampler prog(4000, 1000);
    core.addThread(&prog, sim::AddressSpace(1));
    core.run(50'000'000);
    // Spin latency = period remainder + overshoot; with back-to-back
    // spins the latency is ~period + overshoot drift... simpler: the
    // mean EXCESS over the shortest observed spin approximates the
    // exponential's mean.
    const double excess = prog.lat.mean() - prog.lat.percentile(0.5);
    EXPECT_NEAR(excess, 18.0, 4.0);
}

TEST(NoiseStats, PreemptionRateMatchesConfig)
{
    Rng rng(5);
    auto hp = sim::xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    sim::Hierarchy h(hp, &rng);
    sim::NoiseModel nm = sim::NoiseModel::quiet();
    nm.preemptProbPerSpin = 0.01;
    nm.preemptMean = 12000.0;
    sim::SmtCore core(h, nm, rng);
    SpinSampler prog(8000, 1000);
    core.addThread(&prog, sim::AddressSpace(1));
    core.run(200'000'000);
    unsigned big = 0;
    for (double v : prog.lat.raw())
        if (v > 3000.0) // far beyond any non-preempted spin
            ++big;
    // ~1% of spins preempted (exponential(12000) > 3000 w.p. ~78%).
    EXPECT_NEAR(double(big) / 8000.0, 0.0078, 0.004);
}

TEST(NoiseStats, ReceiverDispersionFollowsMeasSigma)
{
    // Run the receiver alone (no sender): observation spread must be
    // dominated by measSigma(tr) once per-access noise is off.
    auto run = [](Cycles tr) {
        chan::ChannelConfig cfg;
        cfg.noise = sim::NoiseModel::quiet();
        cfg.noise.measBaseSigma = 1.0;
        cfg.noise.measRateSigma = 1800.0;
        cfg.platform.lat.noiseSigma = 0.0;
        cfg.protocol.ts = cfg.protocol.tr = tr;
        cfg.protocol.frames = 4;
        cfg.protocol.encoding = chan::Encoding::binary(1);
        cfg.calibration.measurements = 50;
        cfg.seed = 9;
        auto res = chan::runChannel(cfg);
        // Spread of the '0' population only (below the midpoint).
        Samples zeros;
        const double thr = (res.calibrationMedians[0] +
                            res.calibrationMedians[1]) /
                           2.0;
        for (double v : res.latencies)
            if (v < thr)
                zeros.add(v);
        return zeros.stddev();
    };
    const double fast = run(800);   // sigma = 1 + 1800/800  = 3.25
    const double slow = run(11000); // sigma = 1 + 1800/11000 = 1.16
    EXPECT_GT(fast, slow);
    EXPECT_NEAR(fast, 3.25, 1.3);
    EXPECT_NEAR(slow, 1.16, 0.8);
}

TEST(NoiseStats, SevenNoisyLinesStillFine)
{
    // Paper Sec. VI: "our WB channel can resist the interference of
    // multiple noisy cache lines (for example, 7 noisy cache lines
    // are in the cache using the LRU replacement algorithm)".
    chan::ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.platform.l1.policy = sim::PolicyKind::TrueLru;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = chan::Encoding::binary(1);
    cfg.protocol.frames = 6;
    cfg.calibration.measurements = 80;
    cfg.noiseProcesses = 1;
    cfg.noiseCfg.period = 2 * 5500;
    cfg.noiseCfg.burstLines = 7;
    cfg.seed = 21;
    auto res = chan::runChannel(cfg);
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.05);
}

} // namespace
} // namespace wb
