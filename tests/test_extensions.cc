/**
 * @file
 * Tests for the beyond-the-paper extensions: the L2-level channel
 * (Sec. III's unevaluated claim), multi-set bandwidth striping, the
 * perf-counter detector experiment, and the Hamming(7,4) FEC layer.
 */

#include <gtest/gtest.h>

#include <utility>

#include "chan/fec.hh"
#include "chan/l2_channel.hh"
#include "chan/multiset.hh"
#include "perfmon/detector.hh"
#include "placement_configs.hh"

namespace wb
{
namespace
{

// ---------------------------------------------------------------- L2

TEST(L2Channel, SetsAreConsistent)
{
    sim::AddressLayout l1(64), l2(512);
    auto sets = chan::makeL2Sets(l1, l2, 137, 8, 10, 12);
    ASSERT_EQ(sets.senderLines.size(), 8u);
    ASSERT_EQ(sets.pushers.size(), 10u);
    for (Addr a : sets.senderLines) {
        EXPECT_EQ(l2.setIndex(a), 137u);
        EXPECT_EQ(l1.setIndex(a), 137u % 64);
    }
    for (Addr a : sets.replacementA)
        EXPECT_EQ(l2.setIndex(a), 137u);
    // Pushers share the L1 set but never the target L2 set.
    for (Addr a : sets.pushers) {
        EXPECT_EQ(l1.setIndex(a), 137u % 64);
        EXPECT_NE(l2.setIndex(a), 137u);
    }
}

/** Forwards to a program and tallies the op kinds of its traces. */
class OpTally : public sim::Program
{
  public:
    explicit OpTally(sim::Program &inner) : inner_(inner) {}

    const sim::Trace *
    nextTrace(sim::ProcView &view) override
    {
        const sim::Trace *tr = inner_.nextTrace(view);
        if (tr == nullptr) {
            ++halts;
            return nullptr;
        }
        for (std::size_t i = 0; i < tr->count; ++i) {
            spins += tr->ops[i].kind == sim::MemOp::Kind::SpinUntil;
            tscReads += tr->ops[i].kind == sim::MemOp::Kind::TscRead;
            halts += tr->ops[i].kind == sim::MemOp::Kind::Halt;
        }
        return tr;
    }

    void
    onTraceResult(std::uint32_t opIdx, const sim::MemOp &op,
                  const sim::OpResult &res, sim::ProcView &view) override
    {
        inner_.onTraceResult(opIdx, op, res, view);
    }

    unsigned spins = 0;
    unsigned tscReads = 0;
    unsigned halts = 0;

  private:
    sim::Program &inner_;
};

TEST(L2Channel, SenderHaltsAfterItsLastSlot)
{
    // Like the L1 sender: one TSC read, one spin per slot, then halt —
    // no spins (and no spin-overshoot draws) past the message.
    const sim::HierarchyParams hp = sim::xeonE5_2650Params();
    Rng rng(1);
    sim::Hierarchy hierarchy(hp, &rng);
    sim::NoiseModel noise;
    sim::SmtCore core(hierarchy, noise, rng);
    const auto sets = chan::makeL2Sets(
        sim::AddressLayout(hp.l1.numSets()),
        sim::AddressLayout(hp.l2.numSets()), 137, hp.l2.ways, 10, 12);
    chan::L2SenderProgram sender(sets.senderLines, sets.pushers,
                                 {true, false, true, true}, 4, 30000);
    OpTally tally(sender);
    const ThreadId tid = core.addThread(&tally, sim::AddressSpace(1));
    const Cycles horizon = 200 * 30000;
    core.run(horizon);
    EXPECT_TRUE(core.halted(tid));
    EXPECT_LT(core.threadTime(tid), horizon);
    EXPECT_EQ(tally.spins, 4u);
    EXPECT_EQ(tally.tscReads, 1u);
    EXPECT_EQ(tally.halts, 1u);
    EXPECT_TRUE(sender.done());
}

TEST(L2Channel, TransmitsAtModerateRate)
{
    chan::ChannelConfig cfg = test::l2Config();
    cfg.protocol.frames = 8;
    cfg.seed = 3;
    auto res = chan::runL2Channel(cfg);
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.05);
    // The L2-level signal is the L2 dirty-evict penalty per line.
    EXPECT_GT(res.calibrationMedians[1] - res.calibrationMedians[0],
              2.0 * cfg.protocol.encoding.maxLevel());
    // 30000-cycle slots at 2.2 GHz.
    EXPECT_NEAR(res.rateKbps, 73.3, 0.1);
}

TEST(L2Channel, SignalScalesWithD)
{
    chan::ChannelConfig cfg = test::l2Config();
    cfg.protocol.frames = 4;
    cfg.seed = 3;
    cfg.protocol.encoding = chan::Encoding::binary(2);
    auto small = chan::runL2Channel(cfg);
    cfg.protocol.encoding = chan::Encoding::binary(8);
    auto big = chan::runL2Channel(cfg);
    EXPECT_GT(big.calibrationMedians[1] - big.calibrationMedians[0],
              small.calibrationMedians[1] - small.calibrationMedians[0]);
}

TEST(L2Channel, SenderPaysForThePush)
{
    // The paper: deploying on L2 "requires more operations from the
    // sender" — visible as a much larger sender load count per bit.
    chan::ChannelConfig cfg = test::l2Config();
    cfg.protocol.frames = 4;
    cfg.seed = 3;
    const unsigned pusherLines = 10;
    auto res = chan::runL2Channel(cfg, pusherLines);
    // Pusher sweeps: >= d * pusherLines loads per 1-bit.
    EXPECT_GT(res.senderCounters.loads,
              res.senderCounters.stores * pusherLines / 2);
}

// ---------------------------------------------------------- multiset

TEST(MultiSet, SingleSetMatchesBaseChannel)
{
    chan::ChannelConfig cfg = test::multiSetConfig();
    cfg.protocol.frames = 6;
    cfg.seed = 3;
    auto res = chan::runMultiSetChannel(cfg, 1);
    EXPECT_TRUE(res.aligned);
    EXPECT_LT(res.ber, 0.08);
    EXPECT_NEAR(res.rateKbps, 400.0, 1.0);
}

TEST(MultiSet, FourSetsQuadrupleRate)
{
    chan::ChannelConfig cfg = test::multiSetConfig();
    cfg.protocol.frames = 6;
    cfg.seed = 3;
    auto res = chan::runMultiSetChannel(cfg, 4);
    EXPECT_TRUE(res.aligned);
    EXPECT_NEAR(res.rateKbps, 1600.0, 1.0);
    EXPECT_LT(res.ber, 0.05);
    EXPECT_GT(res.goodputKbps, 1500.0);
}

TEST(MultiSet, SaturatesWhenChasesOverflowSlot)
{
    // k chases of ~230 cycles cannot fit a slot much smaller than
    // k * 250: BER must degrade noticeably vs. the comfortable case.
    chan::ChannelConfig cfg = test::multiSetConfig();
    cfg.protocol.frames = 6;
    cfg.seed = 3;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    auto ok = chan::runMultiSetChannel(cfg, 8);
    cfg.protocol.ts = cfg.protocol.tr = 1700; // < 8 x chase
    auto sat = chan::runMultiSetChannel(cfg, 8);
    // Eight disjoint stripes carry cleanly when the chases fit; two
    // stripes on one set would garble each other.
    EXPECT_LT(ok.ber, 0.05);
    EXPECT_GT(sat.ber, ok.ber + 0.05);
}

TEST(MultiSet, DeterministicPerSeed)
{
    chan::ChannelConfig cfg = test::multiSetConfig();
    cfg.protocol.frames = 3;
    cfg.seed = 11;
    auto a = chan::runMultiSetChannel(cfg, 2);
    auto b = chan::runMultiSetChannel(cfg, 2);
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.latencies, b.latencies);
}

TEST(MultiSet, TransportReportsTheAggregateRawRate)
{
    // k stripes carry k bits a slot: the session's raw rate is k times
    // the final rung's per-set rate. At k = 4, Ts = 2750 the session
    // ends on rung 0, 3200 kbps on the 2.2 GHz Xeon.
    const std::pair<unsigned, Cycles> cases[] = {{4, 2750}, {8, 5500}};
    for (const auto &[k, ts] : cases) {
        SCOPED_TRACE(k);
        chan::ChannelConfig cfg = test::multiSetConfig();
        cfg.protocol.ts = cfg.protocol.tr = ts;
        cfg.seed = 5;
        cfg.transport.enabled = true;
        const chan::TransportResult r =
            chan::runMultiSetTransport(cfg, fromString("dirty bits"), k);
        EXPECT_EQ(r.framesDelivered, r.framesTotal);
        const std::vector<chan::RateStep> ladder = chan::rateLadder(
            cfg.protocol, cfg.transport.maxSlowdownDoublings,
            cfg.transport.signalShrinks);
        EXPECT_DOUBLE_EQ(r.rawRateKbps,
                         k * ladder.at(r.finalRateLevel)
                                 .rateKbps(cfg.protocol.cpuGhz));
        if (k == 4) {
            EXPECT_EQ(r.finalRateLevel, 0u);
            EXPECT_NEAR(r.rawRateKbps, 3200.0, 1e-9);
        }
    }
}

// ---------------------------------------------------------- detector

TEST(Detector, WorkloadNamesDistinct)
{
    EXPECT_NE(perfmon::workloadName(perfmon::Workload::WbChannel),
              perfmon::workloadName(perfmon::Workload::LruChannel));
}

TEST(Detector, WbChannelHidesUnderBenignFloor)
{
    using perfmon::Workload;
    const unsigned windows = 25;
    const Cycles windowCycles = 500000;
    auto wb = perfmon::collectTrace(Workload::WbChannel, windows,
                                    windowCycles, 7);
    auto benign = perfmon::collectTrace(Workload::CompilerPair, windows,
                                        windowCycles, 7);
    double wbMean = 0, benignMean = 0;
    for (const auto &f : wb)
        wbMean += f.writebacksPerKcycle;
    for (const auto &f : benign)
        benignMean += f.writebacksPerKcycle;
    wbMean /= windows;
    benignMean /= windows;
    // The covert channel's write-back rate sits 2+ orders of magnitude
    // below a benign compiler's — the Sec. VII stealth claim.
    EXPECT_LT(wbMean * 50, benignMean);
}

TEST(Detector, ThresholdTradeoffIsHopeless)
{
    using perfmon::Workload;
    std::vector<Workload> ws = {Workload::WbChannel,
                                Workload::CompilerPair};
    std::vector<std::vector<perfmon::WindowFeatures>> traces;
    for (auto w : ws)
        traces.push_back(perfmon::collectTrace(w, 25, 500000, 7));

    // A threshold low enough to alarm on the channel in >= half the
    // windows must alarm on essentially all benign-compiler windows.
    for (double thr : {0.01, 0.02, 0.04}) {
        auto rows = perfmon::thresholdDetector(traces, ws, thr);
        if (rows[0].alarmRate >= 0.5) {
            EXPECT_GT(rows[1].alarmRate, 0.9);
        }
    }
}

TEST(Detector, IdleIsSilent)
{
    auto idle = perfmon::collectTrace(perfmon::Workload::Idle, 10,
                                      200000, 3);
    for (const auto &f : idle) {
        EXPECT_EQ(f.writebacksPerKcycle, 0.0);
        EXPECT_LE(f.l1MissPerKcycle, 0.05); // stack-line cold misses only
    }
}

// --------------------------------------------------------------- FEC

TEST(Fec, RoundtripNoErrors)
{
    chan::HammingCode code(4);
    Rng rng(3);
    const BitVec data = randomBits(200, rng);
    const BitVec decoded = code.decode(code.encode(data));
    ASSERT_GE(decoded.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(decoded[i], data[i]) << i;
}

TEST(Fec, CorrectsSingleErrorPerWord)
{
    chan::HammingCode code(1); // no interleaving: direct words
    Rng rng(5);
    const BitVec data = randomBits(64, rng);
    BitVec coded = code.encode(data);
    // Flip exactly one bit in every 7-bit codeword.
    for (std::size_t w = 0; w * 7 < coded.size(); ++w) {
        const std::size_t pos = w * 7 + (w % 7);
        coded[pos] = !coded[pos];
    }
    const BitVec decoded = code.decode(coded);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(decoded[i], data[i]) << i;
}

TEST(Fec, InterleavingAbsorbsBursts)
{
    Rng rng(7);
    const BitVec data = randomBits(400, rng);
    // A burst of 8 adjacent flips: fatal without interleaving,
    // harmless at depth 8.
    auto burstTrial = [&](unsigned depth) {
        chan::HammingCode code(depth);
        BitVec coded = code.encode(data);
        for (std::size_t i = 100; i < 108; ++i)
            coded[i] = !coded[i];
        const BitVec decoded = code.decode(coded);
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < data.size(); ++i)
            if (decoded[i] != data[i])
                ++wrong;
        return wrong;
    };
    EXPECT_EQ(burstTrial(8), 0u);
    EXPECT_GT(burstTrial(1), 0u);
}

TEST(Fec, CodedLength)
{
    chan::HammingCode code(4);
    EXPECT_EQ(code.codedLength(4), 7u);
    EXPECT_EQ(code.codedLength(5), 14u); // pads to 8 data bits
    EXPECT_EQ(code.codedLength(400), 700u);
    EXPECT_DOUBLE_EQ(chan::HammingCode::rate(), 4.0 / 7.0);
}

TEST(Fec, ResidualBerImprovesOnChannelBer)
{
    chan::HammingCode code(8);
    // At p = 5% the code should cut the residual error rate hard.
    const double residual =
        chan::simulateResidualBer(code, 0.05, 20000, 11);
    EXPECT_LT(residual, 0.02);
    // At p = 0 it is perfect.
    EXPECT_DOUBLE_EQ(chan::simulateResidualBer(code, 0.0, 1000, 11),
                     0.0);
}

/** Residual-BER sweep (property: coding never makes p<=10% worse). */
class FecSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FecSweep, NotWorseThanUncoded)
{
    const double p = GetParam() / 100.0;
    chan::HammingCode code(8);
    const double residual =
        chan::simulateResidualBer(code, p, 20000, 13);
    EXPECT_LE(residual, p + 0.01);
}

INSTANTIATE_TEST_SUITE_P(FlipProbs, FecSweep,
                         ::testing::Values(1, 2, 5, 8, 10));

} // namespace
} // namespace wb
