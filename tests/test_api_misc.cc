/**
 * @file
 * API-level and edge-case tests: the umbrella header, the stats dump,
 * protocol corner cases, hierarchy level transitions, and
 * configuration validation across modules.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "wbchan.hh" // the umbrella header must be self-contained

namespace wb
{
namespace
{

TEST(Umbrella, HeaderExposesEverySubsystem)
{
    // Touch one symbol from each namespace to prove the single
    // include suffices.
    EXPECT_EQ(sim::policyName(sim::PolicyKind::TreePlru), "TreePLRU");
    EXPECT_EQ(chan::Encoding::binary(1).bitsPerSymbol(), 1u);
    EXPECT_EQ(baselines::flushKindName(
                  baselines::FlushKind::FlushReload),
              "Flush+Reload");
    EXPECT_EQ(defense::defenseName({defense::DefenseKind::None, 0}),
              "none");
    EXPECT_EQ(perfmon::workloadName(perfmon::Workload::Idle),
              "idle spinners");
    EXPECT_EQ(hw::available(), hw::available());
}

TEST(StatsDump, RendersAllCounters)
{
    Rng rng(1);
    auto hp = sim::xeonE5_2650Params();
    sim::Hierarchy h(hp, &rng);
    h.access(0, 0x1000, false);
    h.access(1, 0x2000, true);
    std::ostringstream os;
    sim::dumpStats(h, os, 2);
    const std::string out = os.str();
    EXPECT_NE(out.find("thread0.loads"), std::string::npos);
    EXPECT_NE(out.find("thread1.stores"), std::string::npos);
    EXPECT_NE(out.find("total.l1.missRate"), std::string::npos);
    EXPECT_NE(out.find("total.loads"), std::string::npos);
}

TEST(Protocol, EmptyLatenciesDontAlign)
{
    chan::Classifier cls({100.0, 200.0});
    Rng rng(3);
    auto frame = randomFrame(112, rng);
    auto dec = chan::decodeTransmission({}, cls,
                                        chan::Encoding::binary(1),
                                        frame, 3);
    EXPECT_FALSE(dec.aligned);
    EXPECT_DOUBLE_EQ(dec.ber, 1.0);
    EXPECT_EQ(dec.framesScored, 0u);
}

TEST(Protocol, SingleFrameStream)
{
    Rng rng(5);
    auto frame = randomFrame(112, rng);
    chan::Classifier cls({100.0, 200.0});
    std::vector<double> lats;
    for (bool b : frame)
        lats.push_back(b ? 200.0 : 100.0);
    auto dec = chan::decodeTransmission(lats, cls,
                                        chan::Encoding::binary(1),
                                        frame, 1);
    EXPECT_TRUE(dec.aligned);
    EXPECT_EQ(dec.framesScored, 1u);
    EXPECT_DOUBLE_EQ(dec.ber, 0.0);
}

TEST(Protocol, MoreFramesExpectedThanSent)
{
    Rng rng(7);
    auto frame = randomFrame(112, rng);
    chan::Classifier cls({100.0, 200.0});
    std::vector<double> lats;
    for (int f = 0; f < 2; ++f)
        for (bool b : frame)
            lats.push_back(b ? 200.0 : 100.0);
    auto dec = chan::decodeTransmission(lats, cls,
                                        chan::Encoding::binary(1),
                                        frame, 10);
    EXPECT_TRUE(dec.aligned);
    EXPECT_LE(dec.framesScored, 2u);
    EXPECT_DOUBLE_EQ(dec.ber, 0.0); // scored frames were clean
}

TEST(Encoding, CustomMultiBitLevels)
{
    auto enc = chan::Encoding::multiBit({0, 2, 4, 6, 8, 1, 3, 5});
    EXPECT_EQ(enc.bitsPerSymbol(), 3u);
    EXPECT_EQ(enc.symbols(), 8u);
    EXPECT_EQ(enc.maxLevel(), 8u);
}

TEST(Encoding, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT((void)chan::Encoding::multiBit({0, 1, 2}),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(Hierarchy, LlcServesAfterL2Eviction)
{
    Rng rng(1);
    auto hp = sim::xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    hp.l1.policy = sim::PolicyKind::TrueLru;
    hp.l2.policy = sim::PolicyKind::TrueLru;
    sim::Hierarchy h(hp, &rng);
    const auto &l2Layout = h.l2().layout();
    // Fill one L2 set past capacity; the earliest line stays in LLC.
    const unsigned ways = hp.l2.ways;
    for (Addr t = 1; t <= ways + 2; ++t)
        h.access(0, l2Layout.compose(100, t), false);
    EXPECT_FALSE(h.l2().contains(l2Layout.compose(100, 1)));
    EXPECT_TRUE(h.llc().contains(l2Layout.compose(100, 1)));
    // L1 also evicted it long ago (same L1 set): served by LLC now.
    auto res = h.access(0, l2Layout.compose(100, 1), false);
    EXPECT_EQ(res.servedBy, sim::Level::LLC);
    EXPECT_GE(res.latency, hp.lat.llcHit);
}

TEST(NoiseModel, MeasSigmaShape)
{
    sim::NoiseModel nm;
    EXPECT_DOUBLE_EQ(nm.measSigma(0), nm.measBaseSigma);
    EXPECT_GT(nm.measSigma(800), nm.measSigma(5500));
    EXPECT_NEAR(nm.measSigma(1800),
                nm.measBaseSigma + nm.measRateSigma / 1800.0, 1e-12);
}

TEST(EvictionProbe, AllImpliesAny)
{
    Rng rng(9);
    sim::EvictionProbeConfig cfg;
    cfg.policy = sim::PolicyKind::RandomIid;
    cfg.dirtyLines = 3;
    cfg.replacementSize = 10;
    auto res = sim::runEvictionProbe(cfg, 2000, rng);
    EXPECT_LE(res.probAllDirtyEvicted, res.probAnyDirtyEvicted);
    EXPECT_GT(res.probAnyDirtyEvicted, 0.0);
}

TEST(TransmitString, LongMessageMultiBit)
{
    chan::ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.protocol.ts = cfg.protocol.tr = 5500;
    cfg.protocol.encoding = chan::Encoding::paperTwoBit();
    cfg.calibration.measurements = 60;
    cfg.seed = 13;
    const std::string msg =
        "A longer message spanning many symbols to exercise framing.";
    EXPECT_EQ(chan::transmitString(cfg, msg), msg);
}

TEST(BitVec, UintEdges)
{
    EXPECT_EQ(toUint(fromUint(~0ull, 64)), ~0ull);
    EXPECT_EQ(toUint(fromUint(0, 64)), 0ull);
    EXPECT_EQ(fromUint(5, 0).size(), 0u);
    EXPECT_EQ(toUint({}), 0ull);
}

TEST(Samples, PercentileEdgeRanks)
{
    Samples s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
}

TEST(Cache, FilledByTracksThread)
{
    sim::CacheParams p;
    p.ways = 2;
    p.sizeBytes = 2 * 64;
    sim::Cache c(p, nullptr);
    c.fill(0x0, 3, false);
    auto lines = c.setContents(0);
    bool found = false;
    for (const auto &l : lines)
        if (l.valid) {
            EXPECT_EQ(l.filledBy, 3u);
            found = true;
        }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace wb
