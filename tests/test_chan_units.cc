/**
 * @file
 * Unit tests for the channel building blocks: set mapping, pointer
 * chase, modulation/classifier and calibration.
 */

#include <gtest/gtest.h>

#include <set>

#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/l2_channel.hh"
#include "chan/modulation.hh"
#include "chan/multiset.hh"
#include "chan/pointer_chase.hh"
#include "chan/set_mapping.hh"
#include "placement_configs.hh"

namespace wb::chan
{
namespace
{

TEST(SetMapping, AllLinesMapToTargetSet)
{
    sim::AddressLayout layout(64);
    const auto lines = linesForSet(layout, 13, 10);
    ASSERT_EQ(lines.size(), 10u);
    for (Addr a : lines)
        EXPECT_EQ(layout.setIndex(a), 13u);
}

TEST(SetMapping, DistinctTags)
{
    sim::AddressLayout layout(64);
    const auto lines = linesForSet(layout, 5, 16);
    std::set<Addr> tags;
    for (Addr a : lines)
        tags.insert(layout.tag(a));
    EXPECT_EQ(tags.size(), 16u);
}

TEST(SetMapping, ChannelSetsDisjoint)
{
    sim::AddressLayout layout(64);
    const auto sets = makeChannelSets(layout, 13, 8, 10);
    EXPECT_EQ(sets.senderLines.size(), 8u);
    EXPECT_EQ(sets.replacementA.size(), 10u);
    EXPECT_EQ(sets.replacementB.size(), 10u);
    std::set<Addr> all;
    for (const auto *pool :
         {&sets.senderLines, &sets.replacementA, &sets.replacementB})
        for (Addr a : *pool)
            all.insert(a);
    EXPECT_EQ(all.size(), 28u); // no overlap anywhere
    for (Addr a : all)
        EXPECT_EQ(layout.setIndex(a), 13u);
}

// An out-of-range set index would be ORed into the tag bits and land
// the lines on another set: every runner refuses it, naming the knob.

TEST(SetRange, RejectsL1TargetSetBeyondTheCache)
{
    ChannelConfig cfg;
    cfg.protocol.targetSet = cfg.platform.l1.numSets();
    EXPECT_DEATH((void)runChannel(cfg), "ProtocolConfig::targetSet = 64");
}

TEST(SetRange, RejectsLlcTargetSetBeyondTheCache)
{
    CrossCoreChannelConfig cfg;
    cfg.targetLlcSet = cfg.platform.llc.numSets();
    EXPECT_DEATH((void)runCrossCoreChannel(cfg),
                 "CrossCoreChannelConfig::targetLlcSet");
}

TEST(SetRange, RejectsL2TargetSetBeyondTheCache)
{
    ChannelConfig cfg = test::l2Config();
    cfg.protocol.targetSet = cfg.platform.l2.numSets() + 137;
    EXPECT_DEATH((void)runL2Channel(cfg), "ProtocolConfig::targetSet = 649");
}

TEST(SetRange, RejectsAnL2WithNoPusherSet)
{
    // An L2 with as many sets as the L1 puts no other L2 set on the
    // target's L1 set: the pusher search used to spin forever.
    ChannelConfig cfg = test::l2Config();
    cfg.protocol.targetSet = 13;
    cfg.platform.l2.sizeBytes = 64 * cfg.platform.l2.ways * 64;
    EXPECT_DEATH((void)runL2Channel(cfg),
                 "the L2 has 64 sets, no more than the L1's 64");
}

TEST(SetRange, RejectsMultiSetStripesThatReuseASet)
{
    ChannelConfig cfg = test::multiSetConfig();
    // Stripe 8 would land on set 8 again.
    EXPECT_DEATH((void)runMultiSetChannel(cfg, 9), "setCount = 9");
    cfg.protocol.targetSet = 72; // wraps onto set 8
    EXPECT_DEATH((void)runMultiSetChannel(cfg, 4),
                 "ProtocolConfig::targetSet = 72");
}

// The L2 wiring would place noise processes on L1 set targetSet, but
// that is an L2 index there: the runner refuses them, naming the field.
TEST(L2Channel, RejectsNoiseProcesses)
{
    ChannelConfig cfg = test::l2Config();
    cfg.noiseProcesses = 1;
    EXPECT_DEATH((void)runL2Channel(cfg),
                 "ChannelConfig::noiseProcesses = 1");
}

// The parties and their noise processes share one Scheduler party
// front-end and its thread ids: the wiring names the field past them.
TEST(SameCoreWiring, RejectsMoreNoiseProcessesThanThreadIds)
{
    ChannelConfig cfg;
    cfg.protocol.frames = 1;
    cfg.calibration.measurements = 40;
    cfg.noiseProcesses = 7;
    EXPECT_DEATH((void)runChannel(cfg), "ChannelConfig::noiseProcesses = 7");
}

TEST(L2Channel, RejectsAMultiBitEncoding)
{
    // Both placements read d off a binary encoding.
    ChannelConfig l2 = test::l2Config();
    ChannelConfig multi = test::multiSetConfig();
    l2.protocol.encoding = multi.protocol.encoding = Encoding::paperTwoBit();
    EXPECT_DEATH((void)runL2Channel(l2), "encoding must be binary");
    EXPECT_DEATH((void)runMultiSetChannel(multi), "encoding must be binary");
}

TEST(PointerChase, MeasurementOpsShape)
{
    sim::AddressLayout layout(64);
    PointerChase chase(linesForSet(layout, 3, 10));
    const auto ops = chase.measurementOps();
    ASSERT_EQ(ops.size(), 12u);
    EXPECT_EQ(ops.front().kind, sim::MemOp::Kind::TscRead);
    EXPECT_EQ(ops.back().kind, sim::MemOp::Kind::TscRead);
    for (std::size_t i = 1; i + 1 < ops.size(); ++i)
        EXPECT_EQ(ops[i].kind, sim::MemOp::Kind::Load);
}

TEST(PointerChase, ReshuffleIsPermutation)
{
    sim::AddressLayout layout(64);
    const auto lines = linesForSet(layout, 3, 10);
    PointerChase chase(lines);
    Rng rng(3);
    chase.reshuffle(rng);
    auto shuffled = chase.order();
    std::set<Addr> a(lines.begin(), lines.end());
    std::set<Addr> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(Encoding, Binary)
{
    const Encoding enc = Encoding::binary(5);
    EXPECT_EQ(enc.bitsPerSymbol(), 1u);
    EXPECT_EQ(enc.symbols(), 2u);
    EXPECT_EQ(enc.level(0), 0u);
    EXPECT_EQ(enc.level(1), 5u);
    EXPECT_EQ(enc.maxLevel(), 5u);
}

TEST(Encoding, PaperTwoBit)
{
    const Encoding enc = Encoding::paperTwoBit();
    EXPECT_EQ(enc.bitsPerSymbol(), 2u);
    EXPECT_EQ(enc.symbols(), 4u);
    EXPECT_EQ(enc.level(0), 0u);
    EXPECT_EQ(enc.level(1), 3u);
    EXPECT_EQ(enc.level(2), 5u);
    EXPECT_EQ(enc.level(3), 8u);
}

TEST(Encoding, SymbolAtReadsMsbFirst)
{
    const Encoding enc = Encoding::paperTwoBit();
    const BitVec bits = fromBitString("0111");
    EXPECT_EQ(enc.symbolAt(bits, 0), 1u); // "01"
    EXPECT_EQ(enc.symbolAt(bits, 2), 3u); // "11"
    EXPECT_EQ(enc.symbolAt(bits, 3), 2u); // "1" then padding 0
}

TEST(Encoding, SymbolBitsRoundtrip)
{
    const Encoding enc = Encoding::paperTwoBit();
    for (unsigned s = 0; s < enc.symbols(); ++s) {
        BitVec out;
        enc.appendSymbolBits(s, out);
        EXPECT_EQ(enc.symbolAt(out, 0), s);
    }
}

TEST(Classifier, MidpointThresholds)
{
    Classifier c({100.0, 120.0, 160.0});
    EXPECT_DOUBLE_EQ(c.threshold(0), 110.0);
    EXPECT_DOUBLE_EQ(c.threshold(1), 140.0);
    EXPECT_EQ(c.classify(95.0), 0u);
    EXPECT_EQ(c.classify(111.0), 1u);
    EXPECT_EQ(c.classify(139.0), 1u);
    EXPECT_EQ(c.classify(200.0), 2u);
}

TEST(Classifier, DegenerateCentroidsDontAbort)
{
    // Defended platforms collapse the distributions; the classifier
    // epsilon-separates them and decoding degrades to guessing.
    Classifier c({100.0, 100.0});
    EXPECT_EQ(c.classify(50.0), 0u);
    EXPECT_EQ(c.classify(150.0), 1u);
}

/** Calibration on a quiet platform: medians rise ~linearly with d. */
TEST(Calibration, MediansSeparateByDirtyPenalty)
{
    sim::HierarchyParams hp = sim::xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    sim::NoiseModel noise = sim::NoiseModel::quiet();
    CalibrationConfig cfg;
    cfg.measurements = 150;
    Rng rng(3);
    auto cal = calibrate(hp, noise, cfg, rng);
    ASSERT_EQ(cal.medianByD.size(), 9u);
    for (unsigned d = 1; d <= 8; ++d) {
        const double gap = cal.medianByD[d] - cal.medianByD[d - 1];
        // Paper Sec. V: each dirty line adds ~10 cycles (one dirty-
        // victim write-back penalty).
        EXPECT_NEAR(gap, double(hp.lat.l1DirtyEvictPenalty), 2.5)
            << "d=" << d;
    }
}

TEST(Calibration, ClassifiersFollowMedians)
{
    sim::HierarchyParams hp = sim::xeonE5_2650Params();
    hp.lat.noiseSigma = 0.0;
    CalibrationConfig cfg;
    cfg.measurements = 100;
    Rng rng(5);
    auto cal = calibrate(hp, sim::NoiseModel::quiet(), cfg, rng);

    auto bin = cal.binaryClassifier(8);
    EXPECT_DOUBLE_EQ(bin.centroid(0), cal.medianByD[0]);
    EXPECT_DOUBLE_EQ(bin.centroid(1), cal.medianByD[8]);

    auto multi = cal.classifierFor(Encoding::paperTwoBit());
    EXPECT_EQ(multi.symbols(), 4u);
    EXPECT_DOUBLE_EQ(multi.centroid(2), cal.medianByD[5]);
}

TEST(Calibration, DistributionsAreNarrow)
{
    sim::HierarchyParams hp = sim::xeonE5_2650Params();
    CalibrationConfig cfg;
    cfg.measurements = 300;
    Rng rng(7);
    sim::NoiseModel noise; // realistic noise
    auto cal = calibrate(hp, noise, cfg, rng);
    // Paper Fig. 4: bands are "relatively narrow and sufficiently
    // distinguishable": the d and d+2 distributions must not overlap
    // at the quartiles.
    for (unsigned d = 0; d + 2 <= 8; d += 2) {
        EXPECT_LT(cal.latencyByD[d].percentile(75),
                  cal.latencyByD[d + 2].percentile(25))
            << "d=" << d;
    }
}

} // namespace
} // namespace wb::chan
