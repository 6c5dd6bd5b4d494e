/**
 * @file
 * Transport-layer tests: framing/CRC/ARQ units, FrameSync recovery on
 * synthetic corruption, rate-controller hysteresis, end-to-end sessions
 * over synthetic links, transport-off equivalence with the legacy
 * runners, and the headline statistical claim — under the party-core
 * time-sharing noise regime that collapses the single-shot cross-core
 * channel (docs/SCHEDULER.md), the transport still delivers frames
 * with a Wilson lower bound above zero.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "chan/arq.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/multiset.hh"
#include "chan/transport.hh"
#include "common/rng.hh"
#include "placement_configs.hh"
#include "sim/platform.hh"
#include "stat_assert.hh"

namespace wb::chan
{
namespace
{

// ---------------------------------------------------------------- CRC

TEST(Crc, RoundTripsBothWidths)
{
    Rng rng(1);
    for (unsigned width : {8u, 16u}) {
        for (int trial = 0; trial < 20; ++trial) {
            BitVec data;
            for (int i = 0; i < 40; ++i)
                data.push_back(rng.flip());
            const BitVec framed = appendCrc(data, width);
            EXPECT_EQ(framed.size(), data.size() + width);
            EXPECT_TRUE(checkCrc(framed, width));
        }
    }
}

TEST(Crc, DetectsEverySingleBitFlip)
{
    Rng rng(2);
    BitVec data;
    for (int i = 0; i < 30; ++i)
        data.push_back(rng.flip());
    const BitVec framed = appendCrc(data, 8);
    for (std::size_t i = 0; i < framed.size(); ++i) {
        BitVec bad = framed;
        bad[i] = !bad[i];
        EXPECT_FALSE(checkCrc(bad, 8)) << "missed flip at bit " << i;
    }
}

TEST(Crc, RejectsTooShortInput)
{
    EXPECT_FALSE(checkCrc(BitVec{true, false, true}, 8));
    EXPECT_FALSE(checkCrc(BitVec{}, 16));
}

// ------------------------------------------------------------- frames

FrameLayout
smallLayout()
{
    FrameLayout layout;
    layout.seqBits = 4;
    layout.payloadBits = 24;
    layout.crcWidth = 8;
    layout.interleaveDepth = 2;
    return layout;
}

TEST(TransportFrame, BuildParseRoundTrip)
{
    const FrameLayout layout = smallLayout();
    Rng rng(3);
    for (unsigned seq = 0; seq < layout.seqSpace(); ++seq) {
        BitVec payload;
        for (unsigned i = 0; i < layout.payloadBits; ++i)
            payload.push_back(rng.flip());
        const BitVec frame = buildTransportFrame(layout, seq, payload);
        ASSERT_EQ(frame.size(), layout.frameBits());
        // The raw preamble leads the frame.
        const BitVec pre = preamble16();
        for (std::size_t i = 0; i < 16; ++i)
            EXPECT_EQ(frame[i], pre[i]);
        const BitVec body(frame.begin() + 16, frame.end());
        const ParsedFrame parsed = parseTransportFrame(layout, body);
        EXPECT_TRUE(parsed.crcOk);
        EXPECT_EQ(parsed.seq, seq);
        EXPECT_EQ(parsed.payload, payload);
        EXPECT_EQ(parsed.fec.correctedBits, 0u);
    }
}

TEST(TransportFrame, FecCorrectsSingleFlipPerCodeword)
{
    const FrameLayout layout = smallLayout();
    Rng rng(4);
    BitVec payload;
    for (unsigned i = 0; i < layout.payloadBits; ++i)
        payload.push_back(rng.flip());
    const BitVec frame = buildTransportFrame(layout, 7, payload);
    BitVec body(frame.begin() + 16, frame.end());
    body[3] = !body[3]; // one flip inside the first codeword
    const ParsedFrame parsed = parseTransportFrame(layout, body);
    EXPECT_TRUE(parsed.crcOk);
    EXPECT_EQ(parsed.seq, 7u);
    EXPECT_EQ(parsed.payload, payload);
    EXPECT_EQ(parsed.fec.correctedBits, 1u);
}

TEST(TransportFrame, CrcRejectsHeavyCorruption)
{
    const FrameLayout layout = smallLayout();
    Rng rng(5);
    BitVec payload;
    for (unsigned i = 0; i < layout.payloadBits; ++i)
        payload.push_back(rng.flip());
    const BitVec frame = buildTransportFrame(layout, 2, payload);
    unsigned rejected = 0;
    for (int trial = 0; trial < 50; ++trial) {
        BitVec body(frame.begin() + 16, frame.end());
        for (auto &&bit : body)
            if (rng.chance(0.25))
                bit = !bit;
        if (!parseTransportFrame(layout, body).crcOk)
            ++rejected;
    }
    // At 25% flips the FEC is far beyond its budget; the CRC must
    // reject essentially everything (allow a rare undetected pass).
    EXPECT_GE(rejected, 48u);
}

TEST(TransportFrame, ShortBodyIsRejectedNotFatal)
{
    const FrameLayout layout = smallLayout();
    BitVec tiny(10, true);
    const ParsedFrame parsed = parseTransportFrame(layout, tiny);
    EXPECT_FALSE(parsed.crcOk);
}

// ---------------------------------------------------------- FEC stats

TEST(FecStats, ReportsCorrectionsAndTruncation)
{
    const HammingCode code(1);
    Rng rng(6);
    BitVec data;
    for (int i = 0; i < 16; ++i)
        data.push_back(rng.flip());
    BitVec coded = code.encode(data);
    coded[2] = !coded[2];  // codeword 0
    coded[9] = !coded[9];  // codeword 1
    FecStats stats;
    const BitVec decoded = code.decode(coded, &stats);
    EXPECT_EQ(decoded, data);
    EXPECT_EQ(stats.correctedBits, 2u);
    EXPECT_EQ(stats.truncatedBits, 0u);

    // A stream cut mid-codeword: the tail is reported, not swallowed.
    // 16 data bits -> 4 codewords -> 28 coded bits; dropping 3 leaves
    // three whole codewords plus a 4-bit tail.
    coded.resize(coded.size() - 3);
    FecStats cut;
    code.decode(coded, &cut);
    EXPECT_EQ(cut.truncatedBits, 4u);
}

TEST(FecStatsDeathTest, SilentTruncationIsFatal)
{
    const HammingCode code(1);
    BitVec coded = code.encode(BitVec(8, true));
    coded.pop_back(); // now a partial trailing codeword
    EXPECT_DEATH((void)code.decode(coded),
                 "pass a FecStats sink");
}

// ----------------------------------------------------------------- ARQ

TEST(SelectiveRepeat, DeliversAndCountsRetries)
{
    SelectiveRepeatArq arq(3, /*maxRetries=*/2);
    EXPECT_FALSE(arq.done());
    EXPECT_EQ(arq.pending(), (std::vector<unsigned>{0, 1, 2}));

    arq.onDelivered(1);
    arq.onRoundEnd({0, 1, 2});
    EXPECT_EQ(arq.pending(), (std::vector<unsigned>{0, 2}));
    EXPECT_EQ(arq.delivered(), 1u);
    EXPECT_EQ(arq.retransmissions(), 0u);
    EXPECT_EQ(arq.attempts(), 3u);

    arq.onDelivered(0);
    arq.onDelivered(0); // duplicate: no-op
    arq.onRoundEnd({0, 2});
    EXPECT_EQ(arq.delivered(), 2u);
    EXPECT_EQ(arq.retransmissions(), 2u);

    arq.onRoundEnd({2}); // third attempt for chunk 2: out of retries
    EXPECT_TRUE(arq.done());
    EXPECT_EQ(arq.failed(), 1u);
    EXPECT_FALSE(arq.isDelivered(2));
    EXPECT_TRUE(arq.isDelivered(0));
}

TEST(SelectiveRepeat, BoundedAttemptsPerChunk)
{
    SelectiveRepeatArq arq(1, /*maxRetries=*/3);
    unsigned rounds = 0;
    while (!arq.done() && rounds < 100) {
        arq.onRoundEnd({0});
        ++rounds;
    }
    EXPECT_EQ(rounds, 4u) << "maxRetries+1 attempts, then failed";
    EXPECT_EQ(arq.failed(), 1u);
}

// ---------------------------------------------------------- rate ladder

TEST(RateLadder, MultiBitFallsBackThenSlows)
{
    ProtocolConfig proto;
    proto.ts = proto.tr = 4000;
    proto.encoding = Encoding::paperTwoBit(); // 2-bit symbols
    const auto ladder = rateLadder(proto, 2);
    ASSERT_EQ(ladder.size(), 4u);
    EXPECT_EQ(ladder[0].ts, 4000u);
    EXPECT_EQ(ladder[0].encoding.bitsPerSymbol(), 2u);
    EXPECT_EQ(ladder[1].ts, 4000u);
    EXPECT_EQ(ladder[1].encoding.bitsPerSymbol(), 1u);
    EXPECT_EQ(ladder[2].ts, 8000u);
    EXPECT_EQ(ladder[3].ts, 16000u);
    // Monotone raw rate.
    for (std::size_t i = 1; i < ladder.size(); ++i)
        EXPECT_LT(ladder[i].rateKbps(2.2), ladder[i - 1].rateKbps(2.2));
}

TEST(RateLadder, BinaryOnlyDoubles)
{
    ProtocolConfig proto;
    proto.ts = proto.tr = 5500;
    proto.encoding = Encoding::binary(1);
    const auto ladder = rateLadder(proto, 3);
    ASSERT_EQ(ladder.size(), 4u);
    EXPECT_EQ(ladder[3].ts, 44000u);
}

TEST(RateLadder, ShrinksSignalBeforeSlowing)
{
    ProtocolConfig proto;
    proto.ts = proto.tr = 4000;
    proto.encoding = Encoding::binary(4);
    const auto ladder = rateLadder(proto, 2, /*signalShrinks=*/2);
    // binary(4) -> binary(2) -> binary(1), all at the native pacing,
    // and only then the Ts doublings (at the shrunken footprint).
    ASSERT_EQ(ladder.size(), 5u);
    EXPECT_EQ(ladder[0].ts, 4000u);
    EXPECT_EQ(ladder[0].encoding.maxLevel(), 4u);
    EXPECT_EQ(ladder[1].ts, 4000u);
    EXPECT_EQ(ladder[1].encoding.maxLevel(), 2u);
    EXPECT_EQ(ladder[2].ts, 4000u);
    EXPECT_EQ(ladder[2].encoding.maxLevel(), 1u);
    EXPECT_EQ(ladder[3].ts, 8000u);
    EXPECT_EQ(ladder[3].encoding.maxLevel(), 1u);
    EXPECT_EQ(ladder[4].ts, 16000u);
    // Same-Ts rungs keep the Tr:Ts ratio arithmetic exact — the
    // footprint rungs must never move the pacing.
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(ladder[i].ts, proto.ts);
}

TEST(RateLadder, MultiBitShrinksAfterFallback)
{
    ProtocolConfig proto;
    proto.ts = proto.tr = 4000;
    proto.encoding = Encoding::paperTwoBit(); // maxLevel 8
    const auto ladder = rateLadder(proto, 1, /*signalShrinks=*/2);
    // native 2-bit -> binary(4) fallback -> binary(2) -> binary(1)
    // -> one doubling.
    ASSERT_EQ(ladder.size(), 5u);
    EXPECT_EQ(ladder[1].encoding.bitsPerSymbol(), 1u);
    EXPECT_EQ(ladder[1].encoding.maxLevel(), 4u);
    EXPECT_EQ(ladder[2].encoding.maxLevel(), 2u);
    EXPECT_EQ(ladder[3].encoding.maxLevel(), 1u);
    EXPECT_EQ(ladder[3].ts, 4000u);
    EXPECT_EQ(ladder[4].ts, 8000u);
}

TEST(RateLadder, ShrinkStopsAtOneDirtyLine)
{
    ProtocolConfig proto;
    proto.ts = proto.tr = 5500;
    proto.encoding = Encoding::binary(1);
    // A huge shrink budget adds nothing below d = 1: the ladder is
    // identical to the pacing-only one.
    const auto ladder = rateLadder(proto, 2, /*signalShrinks=*/8);
    ASSERT_EQ(ladder.size(), 3u);
    EXPECT_EQ(ladder[1].ts, 11000u);
    EXPECT_EQ(ladder[2].ts, 22000u);
}

TEST(RateController, DegradesFastUpgradesWithHysteresis)
{
    TransportConfig cfg;
    cfg.degradeFer = 0.5;
    cfg.upgradeFer = 0.125;
    cfg.upgradeAfterRounds = 2;
    RateController ctl(cfg, /*ladderSize=*/4);
    EXPECT_EQ(ctl.level(), 0u);

    ctl.onRound(0.6, 0.0); // bad round: one rung down immediately
    EXPECT_EQ(ctl.level(), 1u);
    ctl.onRound(1.0, 0.0);
    ctl.onRound(1.0, 0.0);
    ctl.onRound(1.0, 0.0); // clamped at the ladder floor
    EXPECT_EQ(ctl.level(), 3u);

    ctl.onRound(0.0, 0.0); // one good round is not enough...
    EXPECT_EQ(ctl.level(), 3u);
    ctl.onRound(0.0, 0.0); // ...two consecutive are
    EXPECT_EQ(ctl.level(), 2u);

    ctl.onRound(0.0, 0.0);
    ctl.onRound(0.3, 0.0); // middling round resets the streak
    ctl.onRound(0.0, 0.0);
    EXPECT_EQ(ctl.level(), 2u);

    // High FEC correction density degrades even with perfect FER.
    ctl.onRound(0.0, 0.2);
    EXPECT_EQ(ctl.level(), 3u);
}

TEST(RateController, DisabledHoldsLevel)
{
    TransportConfig cfg;
    cfg.adaptiveRate = false;
    RateController ctl(cfg, 4);
    ctl.onRound(1.0, 1.0);
    EXPECT_EQ(ctl.level(), 0u);
}

// ------------------------------------------------------------ FrameSync

/** Concatenate @p n frames with @p guard zero bits between them. */
BitVec
cleanStream(const FrameLayout &layout, unsigned n, unsigned guard,
            Rng &rng)
{
    BitVec stream;
    for (unsigned f = 0; f < n; ++f) {
        BitVec payload;
        for (unsigned i = 0; i < layout.payloadBits; ++i)
            payload.push_back(rng.flip());
        const BitVec frame =
            buildTransportFrame(layout, f % layout.seqSpace(), payload);
        stream.insert(stream.end(), frame.begin(), frame.end());
        stream.insert(stream.end(), guard, false);
    }
    return stream;
}

TEST(FrameSyncScan, LocatesEveryCleanFrame)
{
    const FrameLayout layout = smallLayout();
    const unsigned guard = 8;
    Rng rng(7);
    const BitVec stream = cleanStream(layout, 6, guard, rng);
    const std::size_t stride = layout.frameBits() + guard;
    const FrameSync sync(1, 2, 24, stride);
    const auto scan = sync.scan(stream);
    ASSERT_EQ(scan.frameStarts.size(), 6u);
    for (unsigned f = 0; f < 6; ++f)
        EXPECT_EQ(scan.frameStarts[f], f * stride);
    EXPECT_EQ(scan.syncLosses, 0u);
    EXPECT_EQ(scan.resyncs, 0u);
}

TEST(FrameSyncScan, ReacquiresAfterDeletedSpan)
{
    const FrameLayout layout = smallLayout();
    const unsigned guard = 8;
    Rng rng(8);
    BitVec stream = cleanStream(layout, 6, guard, rng);
    const std::size_t stride = layout.frameBits() + guard;
    // A gang freeze swallows frame 2 and most of frame 3: delete a
    // span far larger than the relock window.
    stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(2 * stride),
                 stream.begin() +
                     static_cast<std::ptrdiff_t>(3 * stride + 40));
    const FrameSync sync(1, 2, 24, stride);
    const auto scan = sync.scan(stream);
    // Frames 0, 1 before the hole; the scanner must lose lock at the
    // hole and re-acquire at least one of the surviving frames.
    EXPECT_GE(scan.frameStarts.size(), 4u);
    EXPECT_GE(scan.syncLosses, 1u);
    // Positions are strictly increasing (termination invariant).
    for (std::size_t i = 1; i < scan.frameStarts.size(); ++i)
        EXPECT_GT(scan.frameStarts[i], scan.frameStarts[i - 1]);
}

TEST(FrameSyncScan, AbsorbsSmallPhaseSlip)
{
    const FrameLayout layout = smallLayout();
    const unsigned guard = 8;
    Rng rng(9);
    BitVec stream = cleanStream(layout, 4, guard, rng);
    const std::size_t stride = layout.frameBits() + guard;
    // Insert 5 junk bits in the guard gap before frame 2: later
    // frames arrive 5 bits late, inside the relock window.
    stream.insert(stream.begin() +
                      static_cast<std::ptrdiff_t>(2 * stride - 2),
                  5, true);
    const FrameSync sync(1, 2, 24, stride);
    const auto scan = sync.scan(stream);
    ASSERT_EQ(scan.frameStarts.size(), 4u);
    EXPECT_EQ(scan.frameStarts[2], 2 * stride + 5);
    EXPECT_EQ(scan.frameStarts[3], 3 * stride + 5);
    EXPECT_GE(scan.resyncs, 1u);
    EXPECT_EQ(scan.syncLosses, 0u);
}

TEST(FrameSyncScan, TerminatesOnPathologicalStreams)
{
    const FrameLayout layout = smallLayout();
    const std::size_t stride = layout.frameBits() + 8;
    const FrameSync sync(1, 2, 24, stride);
    const BitVec pre = preamble16();
    std::vector<BitVec> streams = {
        {},                     // empty
        BitVec(10, true),       // shorter than a preamble
        BitVec(5000, false),    // no preamble anywhere
        BitVec(5000, true),
    };
    // All-preambles back to back: every offset nearly matches.
    BitVec dense;
    for (int i = 0; i < 300; ++i)
        dense.insert(dense.end(), pre.begin(), pre.end());
    streams.push_back(dense);
    for (const auto &s : streams) {
        const auto scan = sync.scan(s); // must return, not spin
        for (std::size_t i = 1; i < scan.frameStarts.size(); ++i)
            EXPECT_GT(scan.frameStarts[i], scan.frameStarts[i - 1]);
    }
}

// ------------------------------------------------- synthetic sessions

TransportConfig
smallTransport()
{
    TransportConfig cfg;
    cfg.enabled = true;
    cfg.layout = smallLayout();
    cfg.guardBits = 8;
    cfg.messageFrames = 6;
    cfg.windowFrames = 4;
    cfg.maxRetries = 3;
    cfg.maxRounds = 12;
    return cfg;
}

BitVec
randomMessage(std::size_t bits, std::uint64_t seed)
{
    Rng rng(seed);
    BitVec msg;
    for (std::size_t i = 0; i < bits; ++i)
        msg.push_back(rng.flip());
    return msg;
}

/** A link that flips each bit with probability @p flip and may drop a
 *  contiguous span each burst (a synthetic gang freeze). */
TransportLink
syntheticLink(double flip, std::size_t freezeSpan = 0)
{
    return [flip, freezeSpan](const BitVec &stream, const RateStep &rate,
                              std::uint64_t seed) {
        Rng rng(seed);
        BitVec bits = stream;
        for (auto &&b : bits)
            if (rng.chance(flip))
                b = !b;
        if (freezeSpan > 0 && bits.size() > freezeSpan) {
            const std::size_t at =
                rng.below(bits.size() - freezeSpan);
            bits.erase(bits.begin() + static_cast<std::ptrdiff_t>(at),
                       bits.begin() +
                           static_cast<std::ptrdiff_t>(at + freezeSpan));
        }
        LinkRun run;
        run.bits = std::move(bits);
        run.simulatedCycles = stream.size() * rate.ts;
        return run;
    };
}

TEST(TransportSession, CleanLinkDeliversEverythingFirstRound)
{
    const TransportConfig cfg = smallTransport();
    ProtocolConfig proto;
    const BitVec msg =
        randomMessage(cfg.messageFrames * cfg.layout.payloadBits, 10);
    const auto res =
        runTransportSession(cfg, proto, msg, syntheticLink(0.0), 10);
    EXPECT_EQ(res.framesTotal, 6u);
    EXPECT_EQ(res.framesDelivered, 6u);
    EXPECT_EQ(res.framesFailed, 0u);
    EXPECT_EQ(res.retransmissions, 0u);
    EXPECT_EQ(res.residualBitErrors, 0u);
    EXPECT_EQ(res.rounds, 2u) << "6 chunks through a 4-frame window";
    EXPECT_GT(res.goodputKbps, 0.0);
    EXPECT_EQ(res.finalRateLevel, 0u);
}

TEST(TransportSession, LossyLinkRetransmitsToFullDelivery)
{
    const TransportConfig cfg = smallTransport();
    ProtocolConfig proto;
    const BitVec msg =
        randomMessage(cfg.messageFrames * cfg.layout.payloadBits, 11);
    const auto res =
        runTransportSession(cfg, proto, msg, syntheticLink(0.01), 11);
    EXPECT_EQ(res.framesDelivered + res.framesFailed, res.framesTotal);
    // Delivered payloads are CRC-validated: zero residual errors.
    EXPECT_EQ(res.residualBitErrors, 0u);
    EXPECT_LE(res.rounds, cfg.maxRounds);
    EXPECT_GE(res.framesDelivered, 5u) << "1% flips is a mild link";
}

TEST(TransportSession, DeadLinkFailsHonestlyWithinBounds)
{
    const TransportConfig cfg = smallTransport();
    ProtocolConfig proto;
    const BitVec msg =
        randomMessage(cfg.messageFrames * cfg.layout.payloadBits, 12);
    // The link returns pure noise: nothing ever validates.
    const auto res =
        runTransportSession(cfg, proto, msg, syntheticLink(0.5), 12);
    EXPECT_EQ(res.framesDelivered, 0u);
    EXPECT_EQ(res.framesFailed, res.framesTotal);
    EXPECT_LE(res.rounds, cfg.maxRounds);
    // Retry budget: at most maxRetries+1 attempts per chunk.
    EXPECT_LE(res.framesSent,
              std::uint64_t(res.framesTotal) * (cfg.maxRetries + 1));
    EXPECT_EQ(res.goodputKbps, 0.0);
    // The controller slid down the ladder while everything failed.
    EXPECT_GT(res.finalRateLevel, 0u);
}

TEST(TransportSession, SurvivesGangFreezesViaResync)
{
    TransportConfig cfg = smallTransport();
    cfg.maxRounds = 16;
    cfg.maxRetries = 6; // each burst loses ~2 of 4 window frames
    ProtocolConfig proto;
    const BitVec msg =
        randomMessage(cfg.messageFrames * cfg.layout.payloadBits, 13);
    // Every burst loses an off-grid span (not a multiple of the frame
    // stride and beyond the relock window), so the frames behind the
    // hole only parse if FrameSync genuinely re-acquires alignment.
    const std::size_t stride = cfg.layout.frameBits() + cfg.guardBits;
    const std::size_t span = stride / 2 + 3;
    const auto res = runTransportSession(cfg, proto, msg,
                                         syntheticLink(0.002, span), 13);
    EXPECT_GE(res.framesDelivered, res.framesTotal - 1)
        << "resync failed to recover frames behind the freezes";
    EXPECT_EQ(res.residualBitErrors, 0u);
    EXPECT_GT(res.syncLosses + res.resyncs, 0u)
        << "the scanner never even noticed the holes";
}

TEST(TransportSession, AdaptiveRateStepsDownUnderSustainedNoise)
{
    TransportConfig cfg = smallTransport();
    cfg.maxRounds = 10;
    cfg.maxRetries = 9; // keep chunks alive long enough to adapt
    ProtocolConfig proto;
    const BitVec msg =
        randomMessage(cfg.messageFrames * cfg.layout.payloadBits, 14);
    const auto res =
        runTransportSession(cfg, proto, msg, syntheticLink(0.12), 14);
    EXPECT_GT(res.finalRateLevel, 0u);
    ASSERT_FALSE(res.rateLevelByRound.empty());
    EXPECT_EQ(res.rateLevelByRound.front(), 0u);
}

TEST(TransportSession, ReturnsTheDeliveredMessageWithFailedChunksZeroed)
{
    const TransportConfig cfg = smallTransport();
    ProtocolConfig proto;
    // Five bits short of whole chunks: the delivered message is as
    // long as the one sent, not the zero-padded chunk total.
    const std::size_t payloadBits = cfg.layout.payloadBits;
    const BitVec msg =
        randomMessage(cfg.messageFrames * payloadBits - 5, 15);

    const auto clean =
        runTransportSession(cfg, proto, msg, syntheticLink(0.0), 15);
    EXPECT_EQ(clean.deliveredMessage, msg);

    // A clean link that blanks every transmission of chunk 1's frame to
    // idle zeros: that chunk never validates and runs out of retries.
    const BitVec deadFrame = buildTransportFrame(
        cfg.layout, 1,
        BitVec(msg.begin() + static_cast<std::ptrdiff_t>(payloadBits),
               msg.begin() + static_cast<std::ptrdiff_t>(2 * payloadBits)));
    const TransportLink blanking = [deadFrame](const BitVec &stream,
                                               const RateStep &rate,
                                               std::uint64_t) {
        LinkRun run;
        run.bits = stream;
        const auto at = std::search(run.bits.begin(), run.bits.end(),
                                    deadFrame.begin(), deadFrame.end());
        if (at != run.bits.end())
            std::fill(at, at + static_cast<std::ptrdiff_t>(deadFrame.size()),
                      false);
        run.simulatedCycles = stream.size() * rate.ts;
        return run;
    };
    const auto lossy = runTransportSession(cfg, proto, msg, blanking, 16);
    EXPECT_EQ(lossy.framesFailed, 1u);
    EXPECT_EQ(lossy.framesDelivered, lossy.framesTotal - 1);
    BitVec expected = msg;
    std::fill(expected.begin() + static_cast<std::ptrdiff_t>(payloadBits),
              expected.begin() + static_cast<std::ptrdiff_t>(2 * payloadBits),
              false);
    EXPECT_EQ(lossy.deliveredMessage, expected);
}

TEST(TransportSession, RawRateIsTheFinalBurstsRate)
{
    const TransportConfig cfg = smallTransport();
    ProtocolConfig proto;
    const BitVec msg =
        randomMessage(cfg.messageFrames * cfg.layout.payloadBits, 17);
    const std::vector<RateStep> ladder =
        rateLadder(proto, cfg.maxSlowdownDoublings, cfg.signalShrinks);
    // Links whose bursts hold each symbol for R = 3, 4, 5, ... slots
    // and report the rung's rate over R: only the last burst counts.
    const auto repeating = [](TransportLink inner, unsigned &bursts) {
        return [inner, &bursts](const BitVec &stream, const RateStep &rate,
                                std::uint64_t seed) {
            LinkRun run = inner(stream, rate, seed);
            run.rateKbps = rate.rateKbps(ProtocolConfig{}.cpuGhz) /
                           double(3 + bursts++);
            return run;
        };
    };
    unsigned bursts = 0;
    const auto clean = runTransportSession(
        cfg, proto, msg, repeating(syntheticLink(0.0), bursts), 17);
    ASSERT_EQ(clean.rounds, 2u);
    EXPECT_EQ(clean.finalRateLevel, 0u);
    EXPECT_EQ(clean.rawRateKbps, ladder[0].rateKbps(proto.cpuGhz) / 4.0);

    // A burst that loses every frame steps the rate down after its
    // round: the session still reports the rung that burst ran at.
    TransportConfig once = cfg;
    once.maxRounds = 1;
    bursts = 0;
    const auto garbled = runTransportSession(
        once, proto, msg, repeating(syntheticLink(1.0), bursts), 17);
    ASSERT_EQ(garbled.rounds, 1u);
    EXPECT_EQ(garbled.framesDelivered, 0u);
    EXPECT_EQ(garbled.rateLevelByRound, std::vector<unsigned>{0});
    EXPECT_EQ(garbled.finalRateLevel, 1u);
    EXPECT_EQ(garbled.rawRateKbps, ladder[0].rateKbps(proto.cpuGhz) / 3.0);
}

TEST(TransportSession, CoarseTimerRawRateIsTheAlignedBurstRate)
{
    // The same-core transport under a coarse timer whose granule does
    // not divide Ts: each burst's plan paces at Ts rounded up to the
    // granule (5500 -> 6600 cycles) and holds every symbol for R
    // slots, and the raw rate counts both, as the single shot's
    // rateKbps does.
    ChannelConfig cfg;
    cfg.noise.observer =
        sim::ObserverModel::sandboxTimer(sim::kSandboxTimerGranule);
    cfg.protocol.repetitionOverride = 3;
    cfg.calibration.measurements = 40;
    cfg.seed = 3;
    cfg.transport.enabled = true;
    cfg.transport.layout.seqBits = 4;
    cfg.transport.layout.payloadBits = 24;
    cfg.transport.layout.interleaveDepth = 2;
    cfg.transport.messageFrames = 1;
    cfg.transport.windowFrames = 1;
    cfg.transport.maxRounds = 1;
    ASSERT_EQ(cfg.protocol.ts, 5500u);
    const TransportResult res = runTransport(cfg);
    ASSERT_EQ(res.rounds, 1u);
    ProtocolConfig aligned = cfg.protocol;
    aligned.ts = aligned.tr = 3 * sim::kSandboxTimerGranule;
    EXPECT_EQ(res.rawRateKbps, aligned.rateKbps() / 3.0);

    // With the transport off, the shot reports the same rate.
    cfg.transport.enabled = false;
    const ChannelResult shot = runChannel(cfg);
    EXPECT_EQ(shot.repetition, 3u);
    EXPECT_EQ(runTransport(cfg).rawRateKbps, shot.rateKbps);
    EXPECT_EQ(shot.rateKbps, res.rawRateKbps);
}

// ------------------------------------------- transport-off equivalence

ChannelConfig
tinyChannel()
{
    ChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.seed = 17;
    return cfg;
}

TEST(TransportOffEquivalence, SingleCoreMatchesLegacyRunner)
{
    const ChannelConfig cfg = tinyChannel();
    const ChannelResult direct = runChannel(cfg);
    const TransportResult off = runTransport(cfg);
    const TransportResult mapped =
        legacyTransportResult(direct, cfg.protocol);
    EXPECT_EQ(off.goodputKbps, mapped.goodputKbps);
    EXPECT_EQ(off.residualBer, mapped.residualBer);
    EXPECT_EQ(off.framesDelivered, mapped.framesDelivered);
    EXPECT_EQ(off.framesTotal, mapped.framesTotal);
    EXPECT_EQ(off.simulatedCycles, mapped.simulatedCycles);
    EXPECT_EQ(off.rounds, 1u);
}

TEST(TransportOffEquivalence, TransportFieldsAreInertWhenDisabled)
{
    const ChannelConfig cfg = tinyChannel();
    ChannelConfig tweaked = cfg;
    tweaked.transport.layout.payloadBits = 96;
    tweaked.transport.maxRetries = 9;
    tweaked.transport.windowFrames = 2;
    const ChannelResult a = runChannel(cfg);
    const ChannelResult b = runChannel(tweaked);
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.latencies, b.latencies);
    EXPECT_EQ(a.decodedBits, b.decodedBits);
    EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
}

TEST(TransportOffEquivalence, CrossCoreMatchesLegacyRunner)
{
    CrossCoreChannelConfig cfg;
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.seed = 19;
    const ChannelResult direct = runCrossCoreChannel(cfg);
    const TransportResult off = runCrossCoreTransport(cfg);
    const TransportResult mapped =
        legacyTransportResult(direct, cfg.protocol);
    EXPECT_EQ(off.goodputKbps, mapped.goodputKbps);
    EXPECT_EQ(off.residualBer, mapped.residualBer);
    EXPECT_EQ(off.framesDelivered, mapped.framesDelivered);
    EXPECT_EQ(off.simulatedCycles, mapped.simulatedCycles);
}

TEST(TransportOffEquivalence, MultiSetMatchesLegacyRunner)
{
    ChannelConfig cfg = test::multiSetConfig();
    cfg.protocol.frames = 2;
    cfg.calibration.measurements = 40;
    cfg.seed = 23;
    const ChannelResult direct = runMultiSetChannel(cfg, 4);
    const TransportResult off = runMultiSetTransport(
        cfg, randomMessage(cfg.transport.layout.payloadBits, 23), 4);
    const TransportResult mapped =
        legacyTransportResult(direct, cfg.protocol);
    EXPECT_EQ(off.goodputKbps, mapped.goodputKbps);
    EXPECT_EQ(off.rawRateKbps, mapped.rawRateKbps);
    EXPECT_EQ(off.residualBer, mapped.residualBer);
    EXPECT_EQ(off.framesDelivered, mapped.framesDelivered);
    EXPECT_EQ(off.framesTotal, mapped.framesTotal);
    EXPECT_EQ(off.simulatedCycles, mapped.simulatedCycles);
    EXPECT_EQ(off.rounds, 1u);
    EXPECT_TRUE(off.deliveredMessage.empty());
}

// --------------------------------------- the headline statistical claim

/**
 * The configuration where docs/SCHEDULER.md records the single-shot
 * collapse: desktop-inclusive-4core, three co-runners (one of which
 * time-shares a party core), the platform's tuned noise preset.
 */
CrossCoreChannelConfig
collapseConfig()
{
    CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.scheduler = sim::platform("desktop-inclusive-4core").noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(3);
    cfg.calibration.measurements = 40;
    cfg.transport.enabled = true;
    cfg.transport.layout = smallLayout();
    // Noise-regime streams are mostly garbage; thousands of candidate
    // frames get CRC-checked across the sweep, so the 8-bit CRC's
    // 1/256 false-accept rate is not small enough. 16 bits is.
    cfg.transport.layout.crcWidth = 16;
    cfg.transport.messageFrames = 4;
    cfg.transport.windowFrames = 4;
    cfg.transport.maxRetries = 3;
    cfg.transport.maxRounds = 6;
    return cfg;
}

TEST(TransportUnderOsNoise, DeliversFramesWhereSingleShotCollapses)
{
    const auto sweep = test::sweepSeeds([](std::uint64_t seed) {
        CrossCoreChannelConfig cfg = collapseConfig();
        cfg.seed = seed;
        const TransportResult res = runCrossCoreTransport(cfg);
        // Bounded-resource invariants hold per run, noise or not.
        EXPECT_LE(res.rounds, cfg.transport.maxRounds);
        EXPECT_LE(res.framesSent,
                  std::uint64_t(res.framesTotal) *
                      (cfg.transport.maxRetries + 1));
        EXPECT_EQ(res.residualBitErrors, 0u)
            << "a corrupted payload survived the CRC";
        return test::Proportion{double(res.framesDelivered),
                                double(res.framesTotal)};
    });
    // Statistically nonzero delivery: the Wilson lower bound of the
    // pooled delivery rate clears zero — the single-shot path under
    // the same regime sits at ~79% BER, i.e. no usable delivery.
    EXPECT_ACCURACY_ABOVE(sweep, 0.0);
}

} // namespace
} // namespace wb::chan
