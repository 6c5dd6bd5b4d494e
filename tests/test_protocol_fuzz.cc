/**
 * @file
 * Protocol fuzzing: perfect latency streams are corrupted with
 * controlled rates of flips, insertions and deletions; the decoder's
 * reported BER must track the injected corruption (within slack for
 * alignment effects) and never crash, for any corruption mix. A
 * protocol no run can carry fails with its field named instead.
 */

#include <gtest/gtest.h>

#include "baselines/lru_channel.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/protocol.hh"
#include "chan/transport.hh"
#include "common/rng.hh"
#include "stat_assert.hh"

namespace wb::chan
{
namespace
{

struct FuzzSpec
{
    double flipProb;
    double insertProb;
    double deleteProb;
    std::uint64_t seed;
};

class ProtocolFuzz : public ::testing::TestWithParam<FuzzSpec>
{
};

TEST_P(ProtocolFuzz, BerTracksInjectedCorruption)
{
    const FuzzSpec spec = GetParam();
    Rng rng(spec.seed);
    const unsigned frames = 12;
    const BitVec frame = randomFrame(112, rng);
    const Classifier cls({100.0, 200.0});

    // Perfect stream with a random lead-in.
    std::vector<double> lats(rng.below(40), 100.0);
    for (unsigned f = 0; f < frames; ++f)
        for (bool b : frame)
            lats.push_back(b ? 200.0 : 100.0);

    // Corrupt.
    std::vector<double> fuzzed;
    double injected = 0;
    for (double v : lats) {
        if (rng.chance(spec.deleteProb)) {
            injected += 1;
            continue; // lost sample
        }
        if (rng.chance(spec.insertProb)) {
            fuzzed.push_back(rng.chance(0.5) ? 100.0 : 200.0);
            injected += 1;
        }
        if (rng.chance(spec.flipProb)) {
            fuzzed.push_back(v > 150 ? 100.0 : 200.0);
            injected += 1;
        } else {
            fuzzed.push_back(v);
        }
    }

    auto dec = decodeTransmission(fuzzed, cls, Encoding::binary(1),
                                  frame, frames);
    const double injectedRate = injected / double(lats.size());

    if (injectedRate < 0.02) {
        // Light corruption: decoder must stay aligned and close.
        EXPECT_TRUE(dec.aligned);
        EXPECT_LE(dec.ber, injectedRate * 3 + 0.02);
    }
    // Universal invariants.
    EXPECT_GE(dec.ber, 0.0);
    EXPECT_LE(dec.ber, 1.0);
    EXPECT_LE(dec.framesScored, frames);
    EXPECT_EQ(dec.breakdown.substitutions + dec.breakdown.insertions +
                  dec.breakdown.deletions,
              dec.breakdown.distance);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ProtocolFuzz,
    ::testing::Values(FuzzSpec{0.0, 0.0, 0.0, 1},
                      FuzzSpec{0.005, 0.0, 0.0, 2},
                      FuzzSpec{0.0, 0.005, 0.0, 3},
                      FuzzSpec{0.0, 0.0, 0.005, 4},
                      FuzzSpec{0.01, 0.002, 0.002, 5},
                      FuzzSpec{0.05, 0.01, 0.01, 6},
                      FuzzSpec{0.15, 0.03, 0.03, 7},
                      FuzzSpec{0.4, 0.1, 0.1, 8},
                      FuzzSpec{0.0, 0.2, 0.0, 9},
                      FuzzSpec{0.0, 0.0, 0.2, 10}));

TEST(ProtocolFuzz, SurvivesPathologicalStreams)
{
    const Classifier cls({100.0, 200.0});
    Rng rng(11);
    const BitVec frame = randomFrame(112, rng);
    // All-high, all-low, alternating, tiny, giant-constant streams.
    std::vector<std::vector<double>> streams = {
        std::vector<double>(500, 200.0),
        std::vector<double>(500, 100.0),
        {},
        {150.0},
        std::vector<double>(5000, 149.9),
    };
    std::vector<double> alt;
    for (int i = 0; i < 600; ++i)
        alt.push_back(i % 2 ? 200.0 : 100.0);
    streams.push_back(alt);
    for (const auto &s : streams) {
        auto dec = decodeTransmission(s, cls, Encoding::binary(1),
                                      frame, 4);
        EXPECT_GE(dec.ber, 0.0);
        EXPECT_LE(dec.ber, 1.0);
    }
}

// ------------------------------------------ transport-layer fuzzing
//
// The transport session is driven through a synthetic link that
// applies every corruption class the OS-noise scheduler produces in
// the real platform — bit flips, spurious insertions, dropped bits,
// gang freezes (a contiguous span of the burst vanishes while both
// parties are descheduled) and migrations (a freeze plus a permanent
// phase slip from the re-warmed receiver) — at rates far beyond the
// design point. The claims are bounded-resource claims: the session
// always terminates within its round cap, never exceeds the per-chunk
// retry budget, and never hands over a payload that fails its CRC;
// and pooled over >= 16 seeds per mix (Wilson, z = 2.576), light
// corruption still delivers while pure noise still fails honestly.

struct TransportFuzzSpec
{
    const char *name;
    double flipProb;
    double insertProb;
    double dropProb;
    unsigned freezes;      //!< gang freezes injected per burst
    std::size_t freezeSpan; //!< bits each freeze swallows
    double slipProb;       //!< migration: freeze + lasting phase slip
};

/** Apply the spec's corruption model to one burst. */
BitVec
corruptBurst(const BitVec &stream, const TransportFuzzSpec &spec,
             Rng &rng)
{
    BitVec bits;
    bits.reserve(stream.size());
    for (bool b : stream) {
        if (rng.chance(spec.dropProb))
            continue;
        if (rng.chance(spec.insertProb))
            bits.push_back(rng.flip());
        bits.push_back(rng.chance(spec.flipProb) ? !b : b);
    }
    for (unsigned f = 0; f < spec.freezes; ++f) {
        if (bits.size() <= spec.freezeSpan)
            break;
        const std::size_t at = rng.below(bits.size() - spec.freezeSpan);
        bits.erase(bits.begin() + static_cast<std::ptrdiff_t>(at),
                   bits.begin() +
                       static_cast<std::ptrdiff_t>(at + spec.freezeSpan));
    }
    if (rng.chance(spec.slipProb) && bits.size() > 100) {
        // Migration: everything after a random point arrives late by
        // a burst of junk bits (cold caches re-warming) on top of a
        // swallowed span.
        const std::size_t at = rng.below(bits.size() / 2);
        BitVec junk;
        for (int i = 0; i < 37; ++i)
            junk.push_back(rng.flip());
        bits.insert(bits.begin() + static_cast<std::ptrdiff_t>(at),
                    junk.begin(), junk.end());
    }
    return bits;
}

TransportConfig
fuzzTransport()
{
    TransportConfig cfg;
    cfg.enabled = true;
    cfg.layout.seqBits = 4;
    cfg.layout.payloadBits = 24;
    cfg.layout.crcWidth = 16; // fuzz streams are CRC-check heavy
    cfg.layout.interleaveDepth = 2;
    cfg.guardBits = 8;
    cfg.messageFrames = 5;
    cfg.windowFrames = 4;
    cfg.maxRetries = 4;
    cfg.maxRounds = 12;
    return cfg;
}

class TransportFuzz : public ::testing::TestWithParam<TransportFuzzSpec>
{
};

TEST_P(TransportFuzz, BoundedAndHonestUnderEveryMix)
{
    const TransportFuzzSpec spec = GetParam();
    const TransportConfig cfg = fuzzTransport();
    ProtocolConfig proto;

    const auto sweep = test::sweepSeeds([&](std::uint64_t seed) {
        Rng msgRng(seed ^ 0xabcdULL);
        BitVec msg;
        for (unsigned i = 0;
             i < cfg.messageFrames * cfg.layout.payloadBits; ++i)
            msg.push_back(msgRng.flip());

        const TransportLink link = [&spec](const BitVec &stream,
                                           const RateStep &rate,
                                           std::uint64_t linkSeed) {
            Rng rng(linkSeed);
            LinkRun run;
            run.bits = corruptBurst(stream, spec, rng);
            run.simulatedCycles = stream.size() * rate.ts;
            return run;
        };
        const TransportResult res =
            runTransportSession(cfg, proto, msg, link, seed);

        // Bounded resources, whatever the corruption did.
        EXPECT_LE(res.rounds, cfg.maxRounds);
        EXPECT_LE(res.framesSent,
                  std::uint64_t(res.framesTotal) * (cfg.maxRetries + 1));
        EXPECT_EQ(res.framesDelivered + res.framesFailed,
                  res.framesTotal);
        // Honesty: every delivered payload was CRC-validated.
        EXPECT_EQ(res.residualBitErrors, 0u);
        return test::Proportion{double(res.framesDelivered),
                                double(res.framesTotal)};
    });

    const bool light = spec.flipProb <= 0.01 && spec.insertProb <= 0.01 &&
                       spec.dropProb <= 0.01 && spec.freezes <= 1;
    if (light) {
        // Light corruption: the ARQ must push most frames through.
        EXPECT_ACCURACY_ABOVE(sweep, 0.5);
    }
    if (spec.flipProb >= 0.45) {
        // Pure noise: deliveries must stay rare — a transport that
        // "delivers" from garbage is lying about validation.
        EXPECT_ACCURACY_BELOW(sweep, 0.1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, TransportFuzz,
    ::testing::Values(
        TransportFuzzSpec{"clean", 0.0, 0.0, 0.0, 0, 0, 0.0},
        TransportFuzzSpec{"flips", 0.01, 0.0, 0.0, 0, 0, 0.0},
        TransportFuzzSpec{"inserts", 0.0, 0.01, 0.0, 0, 0, 0.0},
        TransportFuzzSpec{"drops", 0.0, 0.0, 0.01, 0, 0, 0.0},
        TransportFuzzSpec{"one-freeze", 0.002, 0.0, 0.0, 1, 50, 0.0},
        TransportFuzzSpec{"gang-freezes", 0.005, 0.001, 0.001, 3, 80,
                          0.0},
        TransportFuzzSpec{"migrations", 0.005, 0.001, 0.001, 1, 60,
                          0.5},
        TransportFuzzSpec{"everything", 0.03, 0.01, 0.01, 2, 70, 0.3},
        TransportFuzzSpec{"pure-noise", 0.5, 0.05, 0.05, 2, 100, 0.5}),
    [](const ::testing::TestParamInfo<TransportFuzzSpec> &info) {
        std::string name = info.param.name;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** One bad ProtocolConfig value and the message naming it. */
struct BadProtocol
{
    const char *message;
    void (*apply)(ProtocolConfig &);
};

/**
 * A protocol value no run can carry is fatal with the field named, on
 * the same-core and cross-core placements and a baseline: a frame at
 * or below the 16-bit preamble (frameBits = 8 once asked for 2^32 - 8
 * payload bits and never returned), a frame of partial symbols, a
 * zero Ts or Tr (a transport session with Ts = 0 divided by zero), and
 * a single shot of zero frames.
 */
TEST(ProtocolConfigCheck, BadValueIsFatalAndNamed)
{
    const BadProtocol cases[] = {
        {"ProtocolConfig::frameBits = 8",
         [](ProtocolConfig &p) { p.frameBits = 8; }},
        {"ProtocolConfig::frameBits = 16",
         [](ProtocolConfig &p) { p.frameBits = 16; }},
        {"ProtocolConfig::ts = 0", [](ProtocolConfig &p) { p.ts = 0; }},
        {"ProtocolConfig::tr = 0", [](ProtocolConfig &p) { p.tr = 0; }},
        {"ProtocolConfig::frames = 0",
         [](ProtocolConfig &p) { p.frames = 0; }},
    };
    for (const BadProtocol &c : cases) {
        ChannelConfig same;
        c.apply(same.protocol);
        EXPECT_EXIT((void)runChannel(same), ::testing::ExitedWithCode(1),
                    c.message)
            << "same-core";

        CrossCoreChannelConfig cross;
        cross.usePlatform("desktop-inclusive-4core");
        c.apply(cross.protocol);
        EXPECT_EXIT((void)runCrossCoreChannel(cross),
                    ::testing::ExitedWithCode(1), c.message)
            << "cross-core";

        ChannelConfig lru;
        c.apply(lru.protocol);
        EXPECT_EXIT((void)baselines::runLruChannel(lru),
                    ::testing::ExitedWithCode(1), c.message)
            << "LRU baseline";
    }

    // A transport session divides by Ts before it builds a Pass.
    ChannelConfig transport;
    transport.transport.enabled = true;
    transport.protocol.ts = 0;
    EXPECT_EXIT((void)runTransport(transport), ::testing::ExitedWithCode(1),
                "ProtocolConfig::ts = 0");

    // Two-bit symbols: a 65-bit frame ends in half a symbol.
    ChannelConfig twoBit;
    twoBit.protocol.encoding = Encoding::paperTwoBit();
    twoBit.protocol.frameBits = 65;
    EXPECT_EXIT((void)runChannel(twoBit), ::testing::ExitedWithCode(1),
                "ProtocolConfig::frameBits = 65");
}

} // namespace
} // namespace wb::chan
