#include "chan/pipeline.hh"

#include <algorithm>

#include "chan/degraded.hh"

namespace wb::chan::pipeline
{

namespace
{

/** Run @p copies copies of @p bits, each symbol held for the
 *  pass's repetition factor. */
RawRun
modulate(const Pass &pass, const BitVec &bits, unsigned copies)
{
    const std::vector<unsigned> symbols = frameToLevels(bits, pass.encoding);
    std::vector<unsigned> levels;
    levels.reserve(symbols.size() * copies * pass.repetition);
    for (unsigned c = 0; c < copies; ++c) {
        for (const unsigned lvl : symbols)
            levels.insert(levels.end(), pass.repetition, lvl);
    }
    return pass.run(levels);
}

/**
 * The bits the receiver reads. Under repetition it classifies block
 * means against mean centroids: the dithered samples' median is a
 * point mass, their mean the unbiased true latency (chan/degraded.hh).
 */
BitVec
receivedBits(const RawRun &raw, const Pass &pass)
{
    const Calibration &cal = raw.calibration;
    const Classifier classifier =
        pass.repetition > 1 ? cal.meanClassifierFor(pass.encoding)
                            : cal.classifierFor(pass.encoding);
    return symbolsToBits(
        classifyAll(collapseRepetition(raw.latencies, pass.repetition),
                    classifier),
        pass.encoding);
}

} // namespace

ChannelResult
runFrames(const Pass &pass, const BitVec &frame, unsigned frames)
{
    RawRun raw = modulate(pass, frame, frames);
    const DecodeResult dec =
        scoreFrames(receivedBits(raw, pass), frame, frames);

    ChannelResult res = std::move(static_cast<ChannelResult &>(raw));
    res.repetition = pass.repetition;
    res.closed = raw.calibration.closedFor(pass.encoding);
    res.ber = dec.ber;
    res.breakdown = dec.breakdown;
    res.aligned = dec.aligned;
    res.framesScored = dec.framesScored;
    res.framesExpected = dec.framesExpected;
    // Goodput honesty: repetition amplification spends rep slots per
    // symbol, so the effective rate divides by it (docs/OBSERVERS.md).
    res.rateKbps = pass.rateKbps / double(pass.repetition);
    res.goodputKbps = res.rateKbps * (1.0 - std::min(1.0, res.ber));
    res.sentFrame = frame;
    res.decodedBits = dec.bitstream;
    res.calibrationMedians = std::move(raw.calibration.medianByD);
    return res;
}

LinkRun
runBurst(const Pass &pass, const BitVec &stream)
{
    BitVec padded = stream;
    while (padded.size() % pass.encoding.bitsPerSymbol() != 0)
        padded.push_back(false);
    const RawRun raw = modulate(pass, padded, 1);

    LinkRun run;
    run.bits = receivedBits(raw, pass);
    run.simulatedCycles = raw.simulatedCycles;
    run.schedulerStats = raw.schedulerStats;
    run.closed = raw.calibration.closedFor(pass.encoding);
    return run;
}

BitVec
randomMessage(const TransportConfig &t, std::uint64_t seed)
{
    Rng msgRng(seed ^ 0x7ea45007ULL);
    return randomBits(std::size_t(t.messageFrames) * t.layout.payloadBits,
                      msgRng);
}

} // namespace wb::chan::pipeline
