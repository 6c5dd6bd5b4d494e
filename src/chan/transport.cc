#include "chan/transport.hh"

#include <algorithm>

#include "common/log.hh"

namespace wb::chan
{

namespace
{

/**
 * Per-round sub-seed: SplitMix64 finalizer over the session seed and
 * the round index, so round trajectories are independent but the
 * whole session replays bit for bit from one seed.
 */
std::uint64_t
roundSeed(std::uint64_t seed, unsigned round)
{
    std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (round + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Preamble mismatches of @p stream at @p off (16 where truncated). */
unsigned
preambleErrorsAt(const BitVec &stream, std::size_t off, const BitVec &pre)
{
    if (off + pre.size() > stream.size())
        return static_cast<unsigned>(pre.size());
    unsigned errors = 0;
    for (std::size_t i = 0; i < pre.size(); ++i)
        if (stream[off + i] != pre[i])
            ++errors;
    return errors;
}

} // namespace

std::vector<RateStep>
rateLadder(const ProtocolConfig &proto, unsigned maxDoublings,
           unsigned signalShrinks)
{
    std::vector<RateStep> ladder;
    ladder.push_back({proto.ts, proto.encoding});
    Encoding slow = proto.encoding;
    if (proto.encoding.bitsPerSymbol() > 1) {
        // Fall back to binary at the same pacing: fewer decision
        // thresholds, the widest latency gap the alphabet allows.
        slow = Encoding::binary(
            std::max(1u, std::min(4u, proto.encoding.maxLevel())));
        ladder.push_back({proto.ts, slow});
    }
    // Footprint rungs: halve the dirty-line count at unchanged
    // pacing, shedding per-slot work and cross-tenant collision
    // cross-section before shedding rate (see the header comment).
    for (unsigned s = 0; s < signalShrinks; ++s) {
        const unsigned d = slow.maxLevel() / 2;
        if (d < 1)
            break;
        slow = Encoding::binary(d);
        ladder.push_back({proto.ts, slow});
    }
    Cycles ts = proto.ts;
    for (unsigned d = 0; d < maxDoublings; ++d) {
        ts *= 2;
        ladder.push_back({ts, slow});
    }
    return ladder;
}

RateController::RateController(const TransportConfig &cfg,
                               unsigned ladderSize)
    : cfg_(cfg), top_(ladderSize == 0 ? 0 : ladderSize - 1)
{
}

void
RateController::onRound(double fer, double correctedFrac)
{
    if (!cfg_.adaptiveRate)
        return;
    const bool degraded = fer >= cfg_.degradeFer ||
                          correctedFrac >= cfg_.correctedDegradeFrac;
    if (degraded) {
        level_ = std::min(level_ + 1, top_);
        goodStreak_ = 0;
        return;
    }
    const bool good = fer <= cfg_.upgradeFer &&
                      correctedFrac < cfg_.correctedDegradeFrac / 2.0;
    if (!good) {
        goodStreak_ = 0; // middling round: hold the rate
        return;
    }
    if (level_ == 0)
        return;
    if (++goodStreak_ >= cfg_.upgradeAfterRounds) {
        --level_;
        goodStreak_ = 0;
    }
}

FrameSync::FrameSync(unsigned acquireMaxErrors, unsigned trackMaxErrors,
                     unsigned relockWindow, std::size_t stride)
    : acquireMaxErrors_(acquireMaxErrors),
      trackMaxErrors_(trackMaxErrors), relockWindow_(relockWindow),
      stride_(stride)
{
    if (stride_ < 16)
        fatalf("FrameSync: stride ", stride_,
               " smaller than the preamble");
}

FrameSync::Scan
FrameSync::scan(const BitVec &stream) const
{
    Scan out;
    const BitVec pre = preamble16();
    if (stream.size() < pre.size())
        return out;

    bool locked = false;
    std::size_t searchFrom = 0; //!< Searching: next offset to try
    std::size_t expected = 0;   //!< Locked: predicted next start

    while (true) {
        if (!locked) {
            // Sliding correlation: first offset clearing the strict
            // acquire budget wins.
            std::size_t found = stream.size();
            for (std::size_t off = searchFrom;
                 off + pre.size() <= stream.size(); ++off) {
                if (preambleErrorsAt(stream, off, pre) <=
                    acquireMaxErrors_) {
                    found = off;
                    break;
                }
            }
            if (found == stream.size())
                break; // no further frame in the stream
            out.frameStarts.push_back(found);
            locked = true;
            expected = found + stride_;
        } else {
            // Re-lock around the predicted start with the looser
            // tracking budget; take the best-scoring offset so a
            // +/- slip snaps to the true preamble, not its edge.
            const std::size_t lastStart = out.frameStarts.back();
            const std::size_t lo =
                std::max(expected > relockWindow_
                             ? expected - relockWindow_
                             : 0,
                         lastStart + 1);
            const std::size_t hi = expected + relockWindow_;
            std::size_t best = stream.size();
            unsigned bestErrors = trackMaxErrors_ + 1;
            for (std::size_t off = lo;
                 off <= hi && off + pre.size() <= stream.size(); ++off) {
                const unsigned e = preambleErrorsAt(stream, off, pre);
                if (e < bestErrors) {
                    bestErrors = e;
                    best = off;
                }
            }
            if (best != stream.size() && bestErrors <= trackMaxErrors_) {
                if (best != expected)
                    ++out.resyncs; // phase slipped, absorbed in-lock
                out.frameStarts.push_back(best);
                expected = best + stride_;
            } else if (expected + pre.size() > stream.size()) {
                break; // ran off the end of the stream: not a loss
            } else {
                // Lost lock (a gang freeze swallowed the frame):
                // fall back to the sliding search just past the last
                // frame we did decode.
                ++out.syncLosses;
                locked = false;
                searchFrom = lastStart + stride_ > relockWindow_
                                 ? lastStart + stride_ - relockWindow_
                                 : lastStart + 1;
                searchFrom = std::max(searchFrom, lastStart + 1);
            }
        }
        if (locked && expected + pre.size() > stream.size() + relockWindow_)
            break; // no room for another frame
    }
    return out;
}

TransportResult
runTransportSession(const TransportConfig &cfg,
                    const ProtocolConfig &baseProto, const BitVec &message,
                    const TransportLink &link, std::uint64_t seed)
{
    const FrameLayout &layout = cfg.layout;
    if (layout.payloadBits == 0)
        fatalf("runTransportSession: zero payload bits per frame");
    if (cfg.windowFrames == 0)
        fatalf("runTransportSession: zero-frame window");

    // Fixed-size chunks of the message, zero-padded at the tail.
    const std::size_t chunkBits = layout.payloadBits;
    const unsigned chunks = static_cast<unsigned>(
        (message.size() + chunkBits - 1) / chunkBits);
    BitVec padded = message;
    padded.resize(std::size_t(chunks) * chunkBits, false);
    const auto chunkAt = [chunkBits](auto &bits, std::size_t c) {
        return bits.begin() + static_cast<std::ptrdiff_t>(c * chunkBits);
    };

    const std::vector<RateStep> ladder = rateLadder(
        baseProto, cfg.maxSlowdownDoublings, cfg.signalShrinks);
    RateController controller(cfg, static_cast<unsigned>(ladder.size()));
    SelectiveRepeatArq arq(chunks, cfg.maxRetries);
    const std::size_t stride = layout.frameBits() + cfg.guardBits;
    const FrameSync sync(cfg.acquireMaxErrors, cfg.trackMaxErrors,
                         cfg.relockWindow, stride);

    TransportResult res;
    res.framesTotal = chunks;
    res.payloadBitsTotal =
        std::uint64_t(chunks) * layout.payloadBits;
    BitVec received(padded.size(), false); // undelivered chunks stay 0

    while (!arq.done() && res.rounds < cfg.maxRounds) {
        // --- Compose the round: pending chunks, no seq collisions ---
        std::vector<unsigned> batch;
        std::vector<int> seqToChunk(layout.seqSpace(), -1);
        for (unsigned chunk : arq.pending()) {
            if (batch.size() >= cfg.windowFrames)
                break;
            const unsigned seq = chunk % layout.seqSpace();
            if (seqToChunk[seq] != -1)
                continue; // would be ambiguous in this round's window
            seqToChunk[seq] = static_cast<int>(chunk);
            batch.push_back(chunk);
        }
        if (batch.empty())
            break; // defensive: pending() nonempty implies a batch

        BitVec stream;
        for (unsigned chunk : batch) {
            const BitVec frame = buildTransportFrame(
                layout, chunk % layout.seqSpace(),
                BitVec(chunkAt(padded, chunk), chunkAt(padded, chunk + 1)));
            stream.insert(stream.end(), frame.begin(), frame.end());
            stream.insert(stream.end(), cfg.guardBits, false);
        }

        // --- One physical burst at the current rate ---
        const RateStep &rate = ladder[controller.level()];
        const LinkRun run =
            link(stream, rate, roundSeed(seed, res.rounds));
        res.simulatedCycles += run.simulatedCycles;
        res.schedulerStats.contextSwitches +=
            run.schedulerStats.contextSwitches;
        res.schedulerStats.migrations += run.schedulerStats.migrations;
        res.schedulerStats.pollutionAccesses +=
            run.schedulerStats.pollutionAccesses;
        res.schedulerStats.coRunnerAccesses +=
            run.schedulerStats.coRunnerAccesses;
        res.rawRateKbps = run.rateKbps;

        // --- Resync + validate whatever arrived ---
        const FrameSync::Scan scan = sync.scan(run.bits);
        res.syncLosses += scan.syncLosses;
        res.resyncs += scan.resyncs;

        unsigned fresh = 0;
        std::uint64_t roundCorrected = 0;
        unsigned validated = 0;
        for (std::size_t start : scan.frameStarts) {
            const std::size_t bodyAt = start + 16;
            if (bodyAt >= run.bits.size())
                continue;
            const std::size_t bodyEnd = std::min(
                run.bits.size(), bodyAt + layout.codedBodyBits());
            const BitVec body(
                run.bits.begin() + static_cast<std::ptrdiff_t>(bodyAt),
                run.bits.begin() + static_cast<std::ptrdiff_t>(bodyEnd));
            const ParsedFrame parsed = parseTransportFrame(layout, body);
            if (!parsed.crcOk)
                continue;
            ++validated;
            roundCorrected += parsed.fec.correctedBits;
            const int chunk = seqToChunk[parsed.seq % layout.seqSpace()];
            if (chunk < 0 || arq.isDelivered(unsigned(chunk)))
                continue; // stale seq or duplicate
            ++fresh;
            std::copy(parsed.payload.begin(), parsed.payload.end(),
                      chunkAt(received, unsigned(chunk)));
            arq.onDelivered(unsigned(chunk));
        }

        const double fer =
            1.0 - double(fresh) / double(batch.size());
        const double correctedFrac =
            validated == 0
                ? 0.0
                : double(roundCorrected) /
                      (double(validated) * double(layout.codedBodyBits()));
        res.ferByRound.push_back(fer);
        res.rateLevelByRound.push_back(controller.level());
        // A round that validated nothing at all is treated as fully
        // degraded regardless of thresholds (fer == 1.0 covers it).
        controller.onRound(fer, correctedFrac);
        res.fecCorrectedBits += roundCorrected;
        arq.onRoundEnd(batch);
        ++res.rounds;
        if (run.closed) {
            // No slower rung or retry reopens a link whose calibration
            // shows no gap; the undelivered chunks fail below.
            res.closed = true;
            break;
        }
    }

    // --- Honest accounting ---
    res.framesDelivered = arq.delivered();
    res.framesFailed = res.framesTotal - arq.delivered();
    res.framesSent = arq.attempts();
    res.retransmissions = arq.retransmissions();
    res.payloadBitsDelivered =
        std::uint64_t(res.framesDelivered) * layout.payloadBits;
    for (std::size_t i = 0; i < padded.size(); ++i)
        if (received[i] != padded[i] &&
            arq.isDelivered(static_cast<unsigned>(i / chunkBits)))
            ++res.residualBitErrors;
    received.resize(message.size());
    res.deliveredMessage = std::move(received);
    res.residualBer =
        res.payloadBitsDelivered
            ? double(res.residualBitErrors) /
                  double(res.payloadBitsDelivered)
            : 0.0;
    res.finalRateLevel = controller.level();
    res.goodputKbps =
        res.simulatedCycles > 0
            ? double(res.payloadBitsDelivered) * baseProto.cpuGhz * 1e6 /
                  double(res.simulatedCycles)
            : 0.0;
    return res;
}

} // namespace wb::chan
