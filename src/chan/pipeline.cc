#include "chan/pipeline.hh"

#include <algorithm>
#include <memory>

#include "chan/degraded.hh"
#include "chan/noise_process.hh"
#include "chan/set_mapping.hh"

namespace wb::chan::pipeline
{

namespace
{

/** Bits of the preamble every frame starts with (preamble16()). */
constexpr unsigned kPreambleBits = 16;

/** Run @p copies copies of @p bits, each symbol held for the
 *  pass's repetition factor. */
ChannelResult
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
 * The bits the receiver reads from @p latencies. Under repetition it
 * classifies block means against mean centroids: the dithered
 * samples' median is a point mass, their mean the unbiased true
 * latency (chan/degraded.hh).
 */
BitVec
receivedBits(const std::vector<double> &latencies, const Pass &pass)
{
    const Calibration &cal = pass.calibration;
    const Classifier classifier =
        pass.repetition > 1 ? cal.meanClassifierFor(pass.encoding)
                            : cal.classifierFor(pass.encoding);
    std::vector<unsigned> symbols = classifyAll(
        collapseRepetition(latencies, pass.repetition), classifier);
    if (pass.invert) {
        for (unsigned &s : symbols)
            s = pass.encoding.symbols() - 1 - s;
    }
    return symbolsToBits(symbols, pass.encoding);
}

} // namespace

void
requireProtocol(const ProtocolConfig &proto)
{
    const unsigned k = proto.encoding.bitsPerSymbol();
    if (proto.frameBits <= kPreambleBits || proto.frameBits % k != 0)
        fatalf("ProtocolConfig::frameBits = ", proto.frameBits,
               " must exceed the ", kPreambleBits,
               "-bit preamble and be whole ", k, "-bit symbols");
    if (proto.ts == 0)
        fatalf("ProtocolConfig::ts = 0: the sender period must be "
               "non-zero");
    if (proto.tr == 0)
        fatalf("ProtocolConfig::tr = 0: the receiver period must be "
               "non-zero");
}

BitVec
shotFrame(const ProtocolConfig &proto, Rng &frameRng)
{
    requireProtocol(proto);
    return randomFrame(proto.frameBits - kPreambleBits, frameRng);
}

ChannelResult
runShot(const Pass &pass, unsigned frames)
{
    if (frames == 0)
        fatalf("ProtocolConfig::frames = 0: a single shot sends at "
               "least one frame");
    ChannelResult res = modulate(pass, pass.frame, frames);
    const DecodeResult dec =
        scoreFrames(receivedBits(res.latencies, pass), pass.frame, frames);

    res.repetition = pass.repetition;
    res.closed = pass.calibration.closedFor(pass.encoding);
    res.ber = dec.ber;
    res.breakdown = dec.breakdown;
    res.aligned = dec.aligned;
    res.framesScored = dec.framesScored;
    res.framesExpected = dec.framesExpected;
    // Goodput honesty: repetition amplification spends rep slots per
    // symbol, so the effective rate divides by it (docs/OBSERVERS.md).
    res.rateKbps = pass.rateKbps / double(pass.repetition);
    res.goodputKbps = res.rateKbps * (1.0 - std::min(1.0, res.ber));
    res.sentFrame = pass.frame;
    res.decodedBits = dec.bitstream;
    res.calibrationMedians = pass.calibration.medianByD;
    return res;
}

LinkRun
runBurst(const Pass &pass, const BitVec &stream)
{
    BitVec padded = stream;
    while (padded.size() % pass.encoding.bitsPerSymbol() != 0)
        padded.push_back(false);
    const ChannelResult raw = modulate(pass, padded, 1);

    LinkRun run;
    run.bits = receivedBits(raw.latencies, pass);
    run.simulatedCycles = raw.simulatedCycles;
    run.schedulerStats = raw.schedulerStats;
    run.rateKbps = pass.rateKbps / double(pass.repetition);
    run.closed = pass.calibration.closedFor(pass.encoding);
    return run;
}

SameCoreWiring::SameCoreWiring(const ChannelConfig &cfg, std::size_t slots,
                               const Rng &runRng)
    : cfg_(cfg),
      schedule_(transmissionSchedule(slots, cfg.protocol.ts,
                                     cfg.senderStartSlots,
                                     cfg.sampleMargin)),
      rng_(runRng), hierarchy_(cfg.platform, &rng_),
      sched_(static_cast<sim::MemorySystem &>(hierarchy_), cfg.noise, rng_,
             cfg.scheduler, cfg.seed),
      core_(sched_.party(0))
{
}

ChannelResult
SameCoreWiring::run(sim::Program &sender, PacedProgram &receiver,
                    const sim::AddressSpace &txSpace,
                    const sim::AddressSpace &rxSpace)
{
    ChannelResult raw;
    raw.senderTid = core_.addThread(&sender, txSpace, schedule_.senderStart);
    raw.receiverTid = core_.addThread(&receiver, rxSpace, 0);

    // Co-resident noise processes on the target set (Sec. VI), in
    // the parties' front-end.
    if (cfg_.noiseProcesses > sim::Scheduler::partyTids - 2)
        fatalf("ChannelConfig::noiseProcesses = ", cfg_.noiseProcesses,
               " exceeds the ", sim::Scheduler::partyTids - 2,
               " threads a party front-end holds beside the parties");
    std::vector<std::unique_ptr<NoiseProcess>> noisePrograms;
    for (unsigned i = 0; i < cfg_.noiseProcesses; ++i) {
        auto lines = linesForSet(hierarchy_.l1().layout(),
                                 cfg_.protocol.targetSet,
                                 std::max(1u, cfg_.noiseCfg.burstLines),
                                 /*tagBase=*/0x300 + 0x10 * i);
        noisePrograms.push_back(
            std::make_unique<NoiseProcess>(std::move(lines), cfg_.noiseCfg));
        core_.addThread(noisePrograms.back().get(),
                        sim::AddressSpace(10 + i), /*startTime=*/500 * i);
    }

    raw.simulatedCycles =
        sched_.run(schedule_.horizon * sched_.horizonStretch());
    raw.latencies = receiver.latencies();
    raw.senderCounters = sched_.tidCounters(raw.senderTid);
    raw.receiverCounters = sched_.tidCounters(raw.receiverTid);
    raw.schedulerStats = sched_.stats();
    return raw;
}

CrossCoreWiring::CrossCoreWiring(const LinkConfig &cfg, unsigned cores,
                                 unsigned senderCore, unsigned receiverCore,
                                 std::size_t slots, const Rng &runRng)
    : schedule_(transmissionSchedule(slots, cfg.protocol.ts,
                                     cfg.senderStartSlots,
                                     cfg.sampleMargin)),
      rng_(runRng), mc_(cfg.platform, cores, &rng_),
      sched_(mc_, cfg.noise, rng_, cfg.scheduler, cfg.seed),
      senderFront_(sched_.party(senderCore)),
      receiverFront_(sched_.party(receiverCore, /*migratable=*/true))
{
}

ChannelResult
CrossCoreWiring::run(sim::Program &sender, PacedProgram &receiver,
                     const sim::AddressSpace &txSpace,
                     const sim::AddressSpace &rxSpace)
{
    ChannelResult raw;
    raw.senderTid = senderFront_.addThread(&sender, txSpace,
                                           schedule_.senderStart);
    raw.receiverTid = receiverFront_.addThread(&receiver, rxSpace, 0);

    raw.simulatedCycles =
        sched_.run(schedule_.horizon * sched_.horizonStretch());
    raw.latencies = receiver.latencies();
    // The Scheduler's tids are system-unique, so a migrated receiver's
    // counters sum over every core it visited and nothing else.
    raw.senderCounters = sched_.tidCounters(raw.senderTid);
    raw.receiverCounters = sched_.tidCounters(raw.receiverTid);
    raw.schedulerStats = sched_.stats();
    return raw;
}

BitVec
randomMessage(const TransportConfig &t, std::uint64_t seed)
{
    Rng msgRng(seed ^ 0x7ea45007ULL);
    return randomBits(std::size_t(t.messageFrames) * t.layout.payloadBits,
                      msgRng);
}

} // namespace wb::chan::pipeline
