#include "chan/channel.hh"

#include <memory>
#include <optional>

#include "common/log.hh"
#include "chan/degraded.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"
#include "chan/transport.hh"
#include "sim/scheduler.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

namespace
{

/**
 * One physical pass through the simulated platform: everything below
 * the bit level. Both the legacy single-shot path and the transport
 * link run through here, so the two stay in lockstep — same RNG
 * splits, same calibration, same thread wiring.
 */
struct RawRun
{
    std::vector<double> latencies;      //!< receiver raw observations
    Cycles simulatedCycles = 0;
    sim::PerfCounters senderCounters;
    sim::PerfCounters receiverCounters;
    ThreadId senderTid = 0;
    ThreadId receiverTid = 0;
    sim::SchedulerStats schedulerStats;
    Calibration calibration;

    /** Eviction-only observer: both discovered sets verified minimal
     *  (true whenever no discovery ran). */
    bool discoveryVerified = true;
};

/** Run the platform once, modulating the per-slot levels @p dSeq. */
RawRun
runRawSequence(const ChannelConfig &cfg, const std::vector<unsigned> &dSeq)
{
    const ProtocolConfig &proto = cfg.protocol;
    const Encoding &enc = proto.encoding;
    if (enc.maxLevel() > cfg.platform.l1.ways)
        fatalf("runChannel: encoding level ", enc.maxLevel(),
               " exceeds associativity ", cfg.platform.l1.ways);
    const sim::ObserverModel &obs = cfg.noise.observer;
    if (obs.cls == sim::ObserverClass::FlushLatency && !obs.hasFlush) {
        fatalf("runChannel: flush-latency observer with hasFlush=false "
               "— use the eviction-only class");
    }

    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();
    // Third split only for observers that discover their sets, so the
    // legacy calibration/run streams stay untouched for everyone else.
    std::optional<Rng> discoveryRng;
    if (obs.cls == sim::ObserverClass::EvictionOnly)
        discoveryRng.emplace(rootRng.split());

    // --- Offline calibration -> classifier centroids. The mix of
    // dirty-line levels matches the live encoding so the measured
    // steady-state baseline is the one the receiver will see. ---
    CalibrationConfig calCfg = cfg.calibration;
    if (calCfg.levelsMix.empty())
        calCfg.levelsMix = enc.levels();
    calCfg.targetSet = proto.targetSet;
    calCfg.replacementSize = proto.replacementSize;
    Calibration cal = calibrate(cfg.platform, cfg.noise, calCfg, calRng);

    // --- Platform. Under an active OS-noise config the front-end is
    // owned by a Scheduler (co-runners, timeslices, pollution); the
    // inactive default takes the plain path, which the scheduler run
    // loop degenerates to anyway (CoRunnerIsolation test). ---
    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    std::optional<sim::Scheduler> sched;
    std::optional<sim::SmtCore> plainCore;
    if (cfg.scheduler.active()) {
        sched.emplace(static_cast<sim::MemorySystem &>(hierarchy),
                      cfg.noise, runRng, cfg.scheduler, cfg.seed);
    } else {
        plainCore.emplace(hierarchy, cfg.noise, runRng);
    }
    sim::SmtCore &core = sched ? sched->party(0) : *plainCore;
    const auto &layout = hierarchy.l1().layout();
    bool discoveryVerified = true;
    ChannelSets sets;
    if (discoveryRng) {
        // Eviction-only observer: the receiver's replacement sets come
        // from live timing-test discovery, not set arithmetic. Runs
        // against the raw hierarchy before the parties launch (the
        // attacker's setup phase); its accesses land in the eventual
        // receiver tid's counters.
        sets = discoverChannelSets(hierarchy, /*tid=*/1, proto.targetSet,
                                   cfg.platform.l1.ways,
                                   proto.replacementSize, *discoveryRng,
                                   &discoveryVerified);
    } else {
        sets = makeChannelSets(layout, proto.targetSet,
                               cfg.platform.l1.ways,
                               proto.replacementSize);
    }

    const TransmissionSchedule schedule = transmissionSchedule(
        dSeq.size(), proto.ts, cfg.senderStartSlots, cfg.sampleMargin);
    SenderProgram sender(sets.senderLines, dSeq, proto.ts);
    // The receiver variant follows the observer: Flushgeist reads the
    // write-back queue through timed clflush; everyone else times the
    // replacement-set chase (the eviction-only observer's receiver is
    // the load-timing one — it never flushes).
    std::optional<ReceiverProgram> loadReceiver;
    std::optional<FlushLatencyReceiverProgram> flushReceiver;
    sim::Program *receiver = nullptr;
    if (obs.cls == sim::ObserverClass::FlushLatency) {
        flushReceiver.emplace(sets.replacementA, sets.replacementB,
                              proto.tr, schedule.sampleCount);
        receiver = &*flushReceiver;
    } else {
        loadReceiver.emplace(sets.replacementA, sets.replacementB,
                             proto.tr, schedule.sampleCount);
        receiver = &*loadReceiver;
    }

    const ThreadId senderTid = core.addThread(&sender, sim::AddressSpace(1),
                                              schedule.senderStart);
    const ThreadId receiverTid =
        core.addThread(receiver, sim::AddressSpace(2), 0);

    // --- Optional co-resident noise processes (Sec. VI) ---
    std::vector<std::unique_ptr<NoiseProcess>> noisePrograms;
    for (unsigned i = 0; i < cfg.noiseProcesses; ++i) {
        auto lines = linesForSet(layout, proto.targetSet,
                                 std::max(1u, cfg.noiseCfg.burstLines),
                                 /*tagBase=*/0x300 + 0x10 * i);
        noisePrograms.push_back(
            std::make_unique<NoiseProcess>(std::move(lines), cfg.noiseCfg));
        core.addThread(noisePrograms.back().get(),
                       sim::AddressSpace(10 + i), /*startTime=*/500 * i);
    }

    const Cycles end =
        sched ? sched->run(schedule.horizon * sched->horizonStretch())
              : core.run(schedule.horizon);

    RawRun raw;
    raw.latencies = flushReceiver ? flushReceiver->latencies()
                                  : loadReceiver->latencies();
    raw.discoveryVerified = discoveryVerified;
    raw.simulatedCycles = end;
    raw.senderCounters = hierarchy.counters(senderTid);
    raw.receiverCounters = hierarchy.counters(receiverTid);
    raw.senderTid = senderTid;
    raw.receiverTid = receiverTid;
    if (sched)
        raw.schedulerStats = sched->stats();
    raw.calibration = std::move(cal);
    return raw;
}

/** Shared implementation: run the platform with a given frame. */
ChannelResult
runWithFrame(const ChannelConfig &userCfg, const BitVec &frame)
{
    // Adjust for the configured observer (no-op, and bit-identical,
    // for the default cycle-accurate one): granule-aligned pacing,
    // repetition factor, flush-probe calibration, drain penalty.
    const DegradedPlan plan = planDegraded(userCfg);
    const ChannelConfig &cfg = plan.cfg;
    const unsigned rep = plan.repetition;

    const ProtocolConfig &proto = cfg.protocol;
    const Encoding &enc = proto.encoding;
    if (frame.size() % enc.bitsPerSymbol() != 0)
        fatalf("runChannel: frame bits ", frame.size(),
               " not divisible by bits/symbol ", enc.bitsPerSymbol());

    // --- Per-slot dirty-line levels for all frame repetitions; a
    // coarse-timer plan repeats every symbol rep times so the decoder
    // can average each block back into one symbol. ---
    const auto frameLevels = frameToLevels(frame, enc);
    std::vector<unsigned> dSeq;
    dSeq.reserve(frameLevels.size() * proto.frames * rep);
    for (unsigned f = 0; f < proto.frames; ++f) {
        for (const unsigned lvl : frameLevels)
            dSeq.insert(dSeq.end(), rep, lvl);
    }

    RawRun raw = runRawSequence(cfg, dSeq);

    // --- Decode ---
    ChannelResult res;
    res.latencies = std::move(raw.latencies);
    DecodeResult dec;
    if (rep > 1) {
        // Repetition decoding: block means against mean centroids
        // (the dithered samples' median is a point mass; their mean
        // is the unbiased true latency — chan/degraded.hh).
        const std::vector<double> blocks =
            collapseRepetition(res.latencies, rep);
        dec = decodeTransmission(blocks,
                                 raw.calibration.meanClassifierFor(enc),
                                 enc, frame, proto.frames);
    } else {
        dec = decodeTransmission(res.latencies,
                                 raw.calibration.classifierFor(enc), enc,
                                 frame, proto.frames);
    }
    res.repetition = rep;
    res.evictionDiscoveryVerified = raw.discoveryVerified;
    res.closed = raw.calibration.closedFor(enc);
    res.ber = dec.ber;
    res.breakdown = dec.breakdown;
    res.aligned = dec.aligned;
    res.framesScored = dec.framesScored;
    res.framesExpected = dec.framesExpected;
    // Goodput honesty: repetition amplification spends rep slots per
    // symbol, so the effective rate divides by it (docs/OBSERVERS.md).
    res.rateKbps = proto.rateKbps() / double(rep);
    res.goodputKbps = res.rateKbps * (1.0 - std::min(1.0, res.ber));
    res.sentFrame = frame;
    res.decodedBits = dec.bitstream;
    res.calibrationMedians = raw.calibration.medianByD;
    res.senderCounters = raw.senderCounters;
    res.receiverCounters = raw.receiverCounters;
    res.senderTid = raw.senderTid;
    res.receiverTid = raw.receiverTid;
    res.simulatedCycles = raw.simulatedCycles;
    res.schedulerStats = raw.schedulerStats;
    return res;
}

/**
 * Bind one transport burst to the single-core platform: reconfigure
 * protocol pacing/encoding for the rate rung, modulate the frame
 * stream once (no repetitions — the ARQ layer owns redundancy), and
 * hand back the receiver's classified bit stream.
 */
LinkRun
channelLinkRun(const ChannelConfig &base, const BitVec &stream,
               const RateStep &rate, std::uint64_t seed)
{
    ChannelConfig cfg = base;
    cfg.seed = seed;
    // The ladder only widens Ts by powers of two, so the Tr:Ts ratio
    // survives the integer arithmetic exactly.
    cfg.protocol.tr =
        base.protocol.tr * (rate.ts / base.protocol.ts);
    cfg.protocol.ts = rate.ts;
    cfg.protocol.encoding = rate.encoding;

    // Observer adjustments apply per burst, after the rung reshaped
    // the pacing (a coarse plan re-aligns the rung's Ts/Tr to the
    // granule and repeats each symbol R times).
    const DegradedPlan plan = planDegraded(cfg);
    cfg = plan.cfg;
    const unsigned rep = plan.repetition;
    const Encoding &enc = cfg.protocol.encoding;

    BitVec padded = stream;
    while (padded.size() % enc.bitsPerSymbol() != 0)
        padded.push_back(false);

    const std::vector<unsigned> symbolLevels = frameToLevels(padded, enc);
    std::vector<unsigned> dSeq;
    dSeq.reserve(symbolLevels.size() * rep);
    for (const unsigned lvl : symbolLevels)
        dSeq.insert(dSeq.end(), rep, lvl);
    RawRun raw = runRawSequence(cfg, dSeq);

    LinkRun run;
    if (rep > 1) {
        run.bits = symbolsToBits(
            classifyAll(collapseRepetition(raw.latencies, rep),
                        raw.calibration.meanClassifierFor(enc)),
            enc);
    } else {
        run.bits = symbolsToBits(
            classifyAll(raw.latencies, raw.calibration.classifierFor(enc)),
            enc);
    }
    run.simulatedCycles = raw.simulatedCycles;
    run.schedulerStats = raw.schedulerStats;
    run.closed = raw.calibration.closedFor(enc);
    return run;
}

} // namespace

ChannelResult
runChannel(const ChannelConfig &cfg)
{
    Rng frameRng(cfg.seed ^ 0xf00dULL);
    const BitVec frame =
        randomFrame(cfg.protocol.frameBits - 16, frameRng);
    return runWithFrame(cfg, frame);
}

TransportResult
legacyTransportResult(const ChannelResult &r, const ProtocolConfig &proto)
{
    TransportResult t;
    t.framesTotal = r.framesExpected;
    t.framesDelivered = r.framesScored;
    t.framesFailed = r.framesExpected - std::min(r.framesExpected,
                                                 r.framesScored);
    t.framesSent = r.framesExpected;
    const unsigned payloadBits =
        proto.frameBits >= 16 ? proto.frameBits - 16 : 0;
    t.payloadBitsTotal = std::uint64_t(r.framesExpected) * payloadBits;
    t.payloadBitsDelivered = std::uint64_t(r.framesScored) * payloadBits;
    t.residualBitErrors = static_cast<std::uint64_t>(
        r.ber * double(t.payloadBitsDelivered) + 0.5);
    t.residualBer = r.ber;
    t.goodputKbps = r.goodputKbps;
    t.rawRateKbps = r.rateKbps;
    t.rounds = 1;
    t.rateLevelByRound.push_back(0);
    t.ferByRound.push_back(
        r.framesExpected
            ? 1.0 - double(r.framesScored) / double(r.framesExpected)
            : 0.0);
    t.simulatedCycles = r.simulatedCycles;
    t.schedulerStats = r.schedulerStats;
    t.closed = r.closed;
    return t;
}

TransportResult
runTransport(const ChannelConfig &cfg, const BitVec &message)
{
    if (!cfg.transport.enabled) {
        // Transport off: the legacy single-shot path, untouched —
        // same RNG draws, same schedule, bit-identical results
        // (TransportOffEquivalence test).
        return legacyTransportResult(runChannel(cfg), cfg.protocol);
    }
    const TransportLink link = [&cfg](const BitVec &stream,
                                      const RateStep &rate,
                                      std::uint64_t seed) {
        return channelLinkRun(cfg, stream, rate, seed);
    };
    return runTransportSession(cfg.transport, cfg.protocol, message, link,
                               cfg.seed);
}

TransportResult
runTransport(const ChannelConfig &cfg)
{
    Rng msgRng(cfg.seed ^ 0x7ea45007ULL);
    const std::size_t bits =
        std::size_t(cfg.transport.messageFrames) *
        cfg.transport.layout.payloadBits;
    BitVec message;
    message.reserve(bits);
    for (std::size_t i = 0; i < bits; ++i)
        message.push_back(msgRng.flip());
    return runTransport(cfg, message);
}

std::string
transmitString(const ChannelConfig &cfg, const std::string &msg,
               ChannelResult *result)
{
    ChannelConfig local = cfg;
    BitVec frame = preamble16();
    const BitVec payload = fromString(msg);
    frame.insert(frame.end(), payload.begin(), payload.end());
    // Pad to a whole number of symbols.
    while (frame.size() % local.protocol.encoding.bitsPerSymbol() != 0)
        frame.push_back(false);
    local.protocol.frameBits = static_cast<unsigned>(frame.size());
    local.protocol.frames = 1;

    ChannelResult res = runWithFrame(local, frame);

    // Extract the payload bits following the aligned preamble.
    std::string decoded;
    auto anchor = alignByPattern(res.decodedBits, preamble16(), 2);
    if (anchor) {
        const std::size_t start = *anchor + 16;
        BitVec got;
        for (std::size_t i = start;
             i < res.decodedBits.size() && got.size() < payload.size(); ++i)
            got.push_back(res.decodedBits[i]);
        decoded = toString(got);
    }
    if (result != nullptr)
        *result = res;
    return decoded;
}

} // namespace wb::chan
