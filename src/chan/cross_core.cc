#include "chan/cross_core.hh"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/log.hh"
#include "chan/pointer_chase.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"
#include "sim/scheduler.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

namespace
{

/** Line pools both parties derive from the agreed LLC set. */
struct CrossCoreSets
{
    std::vector<Addr> senderLines;
    std::vector<Addr> replacementA;
    std::vector<Addr> replacementB;
};

/** Resolve the replacement-set size (0 = whole LLC set + slack). */
unsigned
resolveReplacementSize(const CrossCoreChannelConfig &cfg)
{
    if (cfg.replacementSize != 0)
        return cfg.replacementSize;
    return cfg.platform.llc.ways + 2;
}

/**
 * Build the pools against the LLC layout: the low LLC index bits
 * survive the page-linear translation, so both processes target the
 * agreed set purely from their virtual addresses, exactly as the L1
 * channel does with the VIPT L1 layout (Sec. IV generalized).
 */
CrossCoreSets
makeCrossCoreSets(const sim::AddressLayout &llcLayout,
                  const CrossCoreChannelConfig &cfg)
{
    const unsigned replacement = resolveReplacementSize(cfg);
    const unsigned senderLines =
        std::max(1u, cfg.protocol.encoding.maxLevel());
    CrossCoreSets sets;
    sets.senderLines =
        linesForSet(llcLayout, cfg.targetLlcSet, senderLines, /*tag=*/1);
    sets.replacementA = linesForSet(llcLayout, cfg.targetLlcSet,
                                    replacement, /*tag=*/0x100);
    sets.replacementB = linesForSet(llcLayout, cfg.targetLlcSet,
                                    replacement, /*tag=*/0x200);
    return sets;
}

void
validate(const CrossCoreChannelConfig &cfg)
{
    if (cfg.cores < 2)
        fatalf("runCrossCoreChannel: needs at least 2 cores, got ",
               cfg.cores);
    if (cfg.senderCore == cfg.receiverCore ||
        cfg.senderCore >= cfg.cores || cfg.receiverCore >= cfg.cores) {
        fatalf("runCrossCoreChannel: sender core ", cfg.senderCore,
               " / receiver core ", cfg.receiverCore,
               " invalid for ", cfg.cores, " cores");
    }
    const unsigned top = cfg.protocol.encoding.maxLevel();
    if (top > cfg.platform.llc.ways)
        fatalf("runCrossCoreChannel: encoding level ", top,
               " exceeds LLC associativity ", cfg.platform.llc.ways);
}

/**
 * Offline calibration against a fresh MultiCoreSystem: the sender
 * side dirties d LLC-set lines from its core, the receiver side times
 * the alternating replacement-set sweep from its core — the Fig. 4
 * procedure carried to LLC granularity. Levels are interleaved at
 * random for the same steady-state reasons as chan::calibrate().
 */
Calibration
calibrateCrossCore(const CrossCoreChannelConfig &cfg,
                   const CrossCoreSets &sets, Rng &rng)
{
    const unsigned top = cfg.protocol.encoding.maxLevel();
    Calibration out;
    out.latencyByD.resize(top + 1);
    out.medianByD.resize(top + 1, 0.0);

    sim::MultiCoreSystem mc(cfg.platform, cfg.cores, &rng);
    sim::MemorySystem &sender = mc.port(cfg.senderCore);
    sim::MemorySystem &receiver = mc.port(cfg.receiverCore);
    sim::AddressSpace senderSpace(1);
    sim::AddressSpace receiverSpace(2);

    PointerChase chaseA(sets.replacementA);
    PointerChase chaseB(sets.replacementB);

    // Warm both replacement sets into the shared LLC.
    for (int sweep = 0; sweep < 2; ++sweep) {
        receiver.accessBatch(0, receiverSpace, sets.replacementA, false);
        receiver.accessBatch(0, receiverSpace, sets.replacementB, false);
    }

    std::vector<unsigned> mix = cfg.calibration.levelsMix;
    if (mix.empty())
        mix = cfg.protocol.encoding.levels();

    const std::size_t total =
        mix.size() * cfg.calibration.measurements + cfg.calibration.discard;
    bool useA = true;
    for (std::size_t m = 0; m < total; ++m) {
        const unsigned d = mix[rng.below(mix.size())];
        sender.accessBatch(0, senderSpace, sets.senderLines.data(), d,
                           /*isWrite=*/true);
        PointerChase &chase = useA ? chaseA : chaseB;
        chase.reshuffle(rng);
        double lat = measureChaseOffline(receiver, 0, receiverSpace,
                                         chase.order(), cfg.noise);
        if (cfg.noise.measBaseSigma > 0.0)
            lat += rng.gaussian(0.0, cfg.noise.measBaseSigma);
        lat = cfg.noise.observeDuration(lat, rng); // observer choke point
        useA = !useA;
        if (m >= cfg.calibration.discard)
            out.latencyByD[d].add(lat);
    }
    for (unsigned d = 0; d <= top; ++d)
        out.medianByD[d] = out.latencyByD[d].median();
    return out;
}

/**
 * One physical pass through the multi-core platform: everything below
 * the bit level. The legacy single-shot path and the transport link
 * both run through here, so the two stay in lockstep — same RNG
 * splits, same calibration, same thread wiring.
 */
struct CrossRawRun
{
    std::vector<double> latencies;
    Cycles simulatedCycles = 0;
    sim::PerfCounters senderCounters;
    sim::PerfCounters receiverCounters;
    ThreadId senderTid = 0;
    ThreadId receiverTid = 0;
    sim::SchedulerStats schedulerStats;
    Calibration calibration;
};

/** Run the platform once, modulating the per-slot levels @p dSeq. */
CrossRawRun
runCrossCoreRaw(const CrossCoreChannelConfig &cfg,
                const std::vector<unsigned> &dSeq)
{
    validate(cfg);
    const ProtocolConfig &proto = cfg.protocol;

    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();

    // The LLC layout is shared by every core; borrow it from a
    // throwaway cache-less construction via the params geometry.
    const sim::AddressLayout llcLayout(cfg.platform.llc.numSets());
    const CrossCoreSets sets = makeCrossCoreSets(llcLayout, cfg);

    // --- Offline calibration -> classifier centroids ---
    Calibration cal = calibrateCrossCore(cfg, sets, calRng);

    // --- Platform: one system, one SmtCore front-end per party.
    // Under an active OS-noise config the front-ends come from a
    // Scheduler (co-runners over the cores, timeslicing, migration of
    // the receiver); the inactive default keeps the plain runCores
    // interleave, which the scheduler loop degenerates to anyway. ---
    sim::MultiCoreSystem mc(cfg.platform, cfg.cores, &runRng);
    std::optional<sim::Scheduler> os;
    std::optional<sim::SmtCore> plainSender;
    std::optional<sim::SmtCore> plainReceiver;
    if (cfg.scheduler.active()) {
        os.emplace(mc, cfg.noise, runRng, cfg.scheduler, cfg.seed);
    } else {
        plainSender.emplace(mc.port(cfg.senderCore), cfg.noise, runRng);
        plainReceiver.emplace(mc.port(cfg.receiverCore), cfg.noise,
                              runRng);
    }
    sim::SmtCore &senderCore =
        os ? os->party(cfg.senderCore) : *plainSender;
    sim::SmtCore &receiverCore =
        os ? os->party(cfg.receiverCore, /*migratable=*/true)
           : *plainReceiver;

    const TransmissionSchedule sched = transmissionSchedule(
        dSeq.size(), proto.ts, cfg.senderStartSlots, cfg.sampleMargin);
    SenderProgram sender(sets.senderLines, dSeq, proto.ts);
    ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                             proto.tr, sched.sampleCount);

    const ThreadId senderTid = senderCore.addThread(
        &sender, sim::AddressSpace(1), sched.senderStart);
    const ThreadId receiverTid =
        receiverCore.addThread(&receiver, sim::AddressSpace(2), 0);

    const Cycles end =
        os ? os->run(sched.horizon * os->horizonStretch())
           : sim::runCores({&senderCore, &receiverCore}, sched.horizon);

    CrossRawRun raw;
    raw.latencies = receiver.latencies();
    raw.simulatedCycles = end;
    raw.senderCounters = mc.counters(cfg.senderCore, senderTid);
    if (os) {
        // A migrated receiver charged counters on every core it
        // visited; its scheduler-allocated tid is system-unique, so
        // the merge picks up only its own accesses.
        for (unsigned c = 0; c < mc.coreCount(); ++c)
            raw.receiverCounters.merge(mc.counters(c, receiverTid));
        raw.schedulerStats = os->stats();
    } else {
        raw.receiverCounters = mc.counters(cfg.receiverCore, receiverTid);
    }
    raw.senderTid = senderTid;
    raw.receiverTid = receiverTid;
    raw.calibration = std::move(cal);
    return raw;
}

/** Bind one transport burst to the multi-core platform. */
LinkRun
crossCoreLinkRun(const CrossCoreChannelConfig &base, const BitVec &stream,
                 const RateStep &rate, std::uint64_t seed)
{
    CrossCoreChannelConfig cfg = base;
    cfg.seed = seed;
    // The ladder only ever keeps Ts (binary fallback and the
    // d-shrink footprint rungs) or widens it by powers of two, so
    // the Tr:Ts ratio survives the integer arithmetic exactly.
    cfg.protocol.tr = base.protocol.tr * (rate.ts / base.protocol.ts);
    cfg.protocol.ts = rate.ts;
    cfg.protocol.encoding = rate.encoding;
    const Encoding &enc = cfg.protocol.encoding;

    BitVec padded = stream;
    while (padded.size() % enc.bitsPerSymbol() != 0)
        padded.push_back(false);

    const std::vector<unsigned> dSeq = frameToLevels(padded, enc);
    CrossRawRun raw = runCrossCoreRaw(cfg, dSeq);

    LinkRun run;
    run.bits = symbolsToBits(
        classifyAll(raw.latencies, raw.calibration.classifierFor(enc)),
        enc);
    run.simulatedCycles = raw.simulatedCycles;
    run.schedulerStats = raw.schedulerStats;
    run.closed = raw.calibration.closedFor(enc);
    return run;
}

} // namespace

ChannelResult
runCrossCoreChannel(const CrossCoreChannelConfig &cfg)
{
    const ProtocolConfig &proto = cfg.protocol;
    const Encoding &enc = proto.encoding;

    Rng frameRng(cfg.seed ^ 0xf00dULL);
    const BitVec frame = randomFrame(proto.frameBits - 16, frameRng);
    if (frame.size() % enc.bitsPerSymbol() != 0)
        fatalf("runCrossCoreChannel: frame bits ", frame.size(),
               " not divisible by bits/symbol ", enc.bitsPerSymbol());

    // --- Per-slot dirty-line levels for all frame repetitions ---
    const auto frameLevels = frameToLevels(frame, enc);
    std::vector<unsigned> dSeq;
    dSeq.reserve(frameLevels.size() * proto.frames);
    for (unsigned f = 0; f < proto.frames; ++f)
        dSeq.insert(dSeq.end(), frameLevels.begin(), frameLevels.end());

    CrossRawRun raw = runCrossCoreRaw(cfg, dSeq);
    const Classifier classifier = raw.calibration.classifierFor(enc);

    // --- Decode ---
    ChannelResult res;
    res.latencies = std::move(raw.latencies);
    DecodeResult dec = decodeTransmission(res.latencies, classifier, enc,
                                          frame, proto.frames);
    res.ber = dec.ber;
    res.breakdown = dec.breakdown;
    res.aligned = dec.aligned;
    res.framesScored = dec.framesScored;
    res.framesExpected = dec.framesExpected;
    res.closed = raw.calibration.closedFor(enc);
    res.rateKbps = proto.rateKbps();
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

TransportResult
runCrossCoreTransport(const CrossCoreChannelConfig &cfg,
                      const BitVec &message)
{
    if (!cfg.transport.enabled) {
        return legacyTransportResult(runCrossCoreChannel(cfg),
                                     cfg.protocol);
    }
    const TransportLink link = [&cfg](const BitVec &stream,
                                      const RateStep &rate,
                                      std::uint64_t seed) {
        return crossCoreLinkRun(cfg, stream, rate, seed);
    };
    return runTransportSession(cfg.transport, cfg.protocol, message, link,
                               cfg.seed);
}

TransportResult
runCrossCoreTransport(const CrossCoreChannelConfig &cfg)
{
    Rng msgRng(cfg.seed ^ 0x7ea45007ULL);
    const std::size_t bits =
        std::size_t(cfg.transport.messageFrames) *
        cfg.transport.layout.payloadBits;
    BitVec message;
    message.reserve(bits);
    for (std::size_t i = 0; i < bits; ++i)
        message.push_back(msgRng.flip());
    return runCrossCoreTransport(cfg, message);
}

} // namespace wb::chan
