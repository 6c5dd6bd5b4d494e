#include "chan/channel.hh"

#include "common/log.hh"
#include "chan/degraded.hh"
#include "chan/pipeline.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"

namespace wb::chan
{

namespace
{

/** The same-core placement's run: SMT siblings sharing one L1 set. */
ChannelResult
runRawSequence(const ChannelConfig &cfg, const Rng &runRng,
               Rng discoveryRng, const std::vector<unsigned> &dSeq)
{
    const ProtocolConfig &proto = cfg.protocol;
    const sim::ObserverModel &obs = cfg.noise.observer;

    pipeline::SameCoreWiring wiring(cfg, dSeq.size(), runRng);
    ChannelSets sets;
    bool discoveryVerified = true;
    if (obs.cls == sim::ObserverClass::EvictionOnly) {
        // Eviction-only observer: the receiver's replacement sets come
        // from live timing-test discovery, not set arithmetic. Runs
        // against the raw hierarchy before the parties launch (the
        // attacker's setup phase); its accesses land in the eventual
        // receiver tid's counters.
        sets = discoverChannelSets(wiring.hierarchy(), /*tid=*/1,
                                   proto.targetSet, cfg.platform.l1.ways,
                                   proto.replacementSize, discoveryRng,
                                   &discoveryVerified);
    } else {
        sets = makeChannelSets(wiring.hierarchy().l1().layout(),
                               proto.targetSet, cfg.platform.l1.ways,
                               proto.replacementSize);
    }

    SenderProgram sender(sets.senderLines, dSeq, proto.ts);
    // The receiver variant follows the observer: Flushgeist reads the
    // write-back queue through timed clflush; everyone else times the
    // replacement-set chase (the eviction-only observer's receiver is
    // the load-timing one — it never flushes).
    ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                             proto.tr, wiring.schedule().sampleCount,
                             /*warmupSweeps=*/2,
                             obs.cls == sim::ObserverClass::FlushLatency
                                 ? CalibrationProbe::FlushLatency
                                 : CalibrationProbe::LoadTiming);

    ChannelResult raw = wiring.run(sender, receiver);
    raw.evictionDiscoveryVerified = discoveryVerified;
    return raw;
}

/**
 * The same-core pass, adjusted for its observer by planDegraded (a
 * no-op, and bit-identical, for the default cycle-accurate one). A
 * transport burst plans after its rung reshaped the pacing, so a
 * coarse plan re-aligns the rung's Ts/Tr to the granule.
 */
pipeline::Pass
sameCorePass(const ChannelConfig &userCfg)
{
    pipeline::requireSetIndex("ProtocolConfig::targetSet",
                              userCfg.protocol.targetSet,
                              userCfg.platform.l1.numSets());
    const unsigned top = userCfg.protocol.encoding.maxLevel();
    if (top > userCfg.platform.l1.ways)
        fatalf("runChannel: encoding level ", top,
               " exceeds associativity ", userCfg.platform.l1.ways);
    const DegradedPlan plan = planDegraded(userCfg);
    const ChannelConfig &cfg = plan.cfg;
    const ProtocolConfig &proto = cfg.protocol;

    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();
    // Split after the calibration and run streams, so they are the same
    // for every observer; only eviction-only set discovery draws on it.
    const Rng discoveryRng = rootRng.split();
    Rng frameRng(cfg.seed ^ 0xf00dULL);

    // --- Offline calibration -> classifier centroids. The mix of
    // dirty-line levels matches the live encoding so the measured
    // steady-state baseline is the one the receiver will see. ---
    CalibrationConfig calCfg = cfg.calibration;
    if (calCfg.levelsMix.empty())
        calCfg.levelsMix = proto.encoding.levels();
    calCfg.targetSet = proto.targetSet;
    calCfg.replacementSize = proto.replacementSize;

    return {
        .encoding = proto.encoding,
        .repetition = plan.repetition,
        .rateKbps = proto.rateKbps(),
        .frame = pipeline::shotFrame(proto, frameRng),
        .calibration = calibrate(cfg.platform, cfg.noise, calCfg, calRng),
        .run = [cfg, runRng, discoveryRng](const auto &dSeq) {
            return runRawSequence(cfg, runRng, discoveryRng, dSeq);
        }};
}

} // namespace

ChannelResult
runChannel(const ChannelConfig &cfg)
{
    return pipeline::runShot(sameCorePass(cfg), cfg.protocol.frames);
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
    return pipeline::runTransportOver(cfg, message, sameCorePass);
}

TransportResult
runTransport(const ChannelConfig &cfg)
{
    return runTransport(cfg, pipeline::randomMessage(cfg.transport,
                                                     cfg.seed));
}

std::string
transmitString(const ChannelConfig &cfg, const std::string &msg,
               ChannelResult *result)
{
    pipeline::Pass pass = sameCorePass(cfg);
    pass.frame = preamble16();
    const BitVec payload = fromString(msg);
    pass.frame.insert(pass.frame.end(), payload.begin(), payload.end());
    // Pad to a whole number of symbols.
    while (pass.frame.size() % cfg.protocol.encoding.bitsPerSymbol() != 0)
        pass.frame.push_back(false);

    const ChannelResult res = pipeline::runShot(pass, /*frames=*/1);

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
