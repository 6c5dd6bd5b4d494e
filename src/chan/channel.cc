#include "chan/channel.hh"

#include <memory>
#include <optional>

#include "common/log.hh"
#include "chan/degraded.hh"
#include "chan/pipeline.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"
#include "sim/scheduler.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

namespace
{

/** The same-core placement's pass: SMT siblings sharing one L1 set. */
pipeline::RawRun
runRawSequence(const ChannelConfig &cfg, const std::vector<unsigned> &dSeq)
{
    const ProtocolConfig &proto = cfg.protocol;
    const sim::ObserverModel &obs = cfg.noise.observer;

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
        calCfg.levelsMix = proto.encoding.levels();
    calCfg.targetSet = proto.targetSet;
    calCfg.replacementSize = proto.replacementSize;
    pipeline::RawRun raw;
    raw.calibration = calibrate(cfg.platform, cfg.noise, calCfg, calRng);

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
                                   &raw.evictionDiscoveryVerified);
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
    ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                             proto.tr, schedule.sampleCount,
                             /*warmupSweeps=*/2,
                             obs.cls == sim::ObserverClass::FlushLatency
                                 ? CalibrationProbe::FlushLatency
                                 : CalibrationProbe::LoadTiming);

    raw.senderTid = core.addThread(&sender, sim::AddressSpace(1),
                                   schedule.senderStart);
    raw.receiverTid = core.addThread(&receiver, sim::AddressSpace(2), 0);

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

    raw.simulatedCycles =
        sched ? sched->run(schedule.horizon * sched->horizonStretch())
              : core.run(schedule.horizon);
    raw.latencies = receiver.latencies();
    raw.senderCounters = hierarchy.counters(raw.senderTid);
    raw.receiverCounters = hierarchy.counters(raw.receiverTid);
    if (sched)
        raw.schedulerStats = sched->stats();
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
    DegradedPlan plan = planDegraded(userCfg);
    const ProtocolConfig &proto = plan.cfg.protocol;
    return {proto.encoding, plan.repetition, proto.rateKbps(),
            [cfg = std::move(plan.cfg)](const auto &levels) {
                return runRawSequence(cfg, levels);
            }};
}

} // namespace

ChannelResult
runChannel(const ChannelConfig &cfg)
{
    return pipeline::runShot(cfg, sameCorePass);
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
    BitVec frame = preamble16();
    const BitVec payload = fromString(msg);
    frame.insert(frame.end(), payload.begin(), payload.end());
    // Pad to a whole number of symbols.
    while (frame.size() % cfg.protocol.encoding.bitsPerSymbol() != 0)
        frame.push_back(false);

    ChannelResult res =
        pipeline::runFrames(sameCorePass(cfg), frame, /*frames=*/1);

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
