#include "chan/cross_core.hh"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/log.hh"
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
    pipeline::requireSetIndex("CrossCoreChannelConfig::targetLlcSet",
                              cfg.targetLlcSet, cfg.platform.llc.numSets());
    const unsigned top = cfg.protocol.encoding.maxLevel();
    if (top > cfg.platform.llc.ways)
        fatalf("runCrossCoreChannel: encoding level ", top,
               " exceeds LLC associativity ", cfg.platform.llc.ways);
}

/** The Fig. 4 calibration carried to LLC granularity: each party
 *  works from its own core of a fresh MultiCoreSystem. */
Calibration
calibrateCrossCore(const CrossCoreChannelConfig &cfg,
                   const ChannelSets &sets, Rng &rng)
{
    sim::MultiCoreSystem mc(cfg.platform, cfg.cores, &rng);
    std::vector<unsigned> mix = cfg.calibration.levelsMix;
    if (mix.empty())
        mix = cfg.protocol.encoding.levels();
    return calibrateOnPorts({mc.port(cfg.senderCore), /*senderTid=*/0,
                             mc.port(cfg.receiverCore), /*receiverTid=*/0},
                            sets, mix, cfg.protocol.encoding.maxLevel(),
                            cfg.calibration, cfg.noise, rng);
}

/** The cross-core placement's pass: parties on two cores, one LLC set. */
pipeline::RawRun
runCrossCoreRaw(const CrossCoreChannelConfig &cfg,
                const std::vector<unsigned> &dSeq)
{
    const ProtocolConfig &proto = cfg.protocol;

    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();

    // Pools against the LLC layout: the low LLC index bits survive
    // page-linear translation, so both parties reach the agreed set
    // from virtual addresses alone (Sec. IV generalized). Replacement
    // sets default to the whole LLC set plus slack.
    const ChannelSets sets = makeChannelSets(
        sim::AddressLayout(cfg.platform.llc.numSets()), cfg.targetLlcSet,
        std::max(1u, proto.encoding.maxLevel()),
        cfg.replacementSize ? cfg.replacementSize
                            : cfg.platform.llc.ways + 2);

    // --- Offline calibration -> classifier centroids ---
    pipeline::RawRun raw;
    raw.calibration = calibrateCrossCore(cfg, sets, calRng);

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

    raw.senderTid = senderCore.addThread(&sender, sim::AddressSpace(1),
                                         sched.senderStart);
    raw.receiverTid =
        receiverCore.addThread(&receiver, sim::AddressSpace(2), 0);

    raw.simulatedCycles =
        os ? os->run(sched.horizon * os->horizonStretch())
           : sim::runCores({&senderCore, &receiverCore}, sched.horizon);
    raw.latencies = receiver.latencies();
    raw.senderCounters = mc.counters(cfg.senderCore, raw.senderTid);
    if (os) {
        // A migrated receiver charged counters on every core it
        // visited; its scheduler-allocated tid is system-unique, so
        // the merge picks up only its own accesses.
        for (unsigned c = 0; c < mc.coreCount(); ++c)
            raw.receiverCounters.merge(mc.counters(c, raw.receiverTid));
        raw.schedulerStats = os->stats();
    } else {
        raw.receiverCounters =
            mc.counters(cfg.receiverCore, raw.receiverTid);
    }
    return raw;
}

/** The cross-core pass (no observer plan: docs/README.md). */
pipeline::Pass
crossCorePass(const CrossCoreChannelConfig &cfg)
{
    validate(cfg);
    return {cfg.protocol.encoding, 1, cfg.protocol.rateKbps(),
            [cfg](const auto &levels) {
                return runCrossCoreRaw(cfg, levels);
            }};
}

} // namespace

ChannelResult
runCrossCoreChannel(const CrossCoreChannelConfig &cfg)
{
    return pipeline::runShot(cfg, crossCorePass);
}

TransportResult
runCrossCoreTransport(const CrossCoreChannelConfig &cfg,
                      const BitVec &message)
{
    return pipeline::runTransportOver(cfg, message, crossCorePass);
}

TransportResult
runCrossCoreTransport(const CrossCoreChannelConfig &cfg)
{
    return runCrossCoreTransport(
        cfg, pipeline::randomMessage(cfg.transport, cfg.seed));
}

} // namespace wb::chan
