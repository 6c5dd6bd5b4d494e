#include "chan/cross_core.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "chan/pipeline.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"

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

/** The cross-core pass: two cores, one LLC set, no observer plan. */
pipeline::Pass
crossCorePass(const CrossCoreChannelConfig &cfg)
{
    validate(cfg);
    const ProtocolConfig &proto = cfg.protocol;

    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();
    Rng frameRng(cfg.seed ^ 0xf00dULL);

    // Pools against the LLC layout: the low LLC index bits survive
    // page-linear translation, so both parties reach the agreed set
    // from virtual addresses alone (Sec. IV generalized). Replacement
    // sets default to the whole LLC set plus slack.
    const ChannelSets sets = makeChannelSets(
        sim::AddressLayout(cfg.platform.llc.numSets()), cfg.targetLlcSet,
        std::max(1u, proto.encoding.maxLevel()),
        cfg.replacementSize ? cfg.replacementSize
                            : cfg.platform.llc.ways + 2);

    return {
        .encoding = proto.encoding,
        .rateKbps = proto.rateKbps(),
        .frame = pipeline::shotFrame(proto, frameRng),
        .calibration = calibrateCrossCore(cfg, sets, calRng),
        .run = [cfg, sets, runRng](const std::vector<unsigned> &dSeq) {
            pipeline::CrossCoreWiring wiring(cfg, cfg.cores, cfg.senderCore,
                                             cfg.receiverCore, dSeq.size(),
                                             runRng);
            SenderProgram sender(sets.senderLines, dSeq, cfg.protocol.ts);
            ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                                     cfg.protocol.tr,
                                     wiring.schedule().sampleCount);
            return wiring.run(sender, receiver);
        }};
}

} // namespace

ChannelResult
runCrossCoreChannel(const CrossCoreChannelConfig &cfg)
{
    return pipeline::runShot(crossCorePass(cfg), cfg.protocol.frames);
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
