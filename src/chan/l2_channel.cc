#include "chan/l2_channel.hh"

#include "chan/pipeline.hh"
#include "chan/receiver.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"

namespace wb::chan
{

L2Sets
makeL2Sets(const sim::AddressLayout &l1Layout,
           const sim::AddressLayout &l2Layout, unsigned targetL2Set,
           unsigned senderCount, unsigned pusherCount,
           unsigned replacementSize)
{
    if (l2Layout.numSets() <= l1Layout.numSets())
        fatalf("makeL2Sets: the L2 has ", l2Layout.numSets(),
               " sets, no more than the L1's ", l1Layout.numSets(),
               ": no other L2 set shares an L1 set, so no pusher "
               "line exists");
    L2Sets sets;
    sets.senderLines =
        linesForSet(l2Layout, targetL2Set, senderCount, /*tagBase=*/1);
    sets.replacementA = linesForSet(l2Layout, targetL2Set,
                                    replacementSize, /*tagBase=*/0x1000);
    sets.replacementB = linesForSet(l2Layout, targetL2Set,
                                    replacementSize, /*tagBase=*/0x2000);

    // Pushers: same L1 set as the target L2 set's lines, but in other
    // L2 sets. The L1 index is the low bits of the L2 index.
    const unsigned l1Set =
        targetL2Set & (l1Layout.numSets() - 1);
    const unsigned groups =
        l2Layout.numSets() / l1Layout.numSets(); // L2 sets per L1 set
    unsigned produced = 0;
    for (Addr tag = 0x50; produced < pusherCount; ++tag) {
        for (unsigned g = 0; g < groups && produced < pusherCount; ++g) {
            const unsigned l2Set = l1Set + g * l1Layout.numSets();
            if (l2Set == targetL2Set)
                continue; // never touch the target L2 set
            sets.pushers.push_back(l2Layout.compose(l2Set, tag));
            ++produced;
        }
    }
    return sets;
}

L2SenderProgram::L2SenderProgram(std::vector<Addr> lines,
                                 std::vector<Addr> pushers,
                                 std::vector<bool> bits, unsigned d,
                                 Cycles ts)
    : PacedProgram(ts), lines_(std::move(lines)),
      pushers_(std::move(pushers)), bits_(std::move(bits)), d_(d)
{
    if (d_ > lines_.size())
        fatalf("L2SenderProgram: needs ", d_, " lines, got ",
               lines_.size());
    if (pushers_.empty())
        fatalf("L2SenderProgram: needs pusher lines");
}

void
L2SenderProgram::buildSlot(std::size_t index, const sim::OpResult &,
                           sim::ProcView &)
{
    if (index >= bits_.size()) {
        halt();
        return;
    }
    if (!bits_[index])
        return;
    // Dirty each target line in L1, then sweep the pushers so its
    // write-back lands in the target L2 set.
    for (unsigned i = 0; i < d_; ++i) {
        op(sim::MemOp::store(lines_[i]));
        for (Addr p : pushers_)
            op(sim::MemOp::load(p));
    }
}

namespace
{

/**
 * In-situ calibration of the L2 channel, indexed by symbol: level 0 is
 * a 0-bit, level 1 a 1-bit (d lines written and pushed into L2).
 */
Calibration
calibrateL2(const ChannelConfig &cfg, const L2Sets &sets, unsigned d,
            Rng &rng)
{
    sim::Hierarchy hierarchy(cfg.platform, &rng);
    const sim::AddressSpace senderSpace(1);
    const auto pushIntoL2 = [&](unsigned level) {
        if (level == 0)
            return;
        for (unsigned i = 0; i < d; ++i) {
            hierarchy.access(0, senderSpace.translate(sets.senderLines[i]),
                             true);
            // Push the dirty line out of L1 into L2.
            hierarchy.accessBatch(0, senderSpace, sets.pushers, false);
        }
    };
    CalibrationConfig calCfg;
    calCfg.measurements = cfg.calibration.measurements;
    calCfg.discard = 4;
    // Three warm-up sweeps: the first pass pulls the sets from DRAM.
    const CalibrationPorts ports{hierarchy, /*senderTid=*/0, hierarchy,
                                 /*receiverTid=*/1, /*warmSweeps=*/3,
                                 pushIntoL2};
    return calibrateOnPorts(ports, sets, /*mix=*/{0, 1}, /*maxLevel=*/1,
                            calCfg, cfg.noise, rng);
}

} // namespace

ChannelResult
runL2Channel(const ChannelConfig &cfg, unsigned pusherLines)
{
    const ProtocolConfig &proto = cfg.protocol;
    pipeline::requireSetIndex("ProtocolConfig::targetSet", proto.targetSet,
                              cfg.platform.l2.numSets());
    const unsigned d = pipeline::binaryTopLevel(
        "runL2Channel", proto.encoding, cfg.platform.l2.ways);
    if (cfg.noiseProcesses != 0)
        fatalf("runL2Channel: ChannelConfig::noiseProcesses = ",
               cfg.noiseProcesses, " is not modeled on the L2 channel "
               "(noise processes sit on an L1 set; targetSet is an L2 "
               "index)");
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    const L2Sets sets = makeL2Sets(
        sim::AddressLayout(cfg.platform.l1.numSets()),
        sim::AddressLayout(cfg.platform.l2.numSets()), proto.targetSet,
        cfg.platform.l2.ways, pusherLines, proto.replacementSize);

    // Binary symbols, calibrated per symbol (see calibrateL2): the pass
    // runs on levels 0/1 whatever d is.
    const pipeline::Pass pass{
        .encoding = Encoding::binary(1),
        .rateKbps = proto.rateKbps(),
        .frame = pipeline::shotFrame(proto, frameRng),
        .calibration = calibrateL2(cfg, sets, d, calRng),
        .run = [cfg, proto, sets, d,
                runRng](const std::vector<unsigned> &levels) {
            // A nonzero level is a 1-bit.
            const std::vector<bool> bits(levels.begin(), levels.end());
            L2SenderProgram sender(sets.senderLines, sets.pushers, bits, d,
                                   proto.ts);
            pipeline::SameCoreWiring wiring(cfg, bits.size(), runRng);
            ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                                     proto.tr,
                                     wiring.schedule().sampleCount,
                                     /*warmupSweeps=*/3);
            return wiring.run(sender, receiver);
        }};
    return pipeline::runShot(pass, proto.frames);
}

} // namespace wb::chan
