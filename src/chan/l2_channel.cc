#include "chan/l2_channel.hh"

#include "chan/pipeline.hh"
#include "chan/receiver.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

L2Sets
makeL2Sets(const sim::AddressLayout &l1Layout,
           const sim::AddressLayout &l2Layout, unsigned targetL2Set,
           unsigned senderCount, unsigned pusherCount,
           unsigned replacementSize)
{
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
    : lines_(std::move(lines)), pushers_(std::move(pushers)),
      bits_(std::move(bits)), d_(d), ts_(ts)
{
    if (d_ > lines_.size())
        fatalf("L2SenderProgram: needs ", d_, " lines, got ",
               lines_.size());
    if (pushers_.empty())
        fatalf("L2SenderProgram: needs pusher lines");
}

std::optional<sim::MemOp>
L2SenderProgram::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Store:
        return sim::MemOp::store(lines_[lineIdx_]);
      case Phase::Push:
        return sim::MemOp::load(pushers_[pushIdx_]);
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + ts_);
    }
    return sim::MemOp::halt();
}

void
L2SenderProgram::onResult(const sim::MemOp &op, const sim::OpResult &res,
                          sim::ProcView &)
{
    auto beginSlot = [this]() {
        if (bitIdx_ >= bits_.size()) {
            done_ = true;
            phase_ = Phase::Wait; // final spin, then the run ends
            return;
        }
        lineIdx_ = 0;
        pushIdx_ = 0;
        phase_ = bits_[bitIdx_] ? Phase::Store : Phase::Wait;
    };

    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        beginSlot();
        break;
      case sim::MemOp::Kind::Store:
        pushIdx_ = 0;
        phase_ = Phase::Push;
        break;
      case sim::MemOp::Kind::Load:
        ++pushIdx_;
        if (pushIdx_ >= pushers_.size()) {
            // This line's write-back has been forced into L2.
            ++lineIdx_;
            phase_ = lineIdx_ < d_ ? Phase::Store : Phase::Wait;
        }
        break;
      case sim::MemOp::Kind::SpinUntil:
        if (done_) {
            phase_ = Phase::Init; // unreachable; next() halts via done_
            bits_.clear();
            break;
        }
        tlast_ = res.tsc;
        ++bitIdx_;
        beginSlot();
        break;
      default:
        break;
    }
}

namespace
{

/**
 * In-situ calibration of the L2 channel, indexed by symbol: level 0 is
 * a 0-bit, level 1 a 1-bit (d lines written and pushed into L2).
 */
Calibration
calibrateL2(const L2ChannelConfig &cfg, const L2Sets &sets, Rng &rng)
{
    sim::Hierarchy hierarchy(cfg.platform, &rng);
    const sim::AddressSpace senderSpace(1);
    const auto pushIntoL2 = [&](unsigned level) {
        if (level == 0)
            return;
        for (unsigned i = 0; i < cfg.d; ++i) {
            hierarchy.access(0, senderSpace.translate(sets.senderLines[i]),
                             true);
            // Push the dirty line out of L1 into L2.
            hierarchy.accessBatch(0, senderSpace, sets.pushers, false);
        }
    };
    CalibrationConfig calCfg;
    calCfg.measurements = cfg.calMeasurements;
    calCfg.discard = 4;
    // Three warm-up sweeps: the first pass pulls the sets from DRAM.
    const CalibrationPorts ports{hierarchy, /*senderTid=*/0, hierarchy,
                                 /*receiverTid=*/1, /*warmSweeps=*/3,
                                 pushIntoL2};
    return calibrateOnPorts(ports, sets, /*mix=*/{0, 1}, /*maxLevel=*/1,
                            calCfg, cfg.noise, rng);
}

/** The L2 placement's pass: SMT siblings sharing one L2 set. */
pipeline::RawRun
runL2Raw(const L2ChannelConfig &cfg, const std::vector<unsigned> &levels,
         Rng &calRng, Rng &runRng)
{
    const L2Sets sets = makeL2Sets(
        sim::AddressLayout(cfg.platform.l1.numSets()),
        sim::AddressLayout(cfg.platform.l2.numSets()), cfg.targetL2Set,
        cfg.platform.l2.ways, cfg.pusherLines, cfg.replacementSize);
    pipeline::RawRun raw;
    raw.calibration = calibrateL2(cfg, sets, calRng);

    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    sim::SmtCore core(hierarchy, cfg.noise, runRng);

    // A nonzero level is a 1-bit.
    const std::vector<bool> bits(levels.begin(), levels.end());
    L2SenderProgram sender(sets.senderLines, sets.pushers, bits, cfg.d,
                           cfg.ts);
    const std::size_t sampleCount = bits.size() + 8 + 96;
    ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                             cfg.tr, sampleCount, /*warmupSweeps=*/3);

    const Cycles senderStart = 8 * cfg.ts;
    raw.senderTid =
        core.addThread(&sender, sim::AddressSpace(1), senderStart);
    raw.receiverTid = core.addThread(&receiver, sim::AddressSpace(2), 0);

    const Cycles horizon = senderStart +
        Cycles(bits.size() + 8) * (cfg.ts + 60) + 400000;
    raw.simulatedCycles = core.run(horizon);
    raw.latencies = receiver.latencies();
    raw.senderCounters = hierarchy.counters(raw.senderTid);
    raw.receiverCounters = hierarchy.counters(raw.receiverTid);
    return raw;
}

} // namespace

ChannelResult
runL2Channel(const L2ChannelConfig &cfg)
{
    pipeline::requireSetIndex("L2ChannelConfig::targetL2Set",
                              cfg.targetL2Set, cfg.platform.l2.numSets());
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();
    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);

    // Binary symbols, calibrated per symbol (see calibrateL2).
    const pipeline::Pass pass{
        Encoding::binary(1), 1, cfg.rateKbps(), [&](const auto &levels) {
            return runL2Raw(cfg, levels, calRng, runRng);
        }};
    return pipeline::runFrames(pass, frame, cfg.frames);
}

} // namespace wb::chan
