#include "chan/multiset.hh"

#include "chan/calibration.hh"
#include "chan/pipeline.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

MultiSetSender::MultiSetSender(std::vector<std::vector<Addr>> linePools,
                               std::vector<bool> bits, unsigned d,
                               Cycles ts)
    : PacedProgram(ts), pools_(std::move(linePools)),
      bits_(std::move(bits)), d_(d)
{
    if (pools_.empty())
        fatalf("MultiSetSender: needs at least one set pool");
    for (const auto &pool : pools_)
        if (pool.size() < d_)
            fatalf("MultiSetSender: pool smaller than d");
}

void
MultiSetSender::buildSlot(std::size_t index, const sim::OpResult &,
                          sim::ProcView &)
{
    const std::size_t k = pools_.size();
    for (std::size_t j = 0; j < k; ++j) {
        const std::size_t bitIdx = index * k + j;
        if (bitIdx >= bits_.size()) {
            // The message ends here, mid-slot or at a slot boundary.
            halt();
            return;
        }
        if (bits_[bitIdx]) {
            for (unsigned i = 0; i < d_; ++i)
                op(sim::MemOp::store(pools_[j][i]));
        }
    }
}

MultiSetReceiver::MultiSetReceiver(std::vector<std::vector<Addr>> replA,
                                   std::vector<std::vector<Addr>> replB,
                                   Cycles tr, std::size_t slots)
    : PacedProgram(tr, /*measNoise=*/true), slots_(slots)
{
    if (replA.empty() || replA.size() != replB.size())
        fatalf("MultiSetReceiver: mismatched replacement pools");
    std::vector<Addr> warmup;
    for (auto &pool : replA) {
        warmup.insert(warmup.end(), pool.begin(), pool.end());
        chaseA_.emplace_back(std::move(pool));
    }
    for (auto &pool : replB) {
        warmup.insert(warmup.end(), pool.begin(), pool.end());
        chaseB_.emplace_back(std::move(pool));
    }
    // Two warm-up sweeps over everything, one load at a time.
    for (int sweep = 0; sweep < 2; ++sweep)
        for (Addr a : warmup)
            startupOp(sim::MemOp::load(a));
}

void
MultiSetReceiver::buildSlot(std::size_t index, const sim::OpResult &start,
                            sim::ProcView &view)
{
    if (index == 0)
        return;
    // Slot overrun: the previous slot's k chases spilling past the
    // boundary shows up as an immediately released spin.
    if (start.latency == 0)
        ++overruns_;
    chases_ = useA_ ? &chaseA_ : &chaseB_;
    useA_ = !useA_;
    setIdx_ = 0;
    (*chases_)[0].reshuffle(view.rng());
    for (const PointerChase &chase : *chases_) {
        openWindow();
        op(sim::MemOp::loadBatch(chase.order().data(), chase.size()));
        closeWindow();
    }
    if (index >= slots_)
        halt();
}

void
MultiSetReceiver::onSample(sim::ProcView &view)
{
    if (++setIdx_ < chases_->size())
        (*chases_)[setIdx_].reshuffle(view.rng());
}

namespace
{

/** The multi-set placement's pass: k L1 sets striped per slot. */
pipeline::RawRun
runMultiSetRaw(const MultiSetConfig &cfg,
               const std::vector<unsigned> &levels, Rng &calRng,
               Rng &runRng)
{
    // Calibrate once on set 0 (sets are symmetric by construction).
    CalibrationConfig calCfg;
    calCfg.targetSet = cfg.targetSet(0);
    calCfg.replacementSize = cfg.replacementSize;
    calCfg.measurements = cfg.calMeasurements;
    calCfg.levelsMix = {0, cfg.d};
    pipeline::RawRun raw;
    raw.calibration = calibrate(cfg.platform, cfg.noise, calCfg, calRng);

    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    sim::SmtCore core(hierarchy, cfg.noise, runRng);
    const auto &layout = hierarchy.l1().layout();
    const unsigned k = cfg.setCount;

    std::vector<std::vector<Addr>> senderPools, replA, replB;
    for (unsigned j = 0; j < k; ++j) {
        ChannelSets sets = makeChannelSets(layout, cfg.targetSet(j),
                                           cfg.platform.l1.ways,
                                           cfg.replacementSize);
        senderPools.push_back(std::move(sets.senderLines));
        replA.push_back(std::move(sets.replacementA));
        replB.push_back(std::move(sets.replacementB));
    }

    // A nonzero level is a 1-bit.
    const std::vector<bool> bits(levels.begin(), levels.end());
    MultiSetSender sender(senderPools, bits, cfg.d, cfg.ts);
    const std::size_t slots = (bits.size() + k - 1) / k + 8 + 64;
    MultiSetReceiver receiver(replA, replB, cfg.tr, slots);

    const Cycles senderStart = 8 * cfg.ts;
    raw.senderTid =
        core.addThread(&sender, sim::AddressSpace(1), senderStart);
    raw.receiverTid = core.addThread(&receiver, sim::AddressSpace(2), 0);

    const Cycles horizon =
        senderStart + Cycles(slots + 8) * (cfg.ts + 60) + 400000;
    raw.simulatedCycles = core.run(horizon);
    raw.latencies = receiver.latencies();
    raw.senderCounters = hierarchy.counters(raw.senderTid);
    raw.receiverCounters = hierarchy.counters(raw.receiverTid);
    return raw;
}

} // namespace

ChannelResult
runMultiSetChannel(const MultiSetConfig &cfg)
{
    // targetSet(j) strides 8 sets modulo 64: past 8 stripes, or from a
    // firstSet past 63, stripes silently reuse sets.
    if (cfg.setCount == 0 || cfg.setCount > 8 || cfg.firstSet >= 64)
        fatalf("MultiSetConfig::setCount = ", cfg.setCount,
               " / firstSet = ", cfg.firstSet,
               " is out of range: 1..8 stripes from a set below 64");
    for (unsigned j = 0; j < cfg.setCount; ++j)
        pipeline::requireSetIndex("MultiSetConfig::targetSet(j)",
                                  cfg.targetSet(j),
                                  cfg.platform.l1.numSets());
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();
    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);

    const pipeline::Pass pass{
        Encoding::binary(cfg.d), 1, cfg.rateKbps(), [&](const auto &levels) {
            return runMultiSetRaw(cfg, levels, calRng, runRng);
        }};
    return pipeline::runFrames(pass, frame, cfg.frames);
}

} // namespace wb::chan
