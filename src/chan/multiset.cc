#include "chan/multiset.hh"

#include "chan/calibration.hh"
#include "chan/pipeline.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"

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
MultiSetReceiver::buildSlot(std::size_t index, const sim::OpResult &,
                            sim::ProcView &view)
{
    if (index == 0)
        return;
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

/** The multi-set pass: k bits a slot, striped over k L1 sets. */
pipeline::Pass
multiSetPass(const ChannelConfig &cfg, unsigned setCount)
{
    const ProtocolConfig &proto = cfg.protocol;
    // Stripe j sits on (targetSet + 8j) mod 64: past 8 stripes, or from
    // a targetSet past 63, stripes silently reuse sets.
    if (setCount == 0 || setCount > 8 || proto.targetSet >= 64)
        fatalf("runMultiSetChannel: setCount = ", setCount,
               " / ProtocolConfig::targetSet = ", proto.targetSet,
               " is out of range: 1..8 stripes from a set below 64");
    const auto stripeSet = [&](unsigned j) {
        return (proto.targetSet + 8 * j) % 64;
    };
    for (unsigned j = 0; j < setCount; ++j)
        pipeline::requireSetIndex("runMultiSetChannel: stripe set",
                                  stripeSet(j), cfg.platform.l1.numSets());
    const unsigned d = pipeline::binaryTopLevel(
        "runMultiSetChannel", proto.encoding, cfg.platform.l1.ways);
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    const sim::AddressLayout layout(cfg.platform.l1.numSets());
    std::vector<std::vector<Addr>> senderPools, replA, replB;
    for (unsigned j = 0; j < setCount; ++j) {
        ChannelSets sets = makeChannelSets(layout, stripeSet(j),
                                           cfg.platform.l1.ways,
                                           proto.replacementSize);
        senderPools.push_back(std::move(sets.senderLines));
        replA.push_back(std::move(sets.replacementA));
        replB.push_back(std::move(sets.replacementB));
    }

    // Calibrate once on stripe 0 (sets are symmetric by construction).
    CalibrationConfig calCfg = cfg.calibration;
    if (calCfg.levelsMix.empty())
        calCfg.levelsMix = proto.encoding.levels();
    calCfg.targetSet = proto.targetSet;
    calCfg.replacementSize = proto.replacementSize;

    return {
        .encoding = proto.encoding,
        .rateKbps = setCount * proto.rateKbps(),
        .frame = pipeline::shotFrame(proto, frameRng),
        .calibration = calibrate(cfg.platform, cfg.noise, calCfg, calRng),
        .run = [cfg, proto, setCount, d, senderPools, replA, replB,
                runRng](const std::vector<unsigned> &levels) {
            // A nonzero level is a 1-bit; k bits ride each slot.
            const std::vector<bool> bits(levels.begin(), levels.end());
            pipeline::SameCoreWiring wiring(
                cfg, (bits.size() + setCount - 1) / setCount, runRng);
            MultiSetSender sender(senderPools, bits, d, proto.ts);
            MultiSetReceiver receiver(replA, replB, proto.tr,
                                      wiring.schedule().sampleCount);
            return wiring.run(sender, receiver);
        }};
}

} // namespace

ChannelResult
runMultiSetChannel(const ChannelConfig &cfg, unsigned setCount)
{
    return pipeline::runShot(multiSetPass(cfg, setCount),
                             cfg.protocol.frames);
}

TransportResult
runMultiSetTransport(const ChannelConfig &cfg, const BitVec &message,
                     unsigned setCount)
{
    return pipeline::runTransportOver(
        cfg, message, [setCount](const ChannelConfig &burst) {
            return multiSetPass(burst, setCount);
        });
}

} // namespace wb::chan
