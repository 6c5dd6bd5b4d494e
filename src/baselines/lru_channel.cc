#include "baselines/lru_channel.hh"

#include "common/log.hh"
#include "chan/pipeline.hh"
#include "chan/set_mapping.hh"

namespace wb::baselines
{

LruReceiver::LruReceiver(std::vector<Addr> lines, Cycles tr,
                         std::size_t sampleCount)
    : PacedProgram(tr), lines_(std::move(lines)), sampleCount_(sampleCount)
{
    if (lines_.size() < 4 || lines_.size() % 2 != 0)
        fatalf("LruReceiver: needs an even number (>=4) of lines");
    // Two full sweeps fill the set and warm L2, as one batched sweep.
    warmupOrder_.reserve(2 * lines_.size());
    for (int sweep = 0; sweep < 2; ++sweep)
        warmupOrder_.insert(warmupOrder_.end(), lines_.begin(),
                            lines_.end());
    startupOp(sim::MemOp::loadBatch(warmupOrder_.data(),
                                    warmupOrder_.size()));
}

void
LruReceiver::buildSlot(std::size_t index, const sim::OpResult &,
                       sim::ProcView &)
{
    if (index == 0)
        return;
    // The decode half is contiguous in lines_: one batched sweep.
    const std::size_t half = lines_.size() / 2;
    op(sim::MemOp::loadBatch(lines_.data() + half, half));
    openWindow();
    op(sim::MemOp::load(lines_[0]));
    closeWindow();
    if (index >= sampleCount_)
        halt();
    else // re-access the init half behind the timed line
        op(sim::MemOp::loadBatch(lines_.data() + 1, half - 1));
}

LruSender::LruSender(Addr line, std::vector<bool> bits, Cycles ts,
                     Cycles modulateCycles)
    : PacedProgram(ts), line_(line), bits_(std::move(bits)),
      modulateCycles_(modulateCycles == 0 || modulateCycles > ts
                          ? ts
                          : modulateCycles)
{
}

void
LruSender::buildSlot(std::size_t index, const sim::OpResult &,
                     sim::ProcView &)
{
    if (index >= bits_.size())
        halt();
    else if (bits_[index]) // tight load loop for the burst window
        hammer(line_, tlast() + modulateCycles_);
}

chan::ChannelResult
runLruChannel(const chan::ChannelConfig &cfg, Cycles modulateCycles)
{
    const chan::ProtocolConfig &proto = cfg.protocol;
    requireBaselineProtocol(proto, cfg.platform.l1.numSets());

    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    const sim::AddressLayout layout(cfg.platform.l1.numSets());
    const auto rxLines = chan::linesForSet(
        layout, proto.targetSet, cfg.platform.l1.ways, /*tagBase=*/0x100);
    const Addr txLine =
        chan::linesForSet(layout, proto.targetSet, 1, /*tagBase=*/1)[0];

    // Centroids: timed line 0 hits L1 for bit 0 and comes from L2 for
    // bit 1 (single-load measurement bracketed by rdtscp).
    const auto &lat = cfg.platform.lat;
    const Cycles timing = cfg.noise.opOverhead + cfg.noise.tscReadCost;
    const chan::pipeline::Pass pass{
        .encoding = proto.encoding,
        .rateKbps = proto.rateKbps(),
        .frame = chan::pipeline::shotFrame(proto, frameRng),
        .calibration = closedFormCalibration(double(lat.l1Hit + timing),
                                             double(lat.l2Hit + timing)),
        .run = [cfg, proto, rxLines, txLine, modulateCycles,
                runRng](const std::vector<unsigned> &levels) {
            const std::vector<bool> bits(levels.begin(), levels.end());
            chan::pipeline::SameCoreWiring wiring(cfg, bits.size(), runRng);
            LruReceiver receiver(rxLines, proto.tr,
                                 wiring.schedule().sampleCount);
            LruSender sender(txLine, bits, proto.ts, modulateCycles);
            return wiring.run(sender, receiver);
        }};
    return chan::pipeline::runShot(pass, proto.frames);
}

} // namespace wb::baselines
