#include "baselines/lru_channel.hh"

#include "common/log.hh"
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
        hammer(sim::MemOp::pipelinedLoad(line_), tlast() + modulateCycles_);
}

BaselineResult
runLruChannel(const BaselineConfig &cfg, Cycles modulateCycles)
{
    auto factory = [modulateCycles](const BaselineConfig &c,
                                    const std::vector<bool> &frameBits,
                                    sim::Hierarchy &hierarchy,
                                    Rng &) -> BaselineParts {
        const auto &layout = hierarchy.l1().layout();
        const unsigned ways = c.platform.l1.ways;
        auto rxLines = chan::linesForSet(layout, c.targetSet, ways,
                                         /*tagBase=*/0x100);
        auto txLines = chan::linesForSet(layout, c.targetSet, 1,
                                         /*tagBase=*/1);

        const std::size_t sampleCount =
            frameBits.size() + c.senderStartSlots + c.sampleMargin;

        BaselineParts parts;
        parts.receiver =
            std::make_unique<LruReceiver>(rxLines, c.tr, sampleCount);
        parts.sender = std::make_unique<LruSender>(
            txLines[0], frameBits, c.ts, modulateCycles);

        // Centroids: timed line 0 hits L1 for bit 0 and comes from L2
        // for bit 1 (single-load measurement bracketed by rdtscp).
        const auto &lat = c.platform.lat;
        parts.centroidLow = static_cast<double>(
            lat.l1Hit + c.noise.opOverhead + c.noise.tscReadCost);
        parts.centroidHigh = static_cast<double>(
            lat.l2Hit + c.noise.opOverhead + c.noise.tscReadCost);
        return parts;
    };
    return runBaseline(cfg, factory);
}

} // namespace wb::baselines
