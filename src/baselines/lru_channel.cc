#include "baselines/lru_channel.hh"

#include "common/log.hh"
#include "chan/set_mapping.hh"

namespace wb::baselines
{

LruReceiver::LruReceiver(std::vector<Addr> lines, Cycles tr,
                         std::size_t sampleCount)
    : lines_(std::move(lines)), tr_(tr), sampleCount_(sampleCount)
{
    if (lines_.size() < 4 || lines_.size() % 2 != 0)
        fatalf("LruReceiver: needs an even number (>=4) of lines");
    // Two full sweeps fill the set and warm L2, as one batched sweep.
    warmupOrder_.reserve(2 * lines_.size());
    for (int sweep = 0; sweep < 2; ++sweep)
        warmupOrder_.insert(warmupOrder_.end(), lines_.begin(),
                            lines_.end());
}

std::optional<sim::MemOp>
LruReceiver::next(sim::ProcView &)
{
    const std::size_t half = lines_.size() / 2;
    switch (phase_) {
      case Phase::Warmup:
        if (!warmupDone_) {
            warmupDone_ = true;
            return sim::MemOp::loadBatch(warmupOrder_.data(),
                                         warmupOrder_.size());
        }
        phase_ = Phase::InitTsc;
        return sim::MemOp::tscRead();
      case Phase::InitTsc:
        return sim::MemOp::tscRead();
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + tr_);
      case Phase::DecodeHalf:
        // The decode half is contiguous in lines_: one batched sweep.
        return sim::MemOp::loadBatch(lines_.data() + half, half);
      case Phase::MeasStart:
        return sim::MemOp::tscRead();
      case Phase::MeasLoad:
        return sim::MemOp::load(lines_[0]);
      case Phase::MeasEnd:
        return sim::MemOp::tscRead();
      case Phase::Refill:
        return sim::MemOp::loadBatch(lines_.data() + 1, half - 1);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
LruReceiver::onResult(const sim::MemOp &op, const sim::OpResult &res,
                      sim::ProcView &)
{
    switch (phase_) {
      case Phase::Warmup:
        // The warm-up batch completed; next() moves on to InitTsc.
        break;
      case Phase::InitTsc:
        tlast_ = res.tsc;
        phase_ = Phase::Wait;
        break;
      case Phase::Wait:
        tlast_ = res.tsc;
        phase_ = Phase::DecodeHalf;
        break;
      case Phase::DecodeHalf:
        phase_ = Phase::MeasStart;
        break;
      case Phase::MeasStart:
        tscStart_ = res.tsc;
        phase_ = Phase::MeasLoad;
        break;
      case Phase::MeasLoad:
        phase_ = Phase::MeasEnd;
        break;
      case Phase::MeasEnd:
        // Signed: a jittered timer can read end < start.
        samples_.push_back(double(res.tsc) - double(tscStart_));
        phase_ = samples_.size() >= sampleCount_ ? Phase::Done
                                                 : Phase::Refill;
        break;
      case Phase::Refill:
        phase_ = Phase::Wait;
        break;
      case Phase::Done:
        break;
    }
    (void)op;
}

LruSender::LruSender(Addr line, std::vector<bool> bits, Cycles ts,
                     Cycles modulateCycles)
    : line_(line), bits_(std::move(bits)), ts_(ts),
      modulateCycles_(modulateCycles == 0 || modulateCycles > ts
                          ? ts
                          : modulateCycles)
{
}

std::optional<sim::MemOp>
LruSender::next(sim::ProcView &view)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Modulate:
        if (view.now() < tlast_ + modulateCycles_)
            return sim::MemOp::pipelinedLoad(line_);
        phase_ = Phase::SpinRest;
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::SpinRest:
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
LruSender::onResult(const sim::MemOp &op, const sim::OpResult &res,
                    sim::ProcView &)
{
    auto beginSlot = [this]() {
        if (bitIdx_ >= bits_.size())
            phase_ = Phase::Done;
        else
            phase_ = bits_[bitIdx_] ? Phase::Modulate : Phase::SpinRest;
    };

    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        beginSlot();
        break;
      case sim::MemOp::Kind::SpinUntil:
        // Slot ended (Algorithm 3: Tlast = post-spin TSC).
        tlast_ = res.tsc;
        ++bitIdx_;
        beginSlot();
        break;
      default:
        break;
    }
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
        auto receiver = std::make_unique<LruReceiver>(rxLines, c.tr,
                                                      sampleCount);
        parts.latencySource = receiver.get();
        parts.receiver = std::move(receiver);
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
