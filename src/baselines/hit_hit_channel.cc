#include "baselines/hit_hit_channel.hh"

#include "common/log.hh"

namespace wb::baselines
{

HitHitReceiver::HitHitReceiver(Addr line, unsigned burst, Cycles tr,
                               std::size_t sampleCount)
    : line_(line), burst_(burst), tr_(tr), sampleCount_(sampleCount)
{
    if (burst_ == 0)
        fatalf("HitHitReceiver: burst must be positive");
}

std::optional<sim::MemOp>
HitHitReceiver::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Warm:
        return sim::MemOp::load(line_);
      case Phase::InitTsc:
        return sim::MemOp::tscRead();
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + tr_);
      case Phase::MeasStart:
        return sim::MemOp::tscRead();
      case Phase::Burst:
        return sim::MemOp::load(line_);
      case Phase::MeasEnd:
        return sim::MemOp::tscRead();
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
HitHitReceiver::onResult(const sim::MemOp &, const sim::OpResult &res,
                         sim::ProcView &)
{
    switch (phase_) {
      case Phase::Warm:
        phase_ = Phase::InitTsc;
        break;
      case Phase::InitTsc:
        tlast_ = res.tsc;
        phase_ = Phase::Wait;
        break;
      case Phase::Wait:
        tlast_ = res.tsc;
        phase_ = Phase::MeasStart;
        break;
      case Phase::MeasStart:
        tscStart_ = res.tsc;
        pos_ = 0;
        phase_ = Phase::Burst;
        break;
      case Phase::Burst:
        ++pos_;
        if (pos_ >= burst_)
            phase_ = Phase::MeasEnd;
        break;
      case Phase::MeasEnd:
        // Signed: a jittered timer can read end < start.
        samples_.push_back(double(res.tsc) - double(tscStart_));
        phase_ = samples_.size() >= sampleCount_ ? Phase::Done
                                                 : Phase::Wait;
        break;
      case Phase::Done:
        break;
    }
}

HitHitSender::HitHitSender(Addr line, std::vector<bool> bits, Cycles ts)
    : line_(line), bits_(std::move(bits)), ts_(ts)
{
}

std::optional<sim::MemOp>
HitHitSender::next(sim::ProcView &view)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Hammer:
        if (view.now() < tlast_ + ts_)
            return sim::MemOp::pipelinedLoad(line_);
        return sim::MemOp::spinUntil(tlast_ + ts_); // 0-length: rebase
      case Phase::Spin:
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
HitHitSender::onResult(const sim::MemOp &op, const sim::OpResult &res,
                       sim::ProcView &)
{
    auto beginSlot = [this]() {
        if (bitIdx_ >= bits_.size())
            phase_ = Phase::Done;
        else
            phase_ = bits_[bitIdx_] ? Phase::Hammer : Phase::Spin;
    };

    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        beginSlot();
        break;
      case sim::MemOp::Kind::SpinUntil:
        tlast_ = res.tsc;
        ++bitIdx_;
        beginSlot();
        break;
      default:
        break;
    }
}

BaselineResult
runHitHitChannel(const BaselineConfig &cfg, unsigned burst)
{
    auto factory = [burst](const BaselineConfig &c,
                           const std::vector<bool> &frameBits,
                           sim::Hierarchy &,
                           Rng &) -> BaselineParts {
        const std::size_t sampleCount =
            frameBits.size() + c.senderStartSlots + c.sampleMargin;

        BaselineParts parts;
        auto receiver = std::make_unique<HitHitReceiver>(
            /*line=*/0x4000, burst, c.tr, sampleCount);
        parts.latencySource = receiver.get();
        parts.receiver = std::move(receiver);
        parts.sender = std::make_unique<HitHitSender>(
            /*line=*/0x8000, frameBits, c.ts);

        // Centroids: an uncontended hit burst vs one whose every load
        // suffers expected port-contention delay. The per-access
        // platform noise is a positively clamped Gaussian, so its
        // mean E[max(0, N(0, sigma))] = sigma/sqrt(2*pi) must be
        // included or the whole quiet population sits above the
        // threshold.
        const auto &lat = c.platform.lat;
        const double noiseMean = lat.noiseSigma * 0.39894;
        const double perHit = double(lat.l1Hit) +
            double(c.noise.opOverhead) + noiseMean;
        const double base =
            burst * perHit + double(c.noise.tscReadCost);
        const double extra = burst * c.noise.portContentionProb *
            double(c.noise.portContentionDelay);
        parts.centroidLow = base;
        // Keep the classifier well-formed even with contention
        // disabled (the no-medium control case).
        parts.centroidHigh = base + std::max(extra, 1e-6);
        return parts;
    };
    return runBaseline(cfg, factory);
}

} // namespace wb::baselines
