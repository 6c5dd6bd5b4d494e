#include "baselines/hit_hit_channel.hh"

#include "common/log.hh"

namespace wb::baselines
{

HitHitReceiver::HitHitReceiver(Addr line, unsigned burst, Cycles tr,
                               std::size_t sampleCount)
    : PacedProgram(tr), line_(line), burst_(burst),
      sampleCount_(sampleCount)
{
    if (burst_ == 0)
        fatalf("HitHitReceiver: burst must be positive");
    startupOp(sim::MemOp::load(line_)); // warm the hot line
}

void
HitHitReceiver::buildSlot(std::size_t index, const sim::OpResult &,
                          sim::ProcView &)
{
    if (index == 0)
        return;
    // Scalar loads: each one rolls its own port-contention chance.
    openWindow();
    for (unsigned i = 0; i < burst_; ++i)
        op(sim::MemOp::load(line_));
    closeWindow();
    if (index >= sampleCount_)
        halt();
}

HitHitSender::HitHitSender(Addr line, std::vector<bool> bits, Cycles ts)
    : PacedProgram(ts), line_(line), bits_(std::move(bits))
{
}

void
HitHitSender::buildSlot(std::size_t index, const sim::OpResult &,
                        sim::ProcView &)
{
    if (index >= bits_.size())
        halt();
    else if (bits_[index])
        hammer(sim::MemOp::pipelinedLoad(line_), tlast() + period());
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
        parts.receiver = std::make_unique<HitHitReceiver>(
            /*line=*/0x4000, burst, c.tr, sampleCount);
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
