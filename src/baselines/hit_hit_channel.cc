#include "baselines/hit_hit_channel.hh"

#include <algorithm>

#include "common/log.hh"
#include "chan/pipeline.hh"

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
        hammer(line_, tlast() + period());
}

chan::ChannelResult
runHitHitChannel(const chan::ChannelConfig &cfg, unsigned burst)
{
    const chan::ProtocolConfig &proto = cfg.protocol;
    requireBaselineProtocol(proto, cfg.platform.l1.numSets());

    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    // Centroids: an uncontended hit burst vs one whose every load
    // suffers expected port-contention delay. The per-access platform
    // noise is a positively clamped Gaussian, so its mean
    // E[max(0, N(0, sigma))] = sigma/sqrt(2*pi) must be included or
    // the whole quiet population sits above the threshold.
    const auto &lat = cfg.platform.lat;
    const double noiseMean = lat.noiseSigma * 0.39894;
    const double perHit =
        double(lat.l1Hit) + double(cfg.noise.opOverhead) + noiseMean;
    const double base = burst * perHit + double(cfg.noise.tscReadCost);
    const double extra = burst * cfg.noise.portContentionProb *
        double(cfg.noise.portContentionDelay);
    // With contention disabled (the no-medium control case) the gap is
    // 1e-6: the classifier stays well-formed and the run reads closed.
    const chan::pipeline::Pass pass{
        .encoding = proto.encoding,
        .rateKbps = proto.rateKbps(),
        .frame = chan::pipeline::shotFrame(proto, frameRng),
        .calibration =
            closedFormCalibration(base, base + std::max(extra, 1e-6)),
        .run = [cfg, proto, burst,
                runRng](const std::vector<unsigned> &levels) {
            const std::vector<bool> bits(levels.begin(), levels.end());
            chan::pipeline::SameCoreWiring wiring(cfg, bits.size(), runRng);
            HitHitReceiver receiver(/*line=*/0x4000, burst, proto.tr,
                                    wiring.schedule().sampleCount);
            HitHitSender sender(/*line=*/0x8000, bits, proto.ts);
            return wiring.run(sender, receiver);
        }};
    return chan::pipeline::runShot(pass, proto.frames);
}

} // namespace wb::baselines
