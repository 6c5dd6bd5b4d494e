#include "baselines/prime_probe.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/stats.hh"
#include "chan/pipeline.hh"
#include "chan/set_mapping.hh"
#include "sim/multicore.hh"

namespace wb::baselines
{

PrimeProbeReceiver::PrimeProbeReceiver(std::vector<Addr> lines, Cycles tr,
                                       std::size_t sampleCount,
                                       bool reprimeEachSlot)
    : PacedProgram(tr), lines_(std::move(lines)),
      reversed_(lines_.rbegin(), lines_.rend()), sampleCount_(sampleCount),
      reprimeEachSlot_(reprimeEachSlot)
{
    if (lines_.empty())
        fatalf("PrimeProbeReceiver: needs prime lines");
    // Two full sweeps fill the set and warm L2, as one batched sweep.
    warmupOrder_.reserve(2 * lines_.size());
    for (int sweep = 0; sweep < 2; ++sweep)
        warmupOrder_.insert(warmupOrder_.end(), lines_.begin(),
                            lines_.end());
    startupOp(sim::MemOp::loadBatch(warmupOrder_.data(),
                                    warmupOrder_.size()));
}

void
PrimeProbeReceiver::buildSlot(std::size_t index, const sim::OpResult &,
                              sim::ProcView &)
{
    if (index == 0)
        return;
    // Walk the probe in the reverse of the previous traversal order
    // (the anti-thrashing trick of paper Sec. VI-A): forward on odd
    // slots, reversed on even ones. With a per-slot re-prime the set
    // state is canonical at every probe, and reversing would only
    // oscillate the baseline: keep the forward order then.
    const bool forward = index % 2 == 1 || reprimeEachSlot_;
    const std::vector<Addr> &order = forward ? lines_ : reversed_;
    openWindow();
    op(sim::MemOp::loadBatch(order.data(), order.size()));
    closeWindow();
    if (index >= sampleCount_)
        halt();
    else if (reprimeEachSlot_)
        op(sim::MemOp::loadBatch(lines_.data(), lines_.size()));
}

PrimeProbeSender::PrimeProbeSender(std::vector<Addr> lines,
                                   unsigned linesPerOne,
                                   std::vector<bool> bits, Cycles ts)
    : PacedProgram(ts), lines_(std::move(lines)),
      linesPerOne_(linesPerOne), bits_(std::move(bits))
{
    if (linesPerOne_ > lines_.size())
        fatalf("PrimeProbeSender: linesPerOne exceeds line pool");
}

void
PrimeProbeSender::buildSlot(std::size_t index, const sim::OpResult &,
                            sim::ProcView &)
{
    if (index >= bits_.size())
        halt();
    else if (bits_[index])
        op(sim::MemOp::loadBatch(lines_.data(), linesPerOne_));
}

chan::ChannelResult
runPrimeProbeChannel(const chan::ChannelConfig &cfg, unsigned linesPerOne)
{
    const chan::ProtocolConfig &proto = cfg.protocol;
    requireBaselineProtocol(proto, cfg.platform.l1.numSets());

    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    const sim::AddressLayout layout(cfg.platform.l1.numSets());
    const unsigned ways = cfg.platform.l1.ways;
    const auto rxLines = chan::linesForSet(layout, proto.targetSet, ways,
                                           /*tagBase=*/0x100);
    const auto txLines =
        chan::linesForSet(layout, proto.targetSet,
                          std::max(1u, linesPerOne), /*tagBase=*/1);

    // Centroids: all-hit probe vs. linesPerOne L2 refills.
    const auto &lat = cfg.platform.lat;
    const double perHit = static_cast<double>(lat.l1Hit + cfg.noise.opOverhead);
    const double base =
        perHit * ways + static_cast<double>(cfg.noise.tscReadCost);

    const chan::pipeline::Pass pass{
        .encoding = proto.encoding,
        .rateKbps = proto.rateKbps(),
        .frame = chan::pipeline::shotFrame(proto, frameRng),
        .calibration = closedFormCalibration(
            base, base + static_cast<double>(linesPerOne) *
                             static_cast<double>(lat.l2Hit - lat.l1Hit)),
        .run = [cfg, proto, rxLines, txLines, linesPerOne,
                runRng](const std::vector<unsigned> &levels) {
            const std::vector<bool> bits(levels.begin(), levels.end());
            chan::pipeline::SameCoreWiring wiring(cfg, bits.size(), runRng);
            PrimeProbeReceiver receiver(rxLines, proto.tr,
                                        wiring.schedule().sampleCount);
            PrimeProbeSender sender(txLines, linesPerOne, bits, proto.ts);
            return wiring.run(sender, receiver);
        }};
    return chan::pipeline::runShot(pass, proto.frames);
}

chan::ChannelResult
runCrossCorePrimeProbe(const chan::ChannelConfig &cfg, unsigned linesPerOne,
                       unsigned cores)
{
    const chan::ProtocolConfig &proto = cfg.protocol;
    if (cores < 2)
        fatalf("runCrossCorePrimeProbe: needs at least 2 cores");
    if (cfg.noiseProcesses != 0) {
        fatalf("runCrossCorePrimeProbe: co-resident noise processes "
               "are not modeled cross-core yet");
    }
    requireBaselineProtocol(proto, cfg.platform.llc.numSets());
    linesPerOne = std::max(1u, linesPerOne);

    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();

    const sim::AddressLayout llcLayout(cfg.platform.llc.numSets());
    const auto rxLines = chan::linesForSet(
        llcLayout, proto.targetSet, cfg.platform.llc.ways, /*tagBase=*/0x100);
    const auto txLines = chan::linesForSet(llcLayout, proto.targetSet,
                                           linesPerOne, /*tagBase=*/1);

    // --- Empirical calibration: whole-set probe latency without (level
    // 0) and with (level 1) the sender's slot touch, over a short
    // offline interleave (the steady state depends on how much of the
    // primed set survives in the receiver's privates, which no closed
    // form captures across inclusive/non-inclusive LLCs). ---
    std::vector<Samples> byD(2);
    {
        sim::MultiCoreSystem mc(cfg.platform, cores, &calRng);
        sim::AddressSpace txSpace(1), rxSpace(2);
        auto probeOnce = [&]() {
            // Mirror the live receiver exactly (forward-order timed
            // probe, then an untimed re-prime — see reprimeEachSlot),
            // so the calibrated steady state is the one the live
            // probes see.
            const auto b = mc.accessBatch(1, 0, rxSpace, rxLines, false);
            const double lat = static_cast<double>(
                b.totalLatency + cfg.noise.opOverhead * b.accesses +
                cfg.noise.tscReadCost);
            mc.accessBatch(1, 0, rxSpace, rxLines, false);
            return lat;
        };
        for (int sweep = 0; sweep < 4; ++sweep)
            probeOnce(); // prime into steady state
        for (int i = 0; i < 40; ++i)
            byD[0].add(probeOnce());
        for (int i = 0; i < 40; ++i) {
            mc.accessBatch(0, 0, txSpace, txLines.data(), linesPerOne,
                           false);
            byD[1].add(probeOnce());
        }
    }

    // Sender on core 0, receiver on core 1 of the cross-core WB wiring.
    const chan::pipeline::Pass pass{
        .encoding = proto.encoding,
        .rateKbps = proto.rateKbps(),
        .frame = chan::pipeline::shotFrame(proto, frameRng),
        .calibration = chan::Calibration::fromSamples(std::move(byD)),
        .run = [cfg, proto, cores, rxLines, txLines, linesPerOne,
                runRng](const std::vector<unsigned> &levels) {
            const std::vector<bool> bits(levels.begin(), levels.end());
            chan::pipeline::CrossCoreWiring wiring(cfg, cores, 0, 1,
                                                   bits.size(), runRng);
            PrimeProbeReceiver receiver(rxLines, proto.tr,
                                        wiring.schedule().sampleCount,
                                        /*reprimeEachSlot=*/true);
            PrimeProbeSender sender(txLines, linesPerOne, bits, proto.ts);
            return wiring.run(sender, receiver);
        }};
    return chan::pipeline::runShot(pass, proto.frames);
}

} // namespace wb::baselines
