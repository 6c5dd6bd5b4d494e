#include "baselines/prime_probe.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/stats.hh"
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

BaselineResult
runPrimeProbeChannel(const BaselineConfig &cfg, unsigned linesPerOne)
{
    auto factory = [linesPerOne](const BaselineConfig &c,
                                 const std::vector<bool> &frameBits,
                                 sim::Hierarchy &hierarchy,
                                 Rng &) -> BaselineParts {
        const auto &layout = hierarchy.l1().layout();
        const unsigned ways = c.platform.l1.ways;
        auto rxLines = chan::linesForSet(layout, c.targetSet, ways,
                                         /*tagBase=*/0x100);
        auto txLines = chan::linesForSet(layout, c.targetSet,
                                         std::max(1u, linesPerOne),
                                         /*tagBase=*/1);

        const std::size_t sampleCount =
            chan::transmissionSchedule(frameBits.size(), c.ts,
                                       c.senderStartSlots, c.sampleMargin)
                .sampleCount;

        BaselineParts parts;
        parts.receiver = std::make_unique<PrimeProbeReceiver>(
            rxLines, c.tr, sampleCount);
        parts.sender = std::make_unique<PrimeProbeSender>(
            txLines, linesPerOne, frameBits, c.ts);

        // Centroids: all-hit probe vs. linesPerOne L2 refills.
        const auto &lat = c.platform.lat;
        const double perHit =
            static_cast<double>(lat.l1Hit + c.noise.opOverhead);
        const double base = perHit * ways +
            static_cast<double>(c.noise.tscReadCost);
        parts.centroidLow = base;
        parts.centroidHigh = base +
            static_cast<double>(linesPerOne) *
                static_cast<double>(lat.l2Hit - lat.l1Hit);
        return parts;
    };
    return runBaseline(cfg, factory);
}

BaselineResult
runCrossCorePrimeProbe(const BaselineConfig &cfg, unsigned linesPerOne,
                       unsigned cores)
{
    if (cores < 2)
        fatalf("runCrossCorePrimeProbe: needs at least 2 cores");
    if (cfg.noiseProcesses != 0) {
        fatalf("runCrossCorePrimeProbe: co-resident noise processes "
               "are not modeled cross-core yet");
    }
    linesPerOne = std::max(1u, linesPerOne);

    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();

    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);
    BitVec allBits;
    allBits.reserve(static_cast<std::size_t>(cfg.frameBits) * cfg.frames);
    for (unsigned f = 0; f < cfg.frames; ++f)
        allBits.insert(allBits.end(), frame.begin(), frame.end());

    const sim::AddressLayout llcLayout(cfg.platform.llc.numSets());
    const unsigned ways = cfg.platform.llc.ways;
    auto rxLines = chan::linesForSet(llcLayout, cfg.targetSet, ways,
                                     /*tagBase=*/0x100);
    auto txLines = chan::linesForSet(llcLayout, cfg.targetSet,
                                     linesPerOne, /*tagBase=*/1);

    // --- Empirical centroid calibration: whole-set probe latency with
    // and without the sender's slot touch, medians over a short
    // offline interleave (the steady state depends on how much of the
    // primed set survives in the receiver's privates, which no closed
    // form captures across inclusive/non-inclusive LLCs). ---
    Samples lo, hi;
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
            lo.add(probeOnce());
        for (int i = 0; i < 40; ++i) {
            mc.accessBatch(0, 0, txSpace, txLines.data(), linesPerOne,
                           false);
            hi.add(probeOnce());
        }
    }
    const double centroidLow = lo.median();
    const double centroidHigh = hi.median();

    // --- Live run: one SmtCore front-end per core, interleaved in
    // global time order. ---
    sim::MultiCoreSystem mc(cfg.platform, cores, &runRng);
    sim::SmtCore senderCore(mc.port(0), cfg.noise, runRng);
    sim::SmtCore receiverCore(mc.port(1), cfg.noise, runRng);

    const chan::TransmissionSchedule sched = chan::transmissionSchedule(
        allBits.size(), cfg.ts, cfg.senderStartSlots, cfg.sampleMargin);
    PrimeProbeReceiver receiver(rxLines, cfg.tr, sched.sampleCount,
                                /*reprimeEachSlot=*/true);
    PrimeProbeSender sender(txLines, linesPerOne, allBits, cfg.ts);

    const ThreadId senderTid = senderCore.addThread(
        &sender, sim::AddressSpace(1), sched.senderStart);
    const ThreadId receiverTid =
        receiverCore.addThread(&receiver, sim::AddressSpace(2), 0);

    sim::runCores({&senderCore, &receiverCore}, sched.horizon);

    BaselineResult res;
    res.latencies = receiver.latencies();
    res.rateKbps = cfg.rateKbps();
    res.sentFrame = frame;
    res.framesExpected = cfg.frames;

    res.senderCounters = mc.counters(0, senderTid);
    res.receiverCounters = mc.counters(1, receiverTid);
    if (centroidHigh <= centroidLow) {
        // No separable signal (non-inclusive LLC): report the raw
        // failure instead of classifying noise.
        res.ber = 1.0;
        return res;
    }
    scoreBinaryLatencies(res, centroidLow, centroidHigh,
                         /*invert=*/false, frame, cfg.frames);
    return res;
}

} // namespace wb::baselines
