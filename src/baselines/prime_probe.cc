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
    : lines_(std::move(lines)), tr_(tr), sampleCount_(sampleCount),
      reprimeEachSlot_(reprimeEachSlot)
{
    if (lines_.empty())
        fatalf("PrimeProbeReceiver: needs prime lines");
    // Two full sweeps fill the set and warm L2, as one batched sweep.
    warmupOrder_.reserve(2 * lines_.size());
    for (int sweep = 0; sweep < 2; ++sweep)
        warmupOrder_.insert(warmupOrder_.end(), lines_.begin(),
                            lines_.end());
    probeOrder_ = lines_;
}

std::optional<sim::MemOp>
PrimeProbeReceiver::next(sim::ProcView &)
{
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
      case Phase::ProbeStart:
        return sim::MemOp::tscRead();
      case Phase::Probe:
        return sim::MemOp::loadBatch(probeOrder_.data(),
                                     probeOrder_.size());
      case Phase::ProbeEnd:
        return sim::MemOp::tscRead();
      case Phase::Reprime:
        return sim::MemOp::loadBatch(lines_.data(), lines_.size());
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
PrimeProbeReceiver::onResult(const sim::MemOp &, const sim::OpResult &res,
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
      case Phase::Wait: {
        tlast_ = res.tsc;
        // Walk the probe in the reverse of the previous traversal
        // order (the anti-thrashing trick of paper Sec. VI-A). With a
        // per-slot re-prime the set state is canonical at every probe,
        // and reversing would only oscillate the baseline: keep the
        // forward order then.
        probeOrder_.assign(lines_.begin(), lines_.end());
        if (!forward_ && !reprimeEachSlot_)
            std::reverse(probeOrder_.begin(), probeOrder_.end());
        phase_ = Phase::ProbeStart;
        break;
      }
      case Phase::ProbeStart:
        tscStart_ = res.tsc;
        phase_ = Phase::Probe;
        break;
      case Phase::Probe:
        phase_ = Phase::ProbeEnd;
        break;
      case Phase::ProbeEnd:
        // Signed: a jittered timer can read end < start.
        samples_.push_back(double(res.tsc) - double(tscStart_));
        forward_ = !forward_; // reverse traversal next slot
        if (samples_.size() >= sampleCount_)
            phase_ = Phase::Done;
        else
            phase_ = reprimeEachSlot_ ? Phase::Reprime : Phase::Wait;
        break;
      case Phase::Reprime:
        phase_ = Phase::Wait;
        break;
      case Phase::Done:
        break;
    }
}

PrimeProbeSender::PrimeProbeSender(std::vector<Addr> lines,
                                   unsigned linesPerOne,
                                   std::vector<bool> bits, Cycles ts)
    : lines_(std::move(lines)), linesPerOne_(linesPerOne),
      bits_(std::move(bits)), ts_(ts)
{
    if (linesPerOne_ > lines_.size())
        fatalf("PrimeProbeSender: linesPerOne exceeds line pool");
}

std::optional<sim::MemOp>
PrimeProbeSender::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Touch:
        return sim::MemOp::loadBatch(lines_.data(), linesPerOne_);
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
PrimeProbeSender::onResult(const sim::MemOp &op, const sim::OpResult &res,
                           sim::ProcView &)
{
    auto beginSlot = [this]() {
        if (bitIdx_ >= bits_.size())
            phase_ = Phase::Done;
        else
            phase_ = bits_[bitIdx_] ? Phase::Touch : Phase::Wait;
    };

    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        beginSlot();
        break;
      case sim::MemOp::Kind::LoadBatch:
        phase_ = Phase::Wait;
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
        auto receiver = std::make_unique<PrimeProbeReceiver>(
            rxLines, c.tr, sampleCount);
        parts.latencySource = receiver.get();
        parts.receiver = std::move(receiver);
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
