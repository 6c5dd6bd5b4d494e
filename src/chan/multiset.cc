#include "chan/multiset.hh"

#include "chan/calibration.hh"
#include "chan/pipeline.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

MultiSetSender::MultiSetSender(std::vector<std::vector<Addr>> linePools,
                               std::vector<bool> bits, unsigned d,
                               Cycles ts)
    : pools_(std::move(linePools)), bits_(std::move(bits)), d_(d),
      ts_(ts)
{
    if (pools_.empty())
        fatalf("MultiSetSender: needs at least one set pool");
    for (const auto &pool : pools_)
        if (pool.size() < d_)
            fatalf("MultiSetSender: pool smaller than d");
}

void
MultiSetSender::advance()
{
    const unsigned k = static_cast<unsigned>(pools_.size());
    while (setIdx_ < k) {
        const std::size_t bitIdx = slotIdx_ * k + setIdx_;
        if (bitIdx >= bits_.size()) {
            phase_ = Phase::Done;
            return;
        }
        if (bits_[bitIdx] && storeIdx_ < d_) {
            phase_ = Phase::Encode;
            return;
        }
        ++setIdx_;
        storeIdx_ = 0;
    }
    phase_ = Phase::Wait;
}

std::optional<sim::MemOp>
MultiSetSender::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Encode:
        return sim::MemOp::store(pools_[setIdx_][storeIdx_]);
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
MultiSetSender::onResult(const sim::MemOp &op, const sim::OpResult &res,
                         sim::ProcView &)
{
    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        setIdx_ = 0;
        storeIdx_ = 0;
        advance();
        break;
      case sim::MemOp::Kind::Store:
        ++storeIdx_;
        advance();
        break;
      case sim::MemOp::Kind::SpinUntil:
        tlast_ = res.tsc;
        ++slotIdx_;
        setIdx_ = 0;
        storeIdx_ = 0;
        advance();
        break;
      default:
        break;
    }
}

MultiSetReceiver::MultiSetReceiver(std::vector<std::vector<Addr>> replA,
                                   std::vector<std::vector<Addr>> replB,
                                   Cycles tr, std::size_t slots)
    : tr_(tr), slots_(slots)
{
    if (replA.empty() || replA.size() != replB.size())
        fatalf("MultiSetReceiver: mismatched replacement pools");
    for (auto &pool : replA) {
        for (Addr a : pool)
            warmupOrder_.push_back(a);
        chaseA_.emplace_back(std::move(pool));
    }
    for (auto &pool : replB) {
        for (Addr a : pool)
            warmupOrder_.push_back(a);
        chaseB_.emplace_back(std::move(pool));
    }
    // Two warm-up sweeps over everything.
    const std::size_t once = warmupOrder_.size();
    for (std::size_t i = 0; i < once; ++i)
        warmupOrder_.push_back(warmupOrder_[i]);
}

void
MultiSetReceiver::startMeasurement(Rng &rng)
{
    PointerChase &chase =
        useA_ ? chaseA_[setIdx_] : chaseB_[setIdx_];
    chase.reshuffle(rng);
    ops_ = chase.batchedMeasurementOps();
    opPos_ = 0;
    sawFirstTsc_ = false;
    phase_ = Phase::Measure;
}

std::optional<sim::MemOp>
MultiSetReceiver::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Warmup:
        if (warmupPos_ < warmupOrder_.size())
            return sim::MemOp::load(warmupOrder_[warmupPos_]);
        phase_ = Phase::InitTsc;
        return sim::MemOp::tscRead();
      case Phase::InitTsc:
        return sim::MemOp::tscRead();
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + tr_);
      case Phase::Measure:
        if (opPos_ < ops_.size())
            return ops_[opPos_];
        panic("MultiSetReceiver: ops exhausted");
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
MultiSetReceiver::onResult(const sim::MemOp &op, const sim::OpResult &res,
                           sim::ProcView &view)
{
    switch (phase_) {
      case Phase::Warmup:
        ++warmupPos_;
        break;
      case Phase::InitTsc:
        tlast_ = res.tsc;
        phase_ = Phase::Wait;
        break;
      case Phase::Wait: {
        // Detect slot overruns: the previous slot's k chases spilling
        // past the boundary shows up as an immediate release.
        if (res.latency == 0)
            ++overruns_;
        tlast_ = res.tsc;
        setIdx_ = 0;
        startMeasurement(view.rng());
        break;
      }
      case Phase::Measure:
        ++opPos_;
        if (op.kind == sim::MemOp::Kind::TscRead) {
            if (!sawFirstTsc_) {
                sawFirstTsc_ = true;
                tscStart_ = res.tsc;
            } else {
                // Signed: a jittered timer can read end < start.
                double lat = double(res.tsc) - double(tscStart_);
                const double sigma = view.noise().measSigma(tr_);
                if (sigma > 0.0)
                    lat += view.rng().gaussian(0.0, sigma);
                samples_.push_back(lat);
                ++setIdx_;
                if (setIdx_ < chaseA_.size()) {
                    startMeasurement(view.rng());
                } else {
                    useA_ = !useA_;
                    ++slotsDone_;
                    phase_ = slotsDone_ >= slots_ ? Phase::Done
                                                  : Phase::Wait;
                }
            }
        }
        break;
      case Phase::Done:
        break;
    }
}

namespace
{

/** The multi-set placement's pass: k L1 sets striped per slot. */
pipeline::RawRun
runMultiSetRaw(const MultiSetConfig &cfg,
               const std::vector<unsigned> &levels, Rng &calRng,
               Rng &runRng)
{
    // Calibrate once on set 0 (sets are symmetric by construction).
    CalibrationConfig calCfg;
    calCfg.targetSet = cfg.targetSet(0);
    calCfg.replacementSize = cfg.replacementSize;
    calCfg.measurements = cfg.calMeasurements;
    calCfg.levelsMix = {0, cfg.d};
    pipeline::RawRun raw;
    raw.calibration = calibrate(cfg.platform, cfg.noise, calCfg, calRng);

    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    sim::SmtCore core(hierarchy, cfg.noise, runRng);
    const auto &layout = hierarchy.l1().layout();
    const unsigned k = cfg.setCount;

    std::vector<std::vector<Addr>> senderPools, replA, replB;
    for (unsigned j = 0; j < k; ++j) {
        ChannelSets sets = makeChannelSets(layout, cfg.targetSet(j),
                                           cfg.platform.l1.ways,
                                           cfg.replacementSize);
        senderPools.push_back(std::move(sets.senderLines));
        replA.push_back(std::move(sets.replacementA));
        replB.push_back(std::move(sets.replacementB));
    }

    // A nonzero level is a 1-bit.
    const std::vector<bool> bits(levels.begin(), levels.end());
    MultiSetSender sender(senderPools, bits, cfg.d, cfg.ts);
    const std::size_t slots = (bits.size() + k - 1) / k + 8 + 64;
    MultiSetReceiver receiver(replA, replB, cfg.tr, slots);

    const Cycles senderStart = 8 * cfg.ts;
    raw.senderTid =
        core.addThread(&sender, sim::AddressSpace(1), senderStart);
    raw.receiverTid = core.addThread(&receiver, sim::AddressSpace(2), 0);

    const Cycles horizon =
        senderStart + Cycles(slots + 8) * (cfg.ts + 60) + 400000;
    raw.simulatedCycles = core.run(horizon);
    raw.latencies = receiver.samples();
    raw.senderCounters = hierarchy.counters(raw.senderTid);
    raw.receiverCounters = hierarchy.counters(raw.receiverTid);
    return raw;
}

} // namespace

ChannelResult
runMultiSetChannel(const MultiSetConfig &cfg)
{
    // targetSet(j) strides 8 sets modulo 64: past 8 stripes, or from a
    // firstSet past 63, stripes silently reuse sets.
    if (cfg.setCount == 0 || cfg.setCount > 8 || cfg.firstSet >= 64)
        fatalf("MultiSetConfig::setCount = ", cfg.setCount,
               " / firstSet = ", cfg.firstSet,
               " is out of range: 1..8 stripes from a set below 64");
    for (unsigned j = 0; j < cfg.setCount; ++j)
        pipeline::requireSetIndex("MultiSetConfig::targetSet(j)",
                                  cfg.targetSet(j),
                                  cfg.platform.l1.numSets());
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();
    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);

    const pipeline::Pass pass{
        Encoding::binary(cfg.d), 1, cfg.rateKbps(), [&](const auto &levels) {
            return runMultiSetRaw(cfg, levels, calRng, runRng);
        }};
    return pipeline::runFrames(pass, frame, cfg.frames);
}

} // namespace wb::chan
